package experiments

import (
	"fmt"
	"slices"
	"time"

	"netchain/internal/controller"
	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/ring"
	"netchain/internal/stats"
)

// ResizeOpts parameterizes the elastic scale-out/scale-in scenario: the
// Fig. 8 testbed grows by one switch mid-run (a fresh S4 is cabled into
// the diamond and live-migrated into the ring), then shrinks by draining
// S1 out — the "scale-free" claim of the paper's title exercised as a
// planned reconfiguration rather than a failure. Reads and writes run
// open-loop throughout; the interesting outputs are the read availability
// during migration (there must be no window where reads stop committing)
// and the bounded per-group write stop.
type ResizeOpts struct {
	Scale     float64       // rate scale (default 10000)
	VNodes    int           // virtual nodes per switch (default 8)
	StoreSize int           // keys (default 2000)
	Duration  time.Duration // total simulated time (default 30 s)
	AddAt     time.Duration // scale-out start (default 5 s)
	RemoveAt  time.Duration // scale-in start (default 15 s)
}

// resizeBucket is the time-series bucket.
const resizeBucket = 500 * time.Millisecond

func (o *ResizeOpts) defaults() {
	if o.Scale == 0 {
		o.Scale = 10000
	}
	if o.VNodes == 0 {
		o.VNodes = 8
	}
	if o.StoreSize == 0 {
		o.StoreSize = 2000
	}
	if o.Duration == 0 {
		o.Duration = 30 * time.Second
	}
	if o.AddAt == 0 {
		o.AddAt = 5 * time.Second
	}
	if o.RemoveAt == 0 {
		o.RemoveAt = 15 * time.Second
	}
}

// ResizeResult carries the time series, migration milestones and the
// post-resize placement audit.
type ResizeResult struct {
	Figure *Figure
	Reads  *stats.TimeSeries
	Writes *stats.TimeSeries

	ScaleOutDone time.Duration // when the AddSwitch migration finished
	ScaleInDone  time.Duration // when the RemoveSwitch drain finished

	GroupsMigratedOut int // groups the scale-out diff touched
	GroupsMigratedIn  int // groups the scale-in diff touched

	// Read availability: reads must keep committing through both
	// migrations (only per-group *write* stops are allowed).
	BaselineReadRate  float64 // peak pre-resize read completions/s (unscaled)
	MinReadRateDuring float64 // worst bucket between AddAt and ScaleInDone

	// BaselineReadP99 and ResizeReadP99 compare p99 read latency from a
	// probe client before any migration vs while migrations are active
	// (absolute values depend on Scale: the host-rate gate models NIC
	// serialization, so only the ratio is meaningful).
	BaselineReadP99 time.Duration
	ResizeReadP99   time.Duration

	// WritesUnavailable counts writes bounced by the per-group migration
	// freeze — the price of the resize, bounded by one group's window.
	WritesUnavailable uint64
}

// RunResize executes the scenario and audits the final placement against
// the ring (every key on exactly its chain's switches, routes matching the
// resize diffs).
func RunResize(o ResizeOpts) (*ResizeResult, error) {
	o.defaults()
	ccfg := controller.DefaultConfig()
	ccfg.SyncPerItem = time.Millisecond // control-plane copy cost
	res := &ResizeResult{}
	var keys []kv.Key
	var outDiff, inDiff ring.Diff
	const probe = 2 // the load that measures read latency during migrations
	scaleOut := func(r *run) {
		s4, err := r.Fab.AddSwitch()
		if err != nil {
			r.fail(err)
			return
		}
		r.gens[probe].Start(r.Profile.HostRate / r.Profile.Scale)
		outDiff, err = r.Ctl.AddSwitch(s4, func() {
			res.ScaleOutDone = r.now()
			r.gens[probe].Stop()
		})
		if err != nil {
			r.fail(err)
		}
	}
	var scaleIn func(r *run)
	scaleIn = func(r *run) {
		if r.Ctl.Resizing() {
			// Scale-out still in flight; resizes serialize.
			r.Sim.After(event.Duration(500*time.Millisecond), func() { scaleIn(r) })
			return
		}
		s1 := r.Fab.Switches[1]
		r.gens[probe].Start(r.Profile.HostRate / r.Profile.Scale)
		var err error
		inDiff, err = r.Ctl.RemoveSwitch(s1, func() {
			res.ScaleInDone = r.now()
			r.gens[probe].Stop()
			// The drained switch holds nothing; uncable it.
			if err := r.Net.DetachSwitch(s1); err != nil {
				r.fail(err)
			}
		})
		if err != nil {
			r.fail(err)
		}
	}
	r, err := scenario{
		fabric: FabricOpts{Scale: o.Scale, VNodes: o.VNodes},
		ctl:    &ccfg,
		store: func(d *Deployment) (_ func(int) []kv.Key, err error) {
			keys, err = d.LoadStore(o.StoreSize, 64)
			return allHosts(keys), err
		},
		// Reads and writes from their own hosts, plus two read probes: one
		// runs only while a migration does, its twin only in the quiet
		// pre-resize window — same mux arrangement, so their latency
		// distributions are directly comparable.
		loads: []load{
			{mux: 0, bucket: resizeBucket},
			{mux: 1, writeRatio: 1, valueSize: 64, bucket: resizeBucket},
			{mux: probe, idle: true},
			{mux: 3, from: time.Second, to: o.AddAt - 200*time.Millisecond},
		},
		steps:  []step{{o.AddAt, scaleOut}, {o.RemoveAt, scaleIn}},
		stop:   o.Duration,
		settle: 50 * time.Millisecond,
	}.run()
	if err != nil {
		return nil, err
	}
	if res.ScaleOutDone == 0 || res.ScaleInDone == 0 {
		return nil, fmt.Errorf("experiments: resize did not complete (out=%v in=%v)",
			res.ScaleOutDone, res.ScaleInDone)
	}
	res.Reads, res.Writes = r.gens[0].Series, r.gens[1].Series
	res.GroupsMigratedOut = len(outDiff.Deltas)
	res.GroupsMigratedIn = len(inDiff.Deltas)
	res.BaselineReadP99 = time.Duration(r.gens[3].Latency.P99())
	res.ResizeReadP99 = time.Duration(r.gens[probe].Latency.P99())
	res.WritesUnavailable = r.gens[1].Done[kv.StatusUnavailable]

	// Placement audit: every key lives on exactly its ring chain, the
	// served route matches the ring, and the non-retired diff entries match
	// what is serving.
	if err := auditPlacement(r.Deployment, keys, outDiff, inDiff); err != nil {
		return nil, err
	}

	// Figure: read/write completion rates over time (unscaled units).
	res.Figure = &Figure{
		ID:     "resize",
		Title:  "Elastic scale-out (add S4) and scale-in (drain S1)",
		XLabel: "t(s)", YLabel: "QPS",
		PaperNote: "scale-free coordination (title, §4): growth/shrink moves only the " +
			"affected virtual groups; reads never stop, writes pause per group like Fig. 10(b)",
	}
	r.plot(res.Figure, "reads", 0)
	r.plot(res.Figure, "writes", 1)

	// Read availability before vs during the migrations.
	addB := int(o.AddAt / resizeBucket)
	base, low := dip(res.Reads.Rates(), 1, addB-1, addB+1, int(res.ScaleInDone/resizeBucket))
	res.BaselineReadRate, res.MinReadRateDuring = base*o.Scale, low*o.Scale
	return res, nil
}

// Format renders the figure and the migration milestones as benchrunner
// prints them.
func (r *ResizeResult) Format() string {
	return r.Figure.Format() + "\n" +
		fmt.Sprintf("scale-out done at t=%.1fs (%d groups); scale-in done at t=%.1fs (%d groups)\n",
			r.ScaleOutDone.Seconds(), r.GroupsMigratedOut,
			r.ScaleInDone.Seconds(), r.GroupsMigratedIn) +
		fmt.Sprintf("reads: baseline %.2f MQPS, worst bucket during resize %.2f MQPS (%.1f%%); "+
			"read p99 %.1fµs quiet vs %.1fµs during migration\n",
			r.BaselineReadRate/1e6, r.MinReadRateDuring/1e6,
			100*r.MinReadRateDuring/r.BaselineReadRate,
			float64(r.BaselineReadP99.Nanoseconds())/1e3,
			float64(r.ResizeReadP99.Nanoseconds())/1e3) +
		fmt.Sprintf("writes bounced by per-group migration freeze: %d\n", r.WritesUnavailable)
}

// auditPlacement cross-checks controller routes, ring chains, diff deltas
// and switch state after the resizes settle.
func auditPlacement(d *Deployment, keys []kv.Key, diffs ...ring.Diff) error {
	routes := d.Ctl.Routes()
	// Non-retired deltas from the LAST diff must be serving verbatim; a
	// later diff may supersede an earlier one's groups, so audit only
	// groups the final ring still knows.
	for _, diff := range diffs {
		for g, delta := range diff.Deltas {
			if delta.Retired() {
				if _, ok := routes[uint16(g)]; ok {
					return fmt.Errorf("experiments: retired group %d still has a route", g)
				}
				continue
			}
			want, err := d.Ring.ChainForGroup(g)
			if err != nil {
				continue // superseded by a later resize
			}
			rt, ok := routes[uint16(g)]
			if !ok {
				return fmt.Errorf("experiments: migrated group %d has no route", g)
			}
			if !slices.Equal(rt.Hops, want.Hops) {
				return fmt.Errorf("experiments: group %d serves %v, ring says %v", g, rt.Hops, want.Hops)
			}
		}
	}
	for i, k := range keys {
		ch := d.Ring.ChainForKey(k)
		rt := d.Ctl.Route(k)
		if !slices.Equal(rt.Hops, ch.Hops) {
			return fmt.Errorf("experiments: key %d route %v != ring chain %v", i, rt.Hops, ch.Hops)
		}
		for _, sa := range d.SwitchAddrs() {
			sw, ok := d.Net.Switch(sa)
			if !ok {
				continue // detached after drain
			}
			if ch.Contains(sa) != sw.HasKey(k) {
				return fmt.Errorf("experiments: key %d on %v: inChain=%v hasKey=%v",
					i, sa, ch.Contains(sa), sw.HasKey(k))
			}
		}
	}
	return nil
}
