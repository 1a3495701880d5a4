package experiments

import (
	"fmt"
	"slices"
	"time"

	"netchain/internal/controller"
	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/ring"
	"netchain/internal/simclient"
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
	Scale       float64       // rate scale (default 10000)
	VNodes      int           // virtual nodes per switch (default 8)
	StoreSize   int           // keys (default 2000)
	Duration    time.Duration // total simulated time (default 30 s)
	AddAt       time.Duration // scale-out start (default 5 s)
	RemoveAt    time.Duration // scale-in start (default 15 s)
	Bucket      time.Duration // time-series bucket (default 500 ms)
	SyncPerItem time.Duration // control-plane copy cost (default 1 ms)
	Seed        int64
}

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
	if o.Bucket == 0 {
		o.Bucket = 500 * time.Millisecond
	}
	if o.SyncPerItem == 0 {
		o.SyncPerItem = time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
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
	d, err := NewDeployment(FabricOpts{Scale: o.Scale, VNodes: o.VNodes, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	ccfg := controller.DefaultConfig()
	ccfg.SyncPerItem = o.SyncPerItem
	if err := d.NewController(ccfg); err != nil {
		return nil, err
	}

	keys, err := d.LoadStore(o.StoreSize, 64)
	if err != nil {
		return nil, err
	}

	dir := d.Directory()
	rate := d.Profile.HostRate / d.Profile.Scale
	readGen := d.Muxes[0].NewGenerator(simclient.DefaultConfig(), dir,
		mixSource(keys, 0, 64, o.Seed))
	readGen.Series = stats.NewTimeSeries(o.Bucket)
	writeGen := d.Muxes[1].NewGenerator(simclient.DefaultConfig(), dir,
		mixSource(keys, 1, 64, o.Seed+1))
	writeGen.Series = stats.NewTimeSeries(o.Bucket)
	// Probe generators: one measures read latency only while a migration
	// runs, its twin only during the quiet pre-resize window — same mux
	// arrangement, so their latency distributions are directly comparable.
	probe := d.Muxes[2].NewGenerator(simclient.DefaultConfig(), dir,
		mixSource(keys, 0, 64, o.Seed+2))
	baseProbe := d.Muxes[3].NewGenerator(simclient.DefaultConfig(), dir,
		mixSource(keys, 0, 64, o.Seed+3))

	res := &ResizeResult{Reads: readGen.Series, Writes: writeGen.Series}
	readGen.Start(rate)
	writeGen.Start(rate)
	d.Sim.After(event.Duration(time.Second), func() { baseProbe.Start(rate) })
	d.Sim.After(event.Duration(o.AddAt)-event.Duration(200*time.Millisecond), baseProbe.Stop)

	var outDiff, inDiff ring.Diff
	var resizeErr error
	d.Sim.After(event.Duration(o.AddAt), func() {
		s4, err := d.Fab.AttachSwitch()
		if err != nil {
			resizeErr = err
			return
		}
		probe.Start(rate)
		outDiff, err = d.Ctl.AddSwitch(s4, func() {
			res.ScaleOutDone = time.Duration(d.Sim.Now())
			probe.Stop()
		})
		if err != nil {
			resizeErr = err
		}
	})
	var startRemove func()
	startRemove = func() {
		if d.Ctl.Resizing() {
			// Scale-out still in flight; resizes serialize.
			d.Sim.After(event.Duration(500*time.Millisecond), startRemove)
			return
		}
		s1 := d.Fab.Switches[1]
		probe.Start(rate)
		var err error
		inDiff, err = d.Ctl.RemoveSwitch(s1, func() {
			res.ScaleInDone = time.Duration(d.Sim.Now())
			probe.Stop()
			// The drained switch holds nothing; uncable it.
			if err := d.Net.DetachSwitch(s1); err != nil {
				resizeErr = err
			}
		})
		if err != nil {
			resizeErr = err
		}
	}
	d.Sim.After(event.Duration(o.RemoveAt), startRemove)
	d.Sim.After(event.Duration(o.Duration), func() {
		readGen.Stop()
		writeGen.Stop()
	})
	d.Sim.RunUntil(event.Duration(o.Duration) + event.Duration(50*time.Millisecond))
	if resizeErr != nil {
		return nil, resizeErr
	}
	if res.ScaleOutDone == 0 || res.ScaleInDone == 0 {
		return nil, fmt.Errorf("experiments: resize did not complete (out=%v in=%v)",
			res.ScaleOutDone, res.ScaleInDone)
	}
	res.GroupsMigratedOut = len(outDiff.Deltas)
	res.GroupsMigratedIn = len(inDiff.Deltas)
	res.BaselineReadP99 = time.Duration(baseProbe.Latency.P99())
	res.ResizeReadP99 = time.Duration(probe.Latency.P99())
	res.WritesUnavailable = writeGen.Done[kv.StatusUnavailable]

	// Placement audit: every key lives on exactly its ring chain, the
	// served route matches the ring, and the non-retired diff entries match
	// what is serving.
	if err := auditPlacement(d, keys, outDiff, inDiff); err != nil {
		return nil, err
	}

	// Figure: read/write completion rates over time (unscaled units).
	fig := &Figure{
		ID:     "resize",
		Title:  "Elastic scale-out (add S4) and scale-in (drain S1)",
		XLabel: "t(s)", YLabel: "QPS",
		PaperNote: "scale-free coordination (title, §4): growth/shrink moves only the " +
			"affected virtual groups; reads never stop, writes pause per group like Fig. 10(b)",
	}
	for i, r := range readGen.Series.Rates() {
		fig.Add("reads", float64(i)*o.Bucket.Seconds(), r*o.Scale)
	}
	for i, r := range writeGen.Series.Rates() {
		fig.Add("writes", float64(i)*o.Bucket.Seconds(), r*o.Scale)
	}
	res.Figure = fig

	// Read availability before vs during the migrations.
	rates := readGen.Series.Rates()
	preEnd := int(o.AddAt/o.Bucket) - 1
	base := 0.0
	for i := 1; i < preEnd && i < len(rates); i++ {
		if rates[i] > base {
			base = rates[i]
		}
	}
	res.BaselineReadRate = base * o.Scale
	min := base
	startB := int(o.AddAt/o.Bucket) + 1
	endB := int(res.ScaleInDone / o.Bucket)
	for i := startB; i < endB && i < len(rates); i++ {
		if rates[i] < min {
			min = rates[i]
		}
	}
	res.MinReadRateDuring = min * o.Scale
	return res, nil
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
