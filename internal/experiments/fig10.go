package experiments

import (
	"fmt"
	"time"

	"netchain/internal/controller"
	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/ring"
	"netchain/internal/simclient"
	"netchain/internal/stats"
)

// Fig10Opts parameterizes the §8.4 failure-handling experiment: fail S1 in
// the chain [S0,S1,S2] at t=20 s (with the paper's injected 1 s detection
// delay), start recovery onto S3 at t=40 s, 50% writes, and watch one
// client server's throughput over time.
type Fig10Opts struct {
	VGroups     int           // virtual groups holding the store: 1 (Fig 10a) or ~100 (Fig 10b)
	Scale       float64       // rate scale (default 10000)
	StoreSize   int           // keys (default 20000)
	Duration    time.Duration // total simulated time (default 200 s)
	FailAt      time.Duration // default 20 s
	DetectLag   time.Duration // injected controller delay (default 1 s, §8.4)
	RecoverAt   time.Duration // default 40 s
	Bucket      time.Duration // time-series bucket (default 1 s)
	PreSync     bool          // Algorithm 3 Step 1 ablation
	SyncPerItem time.Duration // default 7 ms (calibrates ~140 s recovery)
	Seed        int64

	// Autopilot replaces the scripted repair ("the network OS detects
	// the failure" as an injected DetectLag, Recover at RecoverAt) with
	// the self-healing control plane: φ-accrual heartbeat detection
	// notices the fail-stop and the reconcile loop runs failover and
	// recovery from the spare pool on its own. DetectLag and RecoverAt
	// are ignored.
	Autopilot bool
	// Heartbeat is the autopilot beacon cadence (default 100 ms — at
	// Fig. 10 time scales, detection lands ~0.6 s after the failure,
	// comparable to the paper's 1 s injected delay).
	Heartbeat time.Duration
}

func (o *Fig10Opts) defaults() {
	if o.VGroups == 0 {
		o.VGroups = 1
	}
	if o.Scale == 0 {
		o.Scale = 10000
	}
	if o.StoreSize == 0 {
		o.StoreSize = 20000
	}
	if o.Duration == 0 {
		o.Duration = 200 * time.Second
	}
	if o.FailAt == 0 {
		o.FailAt = 20 * time.Second
	}
	if o.DetectLag == 0 {
		o.DetectLag = time.Second
	}
	if o.RecoverAt == 0 {
		o.RecoverAt = 40 * time.Second
	}
	if o.Bucket == 0 {
		o.Bucket = time.Second
	}
	if o.SyncPerItem == 0 {
		o.SyncPerItem = 7 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Heartbeat == 0 {
		o.Heartbeat = 100 * time.Millisecond
	}
}

// Fig10Result carries the time series plus the recovery milestones.
type Fig10Result struct {
	Figure          *Figure
	Series          *stats.TimeSeries
	FailoverDone    time.Duration
	RecoveryDone    time.Duration
	GroupsRecovered int
	// MinRateDuringRecovery / BaselineRate quantify the dip (Fig. 10(a):
	// ~0.5; Fig. 10(b): ~0.995).
	BaselineRate          float64
	MinRateDuringRecovery float64

	// Autopilot-mode repair log (empty under scripted repair).
	Repairs []controller.RepairEvent
}

// Fig10 runs the failure-handling timeline and returns the client
// throughput series. With one virtual group the whole store loses write
// availability for the entire state sync (the paper's measured prototype,
// Fig. 10(a)); with ~100 groups only 1% of keys at a time do, so the dip
// is ~0.5% at 50% writes (Fig. 10(b)).
func Fig10(o Fig10Opts) (*Fig10Result, error) {
	o.defaults()
	// Virtual groups per switch: with 3 ring switches every chain contains
	// all three, so the failed switch affects all vnodes×3 groups. The
	// Fig. 10(a) single-group case instead confines the workload's keys to
	// one group.
	vnodes := 1
	if o.VGroups > 1 {
		vnodes = (o.VGroups + 2) / 3
	}
	d, err := NewDeployment(FabricOpts{Scale: o.Scale, VNodes: vnodes, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	// Slow down / configure the controller sync path.
	ccfg := controller.DefaultConfig()
	ccfg.SyncPerItem = o.SyncPerItem
	ccfg.PreSync = o.PreSync
	if err := d.NewController(ccfg); err != nil {
		return nil, err
	}

	s0, s1, s2, s3 := d.Fab.Switches[0], d.Fab.Switches[1], d.Fab.Switches[2], d.Fab.Switches[3]

	var keys []kv.Key
	if o.VGroups == 1 {
		// All keys in one group whose chain has S1 in the middle, so reads
		// (tail) keep flowing while writes block during recovery.
		g, err := groupWithMiddle(d, s1)
		if err != nil {
			return nil, err
		}
		keys, err = loadKeysInGroup(d, g, o.StoreSize)
		if err != nil {
			return nil, err
		}
	} else {
		keys, err = d.LoadStore(o.StoreSize, 64)
		if err != nil {
			return nil, err
		}
	}

	// Pin the read path S0→S3→S2 as the paper does (§8.4), so reads avoid
	// the failing S1.
	d.Net.SetRoute(s0, s2, s3)

	dir := d.FrozenDirectory() // clients keep pre-failure routes (§4.2)
	gen := d.Muxes[0].NewGenerator(simclient.DefaultConfig(), dir,
		mixSource(keys, 0.5, 64, o.Seed))
	gen.Series = stats.NewTimeSeries(o.Bucket)

	res := &Fig10Result{Series: gen.Series}
	gen.Start(d.Profile.HostRate / d.Profile.Scale)

	d.Ctl.OnGroupRecovered = func(ring.GroupID) { res.GroupsRecovered++ }
	var harness *AutopilotHarness
	if o.Autopilot {
		h, err := StartAutopilot(d, AutopilotOpts{
			Heartbeat: o.Heartbeat,
			Spares:    []packet.Addr{s3},
		})
		if err != nil {
			return nil, err
		}
		harness = h
		h.RecordMilestones(&res.FailoverDone, &res.RecoveryDone)
		d.Sim.After(event.Duration(o.FailAt), func() { d.Net.FailSwitch(s1) })
	} else {
		d.Sim.After(event.Duration(o.FailAt), func() {
			d.Net.FailSwitch(s1)
			d.Sim.After(event.Duration(o.DetectLag), func() {
				d.Ctl.HandleFailure(s1, func() {
					res.FailoverDone = time.Duration(d.Sim.Now())
				})
			})
		})
		d.Sim.After(event.Duration(o.RecoverAt), func() {
			d.Ctl.Recover(s1, []packet.Addr{s3}, func() {
				res.RecoveryDone = time.Duration(d.Sim.Now())
			})
		})
	}
	d.Sim.After(event.Duration(o.Duration), gen.Stop)
	d.Sim.RunUntil(event.Duration(o.Duration) + event.Duration(50*time.Millisecond))
	if harness != nil {
		harness.Stop()
		res.Repairs = harness.Pilot.History()
	}

	// Build the figure (rates scaled back to true units).
	fig := &Figure{
		ID:     fmt.Sprintf("fig10-%dvg", o.VGroups),
		Title:  fmt.Sprintf("Failure handling, %d virtual group(s)", o.VGroups),
		XLabel: "t(s)", YLabel: "QPS",
		PaperNote: "failover dip at 20 s (1 s injected delay); recovery 40 s onward: " +
			"1 vgroup → ~50% drop for the whole sync; 100 vgroups → ~0.5% drop",
	}
	rates := gen.Series.Rates()
	for i, r := range rates {
		fig.Add("client throughput", float64(i)*o.Bucket.Seconds(), r*o.Scale)
	}
	res.Figure = fig

	// Quantify the recovery dip over the window where recovery ran.
	recoverStart := o.RecoverAt
	if o.Autopilot && res.FailoverDone > 0 {
		recoverStart = res.FailoverDone // the autopilot recovers right after failover
	}
	startB := int(recoverStart / o.Bucket)
	endB := int(res.RecoveryDone / o.Bucket)
	if endB > len(rates) {
		endB = len(rates)
	}
	base := 0.0
	for i := 5; i < int(o.FailAt/o.Bucket)-1 && i < len(rates); i++ {
		if rates[i] > base {
			base = rates[i]
		}
	}
	res.BaselineRate = base * o.Scale
	min := base
	for i := startB + 1; i < endB-1; i++ {
		if i >= 0 && i < len(rates) && rates[i] < min {
			min = rates[i]
		}
	}
	res.MinRateDuringRecovery = min * o.Scale
	return res, nil
}

// groupWithMiddle finds a virtual group whose chain places sw in the
// middle position.
func groupWithMiddle(d *Deployment, sw packet.Addr) (ring.GroupID, error) {
	for g, ch := range d.Ring.Chains() {
		if len(ch.Hops) == 3 && ch.Hops[1] == sw {
			return g, nil
		}
	}
	return 0, fmt.Errorf("experiments: no chain has %v in the middle", sw)
}

// loadKeysInGroup preloads keys until n of them land in group g; only
// those keys are returned.
func loadKeysInGroup(d *Deployment, g ring.GroupID, n int) ([]kv.Key, error) {
	var out []kv.Key
	for i := uint64(0); len(out) < n; i++ {
		if i > uint64(n)*100 {
			return nil, fmt.Errorf("experiments: cannot find %d keys in group %d", n, g)
		}
		k := kv.KeyFromUint64(i)
		if d.Ring.GroupForKey(k) != g {
			continue
		}
		if err := d.Preload(k, kv.Value("v")); err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}
