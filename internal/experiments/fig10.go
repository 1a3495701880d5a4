package experiments

import (
	"fmt"
	"time"

	"netchain/internal/controller"
	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/ring"
	"netchain/internal/stats"
)

// Fig10Opts parameterizes the §8.4 failure-handling experiment: fail S1 in
// the chain [S0,S1,S2] at t=20 s (with the paper's injected 1 s detection
// delay), start recovery onto S3 at t=40 s, 50% writes, and watch one
// client server's throughput over time.
type Fig10Opts struct {
	VGroups   int           // virtual groups holding the store: 1 (Fig 10a) or ~100 (Fig 10b)
	Scale     float64       // rate scale (default 10000)
	StoreSize int           // keys (default 20000)
	Duration  time.Duration // total simulated time (default 200 s)
	FailAt    time.Duration // default 20 s
	DetectLag time.Duration // injected controller delay (default 1 s, §8.4)
	RecoverAt time.Duration // default 40 s
	Bucket    time.Duration // time-series bucket (default 1 s)
	PreSync   bool          // Algorithm 3 Step 1 ablation

	// Autopilot replaces the scripted repair ("the network OS detects
	// the failure" as an injected DetectLag, Recover at RecoverAt) with
	// the self-healing control plane: φ-accrual heartbeat detection
	// notices the fail-stop and the reconcile loop runs failover and
	// recovery from the spare pool on its own. DetectLag and RecoverAt
	// are ignored.
	Autopilot bool
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
	ccfg := controller.DefaultConfig() // its 7 ms per-item sync calibrates the ~140 s recovery
	ccfg.PreSync = o.PreSync
	res := &Fig10Result{}
	var harness *AutopilotHarness
	// S1 fails at FailAt; S3, the deployment's spare, replaces it.
	steps := []step{{o.FailAt, func(r *run) {
		s1 := r.Fab.Switches[1]
		r.Net.FailSwitch(s1)
		if !o.Autopilot {
			r.Sim.After(event.Duration(o.DetectLag), func() {
				r.Ctl.HandleFailure(s1, func() { res.FailoverDone = r.now() })
			})
		}
	}}}
	if !o.Autopilot {
		steps = append(steps, step{o.RecoverAt, func(r *run) {
			r.Ctl.Recover(r.Fab.Switches[1], []packet.Addr{r.Fab.Switches[3]}, func() { res.RecoveryDone = r.now() })
		}})
	}
	r, err := scenario{
		fabric: FabricOpts{Scale: o.Scale, VNodes: vnodes},
		ctl:    &ccfg,
		store: func(d *Deployment) (func(int) []kv.Key, error) {
			keys, err := fig10Store(d, o)
			// Pin the read path S0→S3→S2 as the paper does (§8.4), so reads
			// avoid the failing S1.
			d.Net.SetRoute(d.Fab.Switches[0], d.Fab.Switches[2], d.Fab.Switches[3])
			return allHosts(keys), err
		},
		frozen: true, // clients keep pre-failure routes (§4.2)
		loads:  []load{{writeRatio: 0.5, valueSize: 64, bucket: o.Bucket}},
		setup: func(r *run) (err error) {
			r.Ctl.OnGroupRecovered = func(ring.GroupID) { res.GroupsRecovered++ }
			if o.Autopilot {
				// A 100 ms beacon lands detection ~0.6 s after the failure,
				// comparable to the paper's 1 s injected delay.
				harness, err = StartAutopilot(r.Deployment, AutopilotOpts{Heartbeat: 100 * time.Millisecond})
				if err == nil {
					harness.RecordMilestones(&res.FailoverDone, &res.RecoveryDone)
				}
			}
			return err
		},
		steps:  steps,
		stop:   o.Duration,
		settle: 50 * time.Millisecond,
	}.run()
	if err != nil {
		return nil, err
	}
	if harness != nil {
		harness.Stop()
		res.Repairs = harness.Pilot.History()
	}
	res.Series = r.gens[0].Series

	res.Figure = &Figure{
		ID:     fmt.Sprintf("fig10-%dvg", o.VGroups),
		Title:  fmt.Sprintf("Failure handling, %d virtual group(s)", o.VGroups),
		XLabel: "t(s)", YLabel: "QPS",
		PaperNote: "failover dip at 20 s (1 s injected delay); recovery 40 s onward: " +
			"1 vgroup → ~50% drop for the whole sync; 100 vgroups → ~0.5% drop",
	}
	r.plot(res.Figure, "client throughput", 0)

	// Quantify the recovery dip over the window where recovery ran.
	recoverStart := o.RecoverAt
	if o.Autopilot && res.FailoverDone > 0 {
		recoverStart = res.FailoverDone // the autopilot recovers right after failover
	}
	rates := res.Series.Rates()
	endB := min(int(res.RecoveryDone/o.Bucket), len(rates))
	base, low := dip(rates, 5, int(o.FailAt/o.Bucket)-1, int(recoverStart/o.Bucket)+1, endB-1)
	res.BaselineRate, res.MinRateDuringRecovery = base*o.Scale, low*o.Scale
	return res, nil
}

// fig10Store preloads the store: with one virtual group, all keys in a
// group whose chain has S1 in the middle, so reads (tail) keep flowing
// while writes block during recovery.
func fig10Store(d *Deployment, o Fig10Opts) ([]kv.Key, error) {
	if o.VGroups > 1 {
		return d.LoadStore(o.StoreSize, 64)
	}
	for g, ch := range d.Ring.Chains() {
		if len(ch.Hops) == 3 && ch.Hops[1] == d.Fab.Switches[1] {
			return loadKeysInGroup(d, g, o.StoreSize)
		}
	}
	return nil, fmt.Errorf("experiments: no chain has %v in the middle", d.Fab.Switches[1])
}

// Format renders the figure and the recovery milestones as benchrunner
// prints them.
func (r *Fig10Result) Format() string {
	return r.Figure.Format() + "\n" +
		fmt.Sprintf("failover done at t=%.1fs; recovery done at t=%.1fs; groups recovered: %d\n",
			r.FailoverDone.Seconds(), r.RecoveryDone.Seconds(), r.GroupsRecovered) +
		fmt.Sprintf("baseline %.2f MQPS; minimum during recovery %.2f MQPS (%.1f%% of baseline)\n",
			r.BaselineRate/1e6, r.MinRateDuringRecovery/1e6,
			100*r.MinRateDuringRecovery/r.BaselineRate)
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
