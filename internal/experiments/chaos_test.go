package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"netchain/internal/controller"
	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/netsim"
	"netchain/internal/packet"
	"netchain/internal/stats"
)

// TestChaosFullNemesisLinearizable is the acceptance check for the
// nemesis: a ≥500-op concurrent history recorded under reordering,
// duplication, an asymmetric partition, a gray-degraded switch AND a
// fail-stop failover/recovery must linearize — and the whole run must be
// deterministic, with two runs of the same seed producing identical
// fingerprints.
func TestChaosFullNemesisLinearizable(t *testing.T) {
	opts := ChaosOpts{Schedule: "full-nemesis", Seed: 1}
	res, err := RunChaos(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops < 500 {
		t.Fatalf("history too thin: %d ops, want >= 500", res.Ops)
	}
	if !res.Lin.OK {
		t.Fatalf("history not linearizable (key %s): %s", res.Lin.Key, res.Lin.Reason)
	}
	// The schedule must actually have exercised every acceptance knob.
	if res.Net.DupCopies == 0 {
		t.Error("no duplication injected")
	}
	if res.Net.Reordered == 0 {
		t.Error("no reordering injected")
	}
	if res.Net.ChaosDrops+res.Net.PartitionDrops == 0 {
		t.Error("no asymmetric partition drops")
	}
	if res.Net.GrayDrops == 0 {
		t.Error("no gray-switch loss")
	}
	if res.FailoverDone == 0 || res.RecoveryDone == 0 {
		t.Fatalf("churn incomplete: failover=%v recovery=%v", res.FailoverDone, res.RecoveryDone)
	}
	if res.HistoryEnd < res.RecoveryDone {
		t.Fatalf("history ended at %v, before recovery at %v — churn not mid-history",
			res.HistoryEnd, res.RecoveryDone)
	}
	if res.Replayed == 0 {
		t.Error("dataplane never replayed a duplicate write — dedup guard unexercised")
	}
	t.Logf("ops=%d unknowns=%d timeouts=%d replayed=%d net=%+v",
		res.Ops, res.Unknowns, res.Client.Timeouts, res.Replayed, res.Net)

	// Determinism: identical seed, identical everything.
	again, err := RunChaos(opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Fingerprint != res.Fingerprint {
		t.Fatalf("same seed diverged:\n  %s\n  %s", res.Fingerprint, again.Fingerprint)
	}
	// Seed 2 is the regression pin for the duplicate-write guard: without
	// the head's lastWrite replay, a duplicated lock CAS is re-stamped as
	// a second acquisition and this exact history fails to linearize.
	other, err := RunChaos(ChaosOpts{Schedule: "full-nemesis", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !other.Lin.OK {
		t.Fatalf("seed 2 not linearizable (key %s): %s", other.Lin.Key, other.Lin.Reason)
	}
	if other.Fingerprint == res.Fingerprint {
		t.Fatal("different seeds produced identical fingerprints")
	}
}

// TestChaosFingerprintsPinned pins what `benchrunner -exp chaos … -seed 1`
// prints, so a refactor that moves simulated behaviour fails tier-1 instead
// of waiting for someone to diff benchrunner builds. A deliberate change
// re-baselines by pasting the printed table over this one.
func TestChaosFingerprintsPinned(t *testing.T) {
	pins := []struct {
		topology, schedule string
		autopilot          bool
		want               string
	}{
		{"ring", "asym-partition", false, "cf014380a7f60c88f04648d459aad5aa368bdb8ceafec0afde9c8040abff4b37"},
		{"ring", "full-nemesis", false, "03ac1d27a409be7c47bc37605c0bbe7bbdb6cc62357708cb2bcb1db978b53802"},
		{"ring", "gray-tail", false, "b55f7b52586f4058341daf84a4846fee7c92d8505084da2f6f206864be676902"},
		{"ring", "reorder-dup", false, "c601c5092b4550b8c882e47915f27bec928698e5b97b4fd8b7d5d7730a3c8524"},
		{"ring", "asym-partition", true, "e00d712459a27349fd63078c5140831e62f06ff9b9db4d9245520b7bb7fdde0e"},
		{"ring", "full-nemesis", true, "2697e813e3b5cf79246f2e57468668e4435b4d24e2f48d26c2a0c137b51da242"},
		{"ring", "gray-tail", true, "956dcff1b6d8d255cb62b366d4fee662dce845d7db38557f7c4817495e851830"},
		{"ring", "reorder-dup", true, "0865e0870b05e11ac2988a47a1f0020cc5cfee1ed251451f05d62b96d70fa473"},
		{"fattree:4", "full-nemesis", true, "350c4a25cc5a007ca2884a9714fcd5b6b9a34c01e0976cdb2f038d82eda24099"},
		{"fattree:8", "full-nemesis", true, "f3eec49bda234ca4ca6c5e035ebe09d0e261eb3cb06d4086bd7db63c8e814cc9"},
	}
	var got strings.Builder
	failed := false
	for _, p := range pins {
		res, err := RunChaos(ChaosOpts{Topology: p.topology, Schedule: p.schedule, Seed: 1, Autopilot: p.autopilot})
		if err != nil {
			t.Fatalf("%s %s autopilot=%v: %v", p.topology, p.schedule, p.autopilot, err)
		}
		failed = failed || res.Fingerprint != p.want
		fmt.Fprintf(&got, "\t\t{%q, %q, %v, %q},\n", p.topology, p.schedule, p.autopilot, res.Fingerprint)
	}
	if failed {
		t.Fatalf("chaos fingerprints moved; got:\n%s", got.String())
	}
}

// TestChaosSchedulesLinearizable sweeps the remaining named schedules at a
// lighter operation count — the matrix the nightly CI job runs with more
// seeds and full size.
func TestChaosSchedulesLinearizable(t *testing.T) {
	for _, name := range ChaosScheduleNames() {
		if name == "full-nemesis" {
			continue // covered by the acceptance test above
		}
		t.Run(name, func(t *testing.T) {
			res, err := RunChaos(ChaosOpts{Schedule: name, Seed: 1, OpsPerClient: 120})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Lin.OK {
				t.Fatalf("history not linearizable (key %s): %s", res.Lin.Key, res.Lin.Reason)
			}
			if res.Ops < 300 {
				t.Fatalf("history too thin: %d ops", res.Ops)
			}
			t.Logf("ops=%d unknowns=%d timeouts=%d net=%+v", res.Ops, res.Unknowns, res.Client.Timeouts, res.Net)
		})
	}
}

// TestNodeLawAfterChaos runs every named schedule on the ring (seed 1)
// and then holds each switch to the node law: every frame its host step
// took in was forwarded or counted as exactly one drop.
func TestNodeLawAfterChaos(t *testing.T) {
	for _, name := range ChaosScheduleNames() {
		t.Run(name, func(t *testing.T) {
			var d *Deployment
			if _, err := runChaos(ChaosOpts{Schedule: name, Seed: 1},
				func(dep *Deployment, _ func(error)) { d = dep }); err != nil {
				t.Fatal(err)
			}
			var in, drops uint64
			for _, a := range d.Net.Switches() {
				sw, _ := d.Net.Switch(a)
				st := sw.Stats()
				out := st.Forwarded + st.WritesStale + st.RuleDrops + st.RouteDrops + st.LocalDrops
				if out != st.FramesIn {
					t.Errorf("%v: %d frames in, %d forwarded or dropped (%+v)", a, st.FramesIn, out, st)
				}
				in, drops = in+st.FramesIn, drops+out-st.Forwarded
			}
			t.Logf("%d frames in, %d dropped", in, drops)
			if in == 0 {
				t.Error("no switch took in a frame")
			}
		})
	}
}

// TestChaosMixedTail pins the cost of adversity handling on the data
// path: four open-loop generators at 10 % writes for 20 ms under the
// standing mangle (duplication + reordering + jitter), with the tail
// gray-degraded for the middle half of the window. Delivered throughput
// and the p99 are simulated-time and exact today (80.15 MQPS, 1 124 µs);
// the p99 is the canary for failure-path regressions.
func TestChaosMixedTail(t *testing.T) {
	const window = 20 * time.Millisecond
	var nm *netsim.Nemesis
	r, err := scenario{
		fabric: FabricOpts{VNodes: 8},
		store: func(d *Deployment) (func(int) []kv.Key, error) {
			keys, err := d.LoadStore(2000, 64)
			w := event.Duration(window)
			nm = netsim.RunSchedule(d.Sim.Clock(), d.Net, netsim.Schedule{
				{Name: "mangle", At: 0, Fault: clusterMangle()},
				{Name: "gray-tail", At: w / 4, For: w / 2, Fault: netsim.GraySwitch{
					Addr: d.Fab.Switches[2],
					G:    netsim.Gray{SlowFactor: 20, Loss: 0.01, ExtraDelay: usec(40)}}},
			})
			return allHosts(keys), err // the testbed's four hosts
		},
		loads: []load{{mux: everyMux, writeRatio: 0.1, valueSize: 64}},
		stop:  window,
	}.run()
	if err != nil {
		t.Fatal(err)
	}
	if err := nm.Err(); err != nil {
		t.Fatal(err)
	}
	qps := r.okQPS()
	lat := stats.NewLatencyHistogram()
	for _, g := range r.gens {
		if err := lat.Merge(g.Latency); err != nil {
			t.Fatal(err)
		}
	}
	if min := 0.8 * 80.15e6; qps < min {
		t.Errorf("delivered %.2f MQPS, want ≥ %.2f", qps/1e6, min/1e6)
	}
	if p99, max := lat.P99()/1e3, 1.2*1124.0; p99 > max {
		t.Errorf("p99 %.0f µs, want ≤ %.0f", p99, max)
	}
	t.Logf("chaos-mixed: %.2f MQPS, p50 %.0f µs, p99 %.0f µs", qps/1e6, lat.P50()/1e3, lat.P99()/1e3)
}

// TestGrayMTTRReadsTheGrayedSwitch: the gray-tail detection and repair
// latencies are the grayed switch's, measured from the gray onset — not
// those of a demotion that came before the onset or hit another switch.
func TestGrayMTTRReadsTheGrayedSwitch(t *testing.T) {
	sws := []packet.Addr{packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(10, 0, 0, 2),
		packet.AddrFrom4(10, 0, 0, 3), packet.AddrFrom4(10, 0, 0, 4)}
	tg := testbedTargets(sws, packet.AddrFrom4(10, 1, 0, 1))
	other := sws[0]
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	res := &ChaosResult{Repairs: []controller.RepairEvent{
		{At: ms(4), Switch: other, Action: controller.ActionDemote},
		{At: ms(6), Switch: other, Action: controller.ActionDemoteDone},
		{At: ms(8), Switch: tg.gray, Action: controller.ActionDemote}, // before the onset
		{At: ms(9), Switch: tg.gray, Action: controller.ActionDemoteDone},
		{At: ms(13), Switch: other, Action: controller.ActionDemote},
		{At: ms(14), Switch: tg.gray, Action: controller.ActionDemote},
		{At: ms(15), Switch: other, Action: controller.ActionDemoteDone},
		{At: ms(20), Switch: tg.gray, Action: controller.ActionDemoteDone},
	}}
	sc := chaosScenarios()["gray-tail"]
	res.tallyRepairs(sc, tg, ms(10), nil)
	if res.DetectLatency != ms(4) || res.RepairLatency != ms(6) {
		t.Fatalf("detection %v, repair %v; want the grayed switch's 4ms and 6ms",
			res.DetectLatency, res.RepairLatency)
	}
	if res.Demotions != 4 || res.Failovers != 0 || res.FalseEvictions != 0 {
		t.Fatalf("counts: %d demotions, %d failovers (%d false)", res.Demotions, res.Failovers, res.FalseEvictions)
	}
}
