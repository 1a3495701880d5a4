package experiments

import (
	"testing"
	"time"

	"netchain/internal/event"
	"netchain/internal/netsim"
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

// TestChaosMixedTail pins the cost of adversity handling on the data
// path: four open-loop generators at 10 % writes for 20 ms under the
// standing mangle (duplication + reordering + jitter), with the tail
// gray-degraded for the middle half of the window. Delivered throughput
// and the p99 are simulated-time and exact today (80.15 MQPS, 1 124 µs);
// the p99 is the canary for failure-path regressions.
func TestChaosMixedTail(t *testing.T) {
	const window = 20 * time.Millisecond
	d, err := NewDeployment(1000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := d.LoadStore(2000, 64)
	if err != nil {
		t.Fatal(err)
	}
	w := event.Duration(window)
	nm := netsim.RunSchedule(d.TB.Net, netsim.Schedule{
		{Name: "mangle", At: 0, Fault: clusterMangle()},
		{Name: "gray-tail", At: w / 4, For: w / 2, Fault: netsim.GraySwitch{
			Addr: d.TB.Switches[2],
			G:    netsim.Gray{SlowFactor: 20, Loss: 0.01, ExtraDelay: usec(40)}}},
	})
	qps, gens := d.runGenerators(4, keys, 0.1, 64, w, 0)
	if err := nm.Err(); err != nil {
		t.Fatal(err)
	}
	lat := stats.NewLatencyHistogram()
	for _, g := range gens {
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
