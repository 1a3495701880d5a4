package experiments

import (
	"testing"
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
