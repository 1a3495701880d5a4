package experiments

import (
	"testing"
)

// TestRealChaosSmoke boots the live-UDP cluster, runs one seeded nemesis
// schedule end to end, and checks the run's invariants: a linearizable
// history, a converged push-watch, no false evictions, a deterministic
// fault fingerprint and, audited as the cluster closes, every switch's
// node law (frames in = forwarded + drops). The heavier schedule × seed
// matrix runs via `benchrunner -exp realchaos` in nightly CI; this is the
// tier-1 guard that the wire harness itself stays sound.
func TestRealChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live-UDP cluster run")
	}
	opts := ChaosOpts{
		Schedule:     "reorder-dup",
		Seed:         1,
		OpsPerClient: 60,
	}
	res, err := RunRealChaos(opts)
	if err != nil {
		t.Fatalf("harness failure: %v", err)
	}
	if !res.Lin.OK {
		t.Fatalf("history not linearizable:\n%s", res.DumpHistory())
	}
	if res.Ops < chaosClients*opts.OpsPerClient/2 {
		t.Fatalf("workload barely ran: %d ops recorded", res.Ops)
	}
	if !res.WatchConverged {
		t.Fatalf("push-watch did not converge: events=%d stats=%+v",
			res.WatchEvents, res.WatchStats)
	}
	if res.FalseEvictions != 0 {
		t.Fatalf("autopilot evicted healthy switches: %+v", res.Repairs)
	}
	if res.Inj.ChaosDrops+res.Inj.Reordered+res.Inj.DupCopies == 0 {
		t.Fatalf("schedule injected nothing: %+v", res.Inj)
	}
	if res.FaultFingerprint == "" {
		t.Fatal("missing fault fingerprint")
	}
	// Same (seed, schedule) ⇒ same fingerprint, computed without booting a
	// cluster — the reproducibility contract callers rely on.
	res2 := mustFingerprint(t, opts)
	if res2 != res.FaultFingerprint {
		t.Fatalf("fingerprint not reproducible: %s vs %s", res.FaultFingerprint, res2)
	}
}

// mustFingerprint recomputes the run's fault fingerprint from the same
// named schedule and seed, through the same target mapping, without
// running a workload.
func mustFingerprint(t *testing.T, o ChaosOpts) string {
	t.Helper()
	o.defaults()
	res, err := RealChaosFingerprint(o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
