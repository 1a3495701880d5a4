package experiments

import (
	"testing"
	"time"

	"netchain/internal/event"
)

// TestChaosLinearizableAcrossResize drives the shared chaos workload
// through one planned scale-out and one scale-in — S3 joins the ring, then
// S1 is drained out of it — under the standing mangle (duplication,
// reordering, jitter), and checks the recorded history with lincheck.
// RunResize audits placement and availability only; this is the history
// check for the migration engine's stop window on planned migrations.
func TestChaosLinearizableAcrossResize(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		var added, removed time.Duration
		res, err := runChaos(ChaosOpts{Schedule: "reorder-dup", Seed: seed},
			func(d *Deployment, fail func(error)) {
				s1, s3 := d.Fab.Switches[1], d.Fab.Switches[3]
				now := func() time.Duration { return time.Duration(d.Sim.Now()) }
				d.Sim.At(event.Duration(5*time.Millisecond), func() {
					_, err := d.Ctl.AddSwitch(s3, func() {
						added = now()
						if _, err := d.Ctl.RemoveSwitch(s1, func() { removed = now() }); err != nil {
							fail(err)
						}
					})
					if err != nil {
						fail(err)
					}
				})
			})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if added == 0 || removed == 0 {
			t.Fatalf("seed %d: resize incomplete (scale-out done %v, scale-in done %v)", seed, added, removed)
		}
		if res.HistoryEnd < removed {
			t.Fatalf("seed %d: history ended at %v, before the scale-in finished at %v — the resize was not mid-history",
				seed, res.HistoryEnd, removed)
		}
		if res.Client.Timeouts != 0 {
			t.Errorf("seed %d: %d calls timed out across a planned resize", seed, res.Client.Timeouts)
		}
		if !res.Lin.OK {
			t.Fatalf("seed %d: history not linearizable across AddSwitch+RemoveSwitch (key %s): %s\n%s",
				seed, res.Lin.Key, res.Lin.Reason, res.DumpHistory())
		}
		t.Logf("seed %d: %d ops, scale-out done %v, scale-in done %v, history end %v, %d retries",
			seed, res.Ops, added, removed, res.HistoryEnd, res.Client.Retries)
	}
}
