package experiments

import (
	"testing"
	"time"
)

func fastResize() ResizeOpts {
	return ResizeOpts{
		Scale:     50000,
		VNodes:    4,
		StoreSize: 300,
		Duration:  12 * time.Second,
		AddAt:     2 * time.Second,
		RemoveAt:  7 * time.Second,
	}
}

// TestResizeKeepsReadsCommitting is the Fig. 8 elasticity scenario: adding
// and draining a switch must never open a read-unavailability window —
// only the group currently mid-migration pauses writes.
func TestResizeKeepsReadsCommitting(t *testing.T) {
	res, err := RunResize(fastResize())
	if err != nil {
		t.Fatal(err)
	}
	if res.ScaleOutDone == 0 || res.ScaleInDone <= res.ScaleOutDone {
		t.Fatalf("milestones: out=%v in=%v", res.ScaleOutDone, res.ScaleInDone)
	}
	if res.GroupsMigratedOut == 0 || res.GroupsMigratedIn == 0 {
		t.Fatalf("no groups migrated: out=%d in=%d", res.GroupsMigratedOut, res.GroupsMigratedIn)
	}
	if res.BaselineReadRate <= 0 {
		t.Fatal("no baseline read throughput")
	}
	// Reads keep committing during both migrations: the worst bucket must
	// retain the overwhelming share of the baseline (non-migrating groups
	// are untouched; migrating groups still serve reads).
	if res.MinReadRateDuring < 0.9*res.BaselineReadRate {
		t.Fatalf("read availability dipped: min %.0f/s vs baseline %.0f/s",
			res.MinReadRateDuring, res.BaselineReadRate)
	}
	// The probes actually measured latency, and migrating doesn't blow up
	// the read tail: p99 during the resize stays within 2x of the quiet
	// baseline (reads are never stopped, only re-routed).
	if res.BaselineReadP99 <= 0 || res.ResizeReadP99 <= 0 {
		t.Fatalf("missing latency samples: base=%v resize=%v", res.BaselineReadP99, res.ResizeReadP99)
	}
	if res.ResizeReadP99 > 2*res.BaselineReadP99 {
		t.Fatalf("read p99 during resize = %v vs baseline %v, want <= 2x",
			res.ResizeReadP99, res.BaselineReadP99)
	}
}

// TestResizeWriteStopIsBounded: the migration freeze bounces some writes
// (the per-group stop window) but the write stream as a whole keeps
// flowing — the scenario analog of Fig. 10(b)'s ~0.5% dip.
func TestResizeWriteStopIsBounded(t *testing.T) {
	res, err := RunResize(fastResize())
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(0)
	for _, b := range res.Writes.Buckets() {
		total += b
	}
	if total == 0 {
		t.Fatal("no writes completed")
	}
	if res.WritesUnavailable == 0 {
		t.Fatal("expected some writes to hit the migration freeze")
	}
	if frac := float64(res.WritesUnavailable) / float64(total); frac > 0.25 {
		t.Fatalf("frozen writes = %.1f%% of completions, want bounded per-group stop", frac*100)
	}
}
