package main

import (
	"strings"
	"testing"
)

// TestDistributedLock contends a reduced worker pool on one lock; run
// itself fails if a holder's critical section was corrupted by a second
// holder (the counter falls behind the granted acquires), so a nil error
// is the invariant.
func TestDistributedLock(t *testing.T) {
	if testing.Short() {
		t.Skip("binds loopback UDP sockets; skipped with -short")
	}
	var out strings.Builder
	if err := run(&out, 2, 50); err != nil {
		t.Fatalf("distributed-lock: %v\noutput so far:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "(must be equal)") {
		t.Errorf("output missing the mutual-exclusion line:\n%s", out.String())
	}
}
