package main

import (
	"strings"
	"testing"
	"time"

	"netchain/internal/experiments"
)

// TestTransactionsDemo runs a slimmed Fig. 11 sweep (one contention
// point, one client count) on the deterministic simulator and checks the
// table renders.
func TestTransactionsDemo(t *testing.T) {
	var out strings.Builder
	err := run(&out, experiments.Fig11Opts{
		ContentionIndexes: []float64{0.1},
		Clients:           []int{2},
		ColdKeys:          100,
		NetChainWindow:    5 * time.Millisecond,
		ZKWindow:          100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("transactions demo: %v", err)
	}
	for _, want := range []string{
		"Transaction throughput vs contention index",
		"NetChain (2 clients)",
		"shape to observe",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}
