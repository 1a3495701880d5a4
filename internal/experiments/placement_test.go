package experiments

import (
	"strings"
	"testing"
)

// TestPlacementScalingGain is the acceptance check for the placement
// experiment: on the fattree:4 fabric with metered links and the affine
// workload, bottleneck-aware placement must deliver at least 2x the
// throughput of naive round-robin (the measured gain is ~8x).
func TestPlacementScalingGain(t *testing.T) {
	r, err := RunPlacementScaling(PlacementOpts{Topologies: []string{"fattree:4"}})
	if err != nil {
		t.Fatal(err)
	}
	g, ok := r.Gain["fattree:4"]
	if !ok {
		t.Fatalf("no gain computed: %+v", r)
	}
	if g < 2 {
		t.Fatalf("bottleneck-aware gain %.2fx < 2x over round-robin\n%s", g, FormatPlacement(r))
	}
	for _, a := range r.Arms {
		if a.Placement == "roundrobin" && a.LinkDrops == 0 {
			t.Errorf("%s/%s: no link drops — the metered fabric was not contended, gain is vacuous", a.Topology, a.Placement)
		}
		if a.OpsPerSec <= 0 {
			t.Errorf("%s/%s: no delivered throughput", a.Topology, a.Placement)
		}
	}
}

// TestPlacementScalingNearLinear pins the scaling shape across fabric
// sizes: delivered throughput per host under bottleneck-aware placement
// must stay flat (within 25%) as the fabric doubles from 4 to 8 leaves —
// aggregate throughput grows with the client population instead of
// flat-lining at a transit link's budget.
func TestPlacementScalingNearLinear(t *testing.T) {
	r, err := RunPlacementScaling(PlacementOpts{
		Topologies: []string{"spine-leaf:2x4", "spine-leaf:4x8"},
	})
	if err != nil {
		t.Fatal(err)
	}
	perHost := make(map[string]float64)
	for _, a := range r.Arms {
		if a.Placement == "bottleneck" {
			perHost[a.Topology] = a.OpsPerSec / float64(a.Hosts)
		}
	}
	small, large := perHost["spine-leaf:2x4"], perHost["spine-leaf:4x8"]
	if small == 0 || large == 0 {
		t.Fatalf("missing arms: %+v", perHost)
	}
	if large < small*0.75 {
		t.Fatalf("per-host throughput collapsed when the fabric grew: %.0f → %.0f ops/s/host\n%s",
			small, large, FormatPlacement(r))
	}
}

// TestFormatPlacementIsDeterministic: the gain lines print in sweep order,
// not in the Gain map's iteration order.
func TestFormatPlacementIsDeterministic(t *testing.T) {
	r := &PlacementResult{Gain: map[string]float64{}}
	for i, topo := range []string{"spine-leaf:2x4", "spine-leaf:4x8", "fattree:4"} {
		for _, p := range []string{"roundrobin", "bottleneck"} {
			r.Arms = append(r.Arms, PlacementArm{Topology: topo, Placement: p})
		}
		r.Gain[topo] = float64(i + 2)
	}
	first := FormatPlacement(r)
	if !strings.HasSuffix(first, "gain[spine-leaf:2x4] = 2.00x (bottleneck-aware over round-robin)\n"+
		"gain[spine-leaf:4x8] = 3.00x (bottleneck-aware over round-robin)\n"+
		"gain[fattree:4] = 4.00x (bottleneck-aware over round-robin)\n") {
		t.Fatalf("gain lines out of sweep order:\n%s", first)
	}
	for i := 0; i < 50; i++ {
		if out := FormatPlacement(r); out != first {
			t.Fatalf("format %d differs:\n%s\nvs\n%s", i, out, first)
		}
	}
}

// TestPlacementDeterminism: the sweep is simulated-time only, so the same
// seed must reproduce identical numbers — this is what lets a test bound
// the gain across machines.
func TestPlacementDeterminism(t *testing.T) {
	opts := PlacementOpts{Topologies: []string{"spine-leaf:2x4"}}
	a, err := RunPlacementScaling(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPlacementScaling(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Arms) != len(b.Arms) {
		t.Fatalf("arm count differs: %d vs %d", len(a.Arms), len(b.Arms))
	}
	for i := range a.Arms {
		if a.Arms[i] != b.Arms[i] {
			t.Fatalf("run %d differs:\n%+v\n%+v", i, a.Arms[i], b.Arms[i])
		}
	}
}
