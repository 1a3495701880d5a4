package netchain

import (
	"runtime"
	"testing"
	"time"

	"netchain/internal/controller"
)

// TestSimClusterFabricSelfHeals runs the public cluster surface on the
// fattree:4 fabric: reads and writes through a leaf-attached host, then a
// member leaf is killed with no controller notification and the autopilot
// must fail over and recover onto the spare leaf — same contract as the
// testbed, twenty switches instead of four.
func TestSimClusterFabricSelfHeals(t *testing.T) {
	c, err := NewSimCluster(SimConfig{Scale: 1, Seed: 7, Topology: "fattree:4"})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Topology(); got != "fattree:4" {
		t.Fatalf("Topology() = %q, want fattree:4", got)
	}
	if err := c.EnableAutopilot(); err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{42}
	if err := c.Insert(key); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Write(key, Value{1}); err != nil {
		t.Fatal(err)
	}
	c.RunFor(20 * time.Millisecond) // detector warmup

	// fattree:4 switch order is build order: 4 cores, then per pod 2 aggs
	// + 2 edges — so pod 0's edges are indexes 6 and 7. Kill the SECOND
	// member leaf (10.0.3.2): the client's host hangs off the first, and
	// self-healing replaces chain members, not access links.
	if err := c.KillSwitch(7); err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)

	var failover, recovered bool
	for _, ev := range c.RepairHistory() {
		switch ev.Action {
		case controller.ActionFailover:
			failover = true
		case controller.ActionRecoverDone:
			recovered = true
		}
	}
	if !failover || !recovered {
		t.Fatalf("autopilot did not heal the fabric: %v", c.RepairHistory())
	}

	// The healed fabric still serves.
	if _, err := cl.Write(key, Value{2}); err != nil {
		t.Fatalf("write after self-heal: %v", err)
	}
	got, _, err := cl.Read(key)
	if err != nil {
		t.Fatalf("read after self-heal: %v", err)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("read after self-heal = %v, want [2]", got)
	}

	// Ad-hoc switch attachment is a testbed verb; fabrics must refuse it
	// instead of wiring a switch the topology spec knows nothing about.
	if _, err := c.AddSwitch(); err == nil {
		t.Fatal("AddSwitch succeeded on a fabric")
	}
}

// TestSimClusterTopologyValidation: a bad -topology string fails fast.
func TestSimClusterTopologyValidation(t *testing.T) {
	if _, err := NewSimCluster(SimConfig{Topology: "torus:9"}); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if _, err := NewSimCluster(SimConfig{Topology: "fattree:3"}); err == nil {
		t.Fatal("odd fat-tree arity accepted")
	}
}

// TestSimClusterFabricFootprint: "scale-free" has to hold for memory too.
// An 80-switch fattree:8 fabric with nothing stored fits in a few MB (2–3 MB
// measured) because switch register files are paged in by the keys they
// store; allocated per configured slot it held 903 MB. Live heap after GC,
// no wall clock.
func TestSimClusterFabricFootprint(t *testing.T) {
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := liveHeap()
	c, err := NewSimCluster(SimConfig{Topology: "fattree:8"})
	if err != nil {
		t.Fatal(err)
	}
	got := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(c)
	const limit = 32 << 20
	if got > limit {
		t.Fatalf("an idle fattree:8 SimCluster retains %.1f MB of heap, want ≤ %d MB", float64(got)/(1<<20), limit>>20)
	}
	t.Logf("idle fattree:8 SimCluster: %.2f MB live heap", float64(got)/(1<<20))
}
