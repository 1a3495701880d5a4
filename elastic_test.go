package netchain_test

import (
	"fmt"
	"testing"

	"netchain"
)

// TestClusterElasticScaleOutScaleIn drives the real cluster (UDP
// dataplane, agentwire control channel) through a full elastic cycle: grow by one switch, shrink back,
// with data intact and writable at every step.
func TestClusterElasticScaleOutScaleIn(t *testing.T) {
	cl, err := netchain.StartLocalCluster(netchain.ClusterConfig{
		Switches: 4, Replicas: 3, VNodesPerSwitch: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := cl.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys := make([]netchain.Key, 24)
	for i := range keys {
		keys[i] = netchain.KeyFromUint64(uint64(7000 + i))
		if err := cl.Insert(keys[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(keys[i], netchain.Value(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("seed write %d: %v", i, err)
		}
	}

	// Scale out: a fifth switch boots and joins the ring live.
	idx, err := cl.AddSwitch()
	if err != nil {
		t.Fatal(err)
	}
	if idx != 4 {
		t.Fatalf("new switch index = %d, want 4", idx)
	}
	for i, k := range keys {
		v, _, err := c.Read(k)
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("read %d after scale-out: %q %v", i, v, err)
		}
		if _, err := c.Write(k, netchain.Value(fmt.Sprintf("w%d", i))); err != nil {
			t.Fatalf("write %d after scale-out: %v", i, err)
		}
	}

	// Scale back in: drain the new switch out again.
	if err := cl.RemoveSwitch(idx); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		v, _, err := c.Read(k)
		if err != nil || string(v) != fmt.Sprintf("w%d", i) {
			t.Fatalf("read %d after scale-in: %q %v", i, v, err)
		}
		if _, err := c.Write(k, netchain.Value("final")); err != nil {
			t.Fatalf("write %d after scale-in: %v", i, err)
		}
	}
	// No route may still reference the drained switch.
	drained, err := cl.SwitchAddr(idx)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		for _, h := range cl.Controller().Route(k).Hops {
			if h == drained {
				t.Fatalf("key still routed through drained switch %v", drained)
			}
		}
	}
}

// TestSimClusterElasticity exercises the same cycle on the deterministic
// simulated testbed, including attaching a brand-new fifth switch.
func TestSimClusterElasticity(t *testing.T) {
	s, err := netchain.NewSimCluster(netchain.SimConfig{VNodesPerSwitch: 4})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := s.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	k := netchain.KeyFromString("elastic")
	if err := s.Insert(k); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Write(k, netchain.Value("one")); err != nil {
		t.Fatal(err)
	}

	// Admit the spare S3, then a freshly attached S4.
	if err := s.AddSwitch(3); err != nil {
		t.Fatal(err)
	}
	idx, err := s.AttachSwitch()
	if err != nil {
		t.Fatal(err)
	}
	if idx != 4 {
		t.Fatalf("attached index = %d, want 4", idx)
	}
	if err := s.AddSwitch(idx); err != nil {
		t.Fatal(err)
	}
	if v, _, err := cl.Read(k); err != nil || string(v) != "one" {
		t.Fatalf("read after scale-out: %q %v", v, err)
	}
	if _, err := cl.Write(k, netchain.Value("two")); err != nil {
		t.Fatal(err)
	}

	// Drain S1 (an original member) back out.
	if err := s.RemoveSwitch(1); err != nil {
		t.Fatal(err)
	}
	if v, _, err := cl.Read(k); err != nil || string(v) != "two" {
		t.Fatalf("read after scale-in: %q %v", v, err)
	}
	if _, err := cl.Write(k, netchain.Value("three")); err != nil {
		t.Fatal(err)
	}
}
