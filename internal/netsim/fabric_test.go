package netsim

import (
	"slices"
	"testing"

	"netchain/internal/event"
	"netchain/internal/packet"
)

func newFabric(t *testing.T, spec string, hostsPerLeaf int, linkPPS float64) *Fabric {
	t.Helper()
	ts, err := ParseTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := NewFabric(event.New(), PaperProfile(1), 1, ts, hostsPerLeaf, linkPPS)
	if err != nil {
		t.Fatal(err)
	}
	return fb
}

func TestParseTopologyGrammar(t *testing.T) {
	good := map[string]string{
		"":                "ring",
		"ring":            "ring",
		"spine-leaf:2x4":  "spine-leaf:2x4",
		"spine-leaf:8x16": "spine-leaf:8x16",
		"fattree:4":       "fattree:4",
		"fattree:8":       "fattree:8",
	}
	for in, want := range good {
		ts, err := ParseTopology(in)
		if err != nil {
			t.Fatalf("ParseTopology(%q): %v", in, err)
		}
		if ts.String() != want {
			t.Fatalf("ParseTopology(%q).String() = %q, want %q", in, ts.String(), want)
		}
	}
	bad := []string{"mesh", "spine-leaf:4", "spine-leaf:0x4", "spine-leaf:2x1",
		"fattree:3", "fattree:0", "fattree:18", "spine-leaf:axb"}
	for _, in := range bad {
		if _, err := ParseTopology(in); err == nil {
			t.Fatalf("ParseTopology(%q) accepted", in)
		}
	}
}

// countSwitchLinks tallies distinct switch-switch adjacencies.
func countSwitchLinks(fb *Fabric) int {
	seen := make(map[[2]packet.Addr]bool)
	for _, s := range fb.Switches {
		for _, nb := range fb.Net.SwitchNeighbors(s) {
			a, b := s, nb
			if b < a {
				a, b = b, a
			}
			seen[[2]packet.Addr{a, b}] = true
		}
	}
	return len(seen)
}

// TestFabricSizes pins the generator's exact switch/link/leaf/host counts
// for a table of specs — the structural half of "scale-free scales".
func TestFabricSizes(t *testing.T) {
	cases := []struct {
		spec                           string
		switches, links, leaves, hosts int
	}{
		{"ring", 4, 4, 2, 4},
		{"spine-leaf:2x4", 6, 8, 4, 8},
		{"spine-leaf:4x8", 12, 32, 8, 16},
		{"spine-leaf:8x16", 24, 128, 16, 32},
		{"fattree:2", 5, 4, 2, 4},    // 1 core + 2 pods × (1 agg + 1 edge)
		{"fattree:4", 20, 32, 8, 16}, // 4 cores + 4 pods × (2+2)
		{"fattree:6", 45, 108, 18, 36},
		{"fattree:8", 80, 256, 32, 64},
	}
	for _, c := range cases {
		fb := newFabric(t, c.spec, 2, 0)
		if got := len(fb.Switches); got != c.switches || fb.Spec.SwitchCount() != c.switches {
			t.Errorf("%s: switches = %d (spec says %d), want %d", c.spec, got, fb.Spec.SwitchCount(), c.switches)
		}
		if got := countSwitchLinks(fb); got != c.links || fb.Spec.LinkCount() != c.links {
			t.Errorf("%s: links = %d (spec says %d), want %d", c.spec, got, fb.Spec.LinkCount(), c.links)
		}
		if got := len(fb.Leaves); got != c.leaves {
			t.Errorf("%s: leaves = %d, want %d", c.spec, got, c.leaves)
		}
		if got := len(fb.Hosts); got != c.hosts {
			t.Errorf("%s: hosts = %d, want %d", c.spec, got, c.hosts)
		}
		for _, leaf := range fb.Leaves {
			if _, ok := fb.Domain[leaf]; !ok {
				t.Errorf("%s: leaf %v has no anti-affinity domain", c.spec, leaf)
			}
		}
	}
}

// TestFabricReachability asserts all-pairs connectivity: every node can
// route to every other node, and ECMP flow paths terminate. On a
// spine-leaf fabric every host reaches every leaf within 3 links
// (host-leaf-spine-leaf), the bound the §8.3 hop model rests on.
func TestFabricReachability(t *testing.T) {
	for _, spec := range []string{"spine-leaf:2x4", "fattree:4", "fattree:8"} {
		fb := newFabric(t, spec, 1, 0)
		all := append(fb.SwitchAddrs(), fb.Hosts...)
		for _, a := range all {
			for _, b := range all {
				if a == b {
					continue
				}
				path, ok := fb.Net.FlowPath(a, b)
				if !ok {
					t.Fatalf("%s: no flow path %v -> %v", spec, a, b)
				}
				if path[0] != a || path[len(path)-1] != b {
					t.Fatalf("%s: path %v -> %v endpoints wrong: %v", spec, a, b, path)
				}
			}
		}
		if fb.Spec.Kind != "spine-leaf" {
			continue
		}
		for _, h := range fb.Hosts {
			for _, leaf := range fb.Leaves {
				if l, ok := fb.Net.PathLen(h, leaf); !ok || l > 3 {
					t.Fatalf("%s: host %v -> leaf %v path %d (%v), want <= 3 links", spec, h, leaf, l, ok)
				}
			}
		}
	}
}

// TestFabricEqualCostSymmetry asserts the ECMP invariants of each shape:
// equal-cost fan-out matches the tier geometry, forward and reverse paths
// have equal hop counts, and all cross-domain leaf pairs see identical
// path lengths.
func TestFabricEqualCostSymmetry(t *testing.T) {
	// Spine-leaf: each leaf sees exactly S equal-cost hops toward any
	// other leaf; every cross-leaf path is leaf-spine-leaf (len 3).
	fb := newFabric(t, "spine-leaf:4x8", 1, 0)
	for _, a := range fb.Leaves {
		for _, b := range fb.Leaves {
			if a == b {
				continue
			}
			if hops := fb.Net.EqualCostHops(a, b); len(hops) != 4 {
				t.Fatalf("spine-leaf: %v->%v equal-cost hops = %d, want 4", a, b, len(hops))
			}
			fwd, _ := fb.Net.FlowPath(a, b)
			rev, _ := fb.Net.FlowPath(b, a)
			if len(fwd) != 3 || len(rev) != 3 {
				t.Fatalf("spine-leaf: %v<->%v path lens %d/%d, want 3/3", a, b, len(fwd), len(rev))
			}
		}
	}
	// Fat-tree: an edge switch fans out over its k/2 pod aggs toward any
	// other pod; cross-pod edge-edge paths are all 5 nodes
	// (edge-agg-core-agg-edge), in-pod are 3. Leaves are appended
	// pod-major, so leaf index / (k/2) recovers the pod.
	fb = newFabric(t, "fattree:4", 1, 0)
	pod := make(map[packet.Addr]int)
	for i, a := range fb.Leaves {
		pod[a] = i / 2
	}
	for _, a := range fb.Leaves {
		for _, b := range fb.Leaves {
			if a == b {
				continue
			}
			fwd, _ := fb.Net.FlowPath(a, b)
			rev, _ := fb.Net.FlowPath(b, a)
			if len(fwd) != len(rev) {
				t.Fatalf("fattree: %v<->%v asymmetric path lens %d/%d", a, b, len(fwd), len(rev))
			}
			want := 5
			if pod[a] == pod[b] {
				want = 3
			}
			if len(fwd) != want {
				t.Fatalf("fattree: %v->%v path len %d, want %d (pods %d/%d)",
					a, b, len(fwd), want, pod[a], pod[b])
			}
			if pod[a] != pod[b] {
				if hops := fb.Net.EqualCostHops(a, b); len(hops) != 2 {
					t.Fatalf("fattree: %v->%v equal-cost hops = %d, want 2", a, b, len(hops))
				}
			}
		}
	}
}

// TestFabricDeterminism pins byte-identical rebuilds: the same spec and
// seed must produce the same structure, links, capacities, and ECMP route
// sets (compare TestNetsimDeterminism for the event-level pin).
func TestFabricDeterminism(t *testing.T) {
	for _, spec := range []string{"spine-leaf:4x8", "fattree:4"} {
		a := newFabric(t, spec, 2, 20.5e6)
		b := newFabric(t, spec, 2, 20.5e6)
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("%s: two builds from one spec differ", spec)
		}
		c := newFabric(t, spec, 2, 0) // different metering → different fabric
		if a.Fingerprint() == c.Fingerprint() {
			t.Fatalf("%s: metered and unmetered builds fingerprint-identical", spec)
		}
	}
	if newFabric(t, "fattree:8", 1, 0).Fingerprint() != newFabric(t, "fattree:8", 1, 0).Fingerprint() {
		t.Fatal("fattree:8: two builds from one spec differ")
	}
	if newFabric(t, "fattree:4", 2, 0).Fingerprint() == newFabric(t, "spine-leaf:4x8", 2, 0).Fingerprint() {
		t.Fatal("distinct specs fingerprint-identical")
	}
}

// TestRingIsFig8Wiring pins the ring shape to the exact Fig. 8 wiring
// the retired standalone builder produced: same nodes, links, latencies and
// single-path routes, before and after the monitor joins (fingerprints
// recorded from that builder). Every ring chaos fingerprint rests on this.
func TestRingIsFig8Wiring(t *testing.T) {
	fb := newFabric(t, "ring", 2, 0)
	if got, want := fb.Fingerprint(), "7309175cd8816fa3c9819f25328ddb8a0353feb6497b13e94f07d205dfc54b7f"; got != want {
		t.Fatalf("ring fingerprint = %s, want %s", got, want)
	}
	if _, err := fb.AttachMonitor(); err != nil {
		t.Fatal(err)
	}
	if got, want := fb.Fingerprint(), "4285055075ef87411bab86dde524516d61a66558dd1d529dd102838eec2ede0d"; got != want {
		t.Fatalf("ring fingerprint with monitor = %s, want %s", got, want)
	}
	s := fb.Switches
	if !slices.Equal(fb.Candidates, s) || !slices.Equal(fb.Uplinks, []packet.Addr{s[0], s[2]}) {
		t.Fatalf("candidates %v, uplinks %v; want all of %v, and S0,S2", fb.Candidates, fb.Uplinks, s)
	}
}

// TestAttachSwitchRingOnly: only the ring takes ad-hoc switches.
func TestAttachSwitchRingOnly(t *testing.T) {
	if _, err := newFabric(t, "fattree:4", 1, 0).AddSwitch(); err == nil {
		t.Fatal("AddSwitch succeeded on a fat-tree")
	}
}

// TestFabricMonitorAttach checks the monitor host is reachable from every
// switch and idempotent to attach.
func TestFabricMonitorAttach(t *testing.T) {
	fb := newFabric(t, "fattree:4", 1, 20.5e6)
	mon, err := fb.AttachMonitor()
	if err != nil {
		t.Fatal(err)
	}
	mon2, err := fb.AttachMonitor()
	if err != nil || mon2 != mon {
		t.Fatalf("AttachMonitor not idempotent: %v %v", mon2, err)
	}
	for _, s := range fb.Switches {
		if _, ok := fb.Net.FlowPath(s, mon); !ok {
			t.Fatalf("switch %v cannot reach monitor", s)
		}
	}
}

// TestLinkCapacityCongestion drives enough frames over one metered link to
// force queueing past the bound and checks the per-link meter and global
// LinkDrops counter fire — the mechanism that makes transit congestion
// observable at all.
func TestLinkCapacityCongestion(t *testing.T) {
	sim := event.New()
	ts, _ := ParseTopology("spine-leaf:2x4")
	// 1k pps budget → 1 ms serialization per frame; 1 ms queue bound means
	// a burst deeper than ~2 frames must tail-drop.
	fb, err := NewFabric(sim, PaperProfile(1), 1, ts, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := fb.Hosts[0], fb.Hosts[3]
	for i := 0; i < 64; i++ {
		nc := &packet.NetChain{Op: 1, Key: [16]byte{byte(i)}, QueryID: uint64(i)}
		fb.Net.Inject(src, packet.NewQuery(src, dst, 4000, nc))
	}
	sim.Run()
	st := fb.Net.Stats()
	if st.LinkDrops == 0 {
		t.Fatalf("no link drops under 64-frame burst: %+v", st)
	}
	leaf := fb.HostLeaf[src]
	var load, drops uint64
	for _, nb := range fb.Net.SwitchNeighbors(leaf) {
		l, d := fb.Net.LinkUtilization(leaf, nb)
		load += l
		drops += d
	}
	if load == 0 || drops == 0 {
		t.Fatalf("uplink meters silent: load=%d drops=%d", load, drops)
	}
	if st.LinkDrops != drops {
		t.Fatalf("global LinkDrops %d != per-link sum %d", st.LinkDrops, drops)
	}
}
