package ring

import (
	"math/rand"
	"testing"
	"testing/quick"

	"netchain/internal/kv"
	"netchain/internal/packet"
)

func switches(n int) []packet.Addr {
	out := make([]packet.Addr, n)
	for i := range out {
		out[i] = packet.AddrFrom4(10, 0, 0, byte(i+1))
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{VNodesPerSwitch: 4, Replicas: 3}, switches(2)); err == nil {
		t.Fatal("too few switches must be rejected")
	}
	if _, err := New(Config{VNodesPerSwitch: 0, Replicas: 1}, switches(2)); err == nil {
		t.Fatal("zero vnodes must be rejected")
	}
	if _, err := New(Config{VNodesPerSwitch: 4, Replicas: 0}, switches(2)); err == nil {
		t.Fatal("zero replicas must be rejected")
	}
	dup := switches(3)
	dup[2] = dup[0]
	if _, err := New(Config{VNodesPerSwitch: 4, Replicas: 2}, dup); err == nil {
		t.Fatal("duplicate switches must be rejected")
	}
}

func TestChainsHaveDistinctSwitches(t *testing.T) {
	cfg := Config{VNodesPerSwitch: 16, Replicas: 3, Seed: 7}
	r, err := New(cfg, switches(5))
	if err != nil {
		t.Fatal(err)
	}
	for g, c := range r.Chains() {
		if len(c.Hops) != 3 {
			t.Fatalf("group %d: chain length %d, want 3", g, len(c.Hops))
		}
		seen := map[packet.Addr]bool{}
		for _, h := range c.Hops {
			if seen[h] {
				t.Fatalf("group %d: duplicate switch %v in chain %v", g, h, c.Hops)
			}
			seen[h] = true
		}
	}
}

func TestChainForKeyMatchesGroup(t *testing.T) {
	r, err := New(Config{VNodesPerSwitch: 8, Replicas: 3, Seed: 1}, switches(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		k := kv.KeyFromUint64(uint64(i))
		c := r.ChainForKey(k)
		if c.Group != r.GroupForKey(k) {
			t.Fatalf("key %d: ChainForKey group %d != GroupForKey %d",
				i, c.Group, r.GroupForKey(k))
		}
		byGroup, err := r.ChainForGroup(c.Group)
		if err != nil {
			t.Fatal(err)
		}
		if byGroup.Head() != c.Head() || byGroup.Tail() != c.Tail() {
			t.Fatalf("key %d: group lookup disagrees with key lookup", i)
		}
	}
	if _, err := r.ChainForGroup(GroupID(99999)); err == nil {
		t.Fatal("unknown group must error")
	}
}

func TestKeyDistributionIsBalanced(t *testing.T) {
	n := 8
	r, err := New(Config{VNodesPerSwitch: 100, Replicas: 3, Seed: 42}, switches(n))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[packet.Addr]int{}
	const keys = 20000
	for i := 0; i < keys; i++ {
		c := r.ChainForKey(kv.KeyFromUint64(rand.New(rand.NewSource(int64(i))).Uint64()))
		for _, h := range c.Hops {
			counts[h]++
		}
	}
	mean := float64(keys*3) / float64(n)
	for sw, c := range counts {
		ratio := float64(c) / mean
		if ratio < 0.6 || ratio > 1.4 {
			t.Errorf("switch %v holds %.0f%% of mean load", sw, 100*ratio)
		}
	}
}

func TestGroupsOfSwitchCount(t *testing.T) {
	// With n switches and m total vnodes, a failure affects about
	// m(f+1)/n groups (§5.1).
	n, per := 6, 50
	r, err := New(Config{VNodesPerSwitch: per, Replicas: 3, Seed: 3}, switches(n))
	if err != nil {
		t.Fatal(err)
	}
	m := n * per
	expect := float64(m*3) / float64(n)
	got := len(r.GroupsOfSwitch(switches(n)[0]))
	if f := float64(got); f < expect*0.7 || f > expect*1.3 {
		t.Fatalf("affected groups = %d, expected about %.0f", got, expect)
	}
}

func TestReassignRemovesFailedSwitch(t *testing.T) {
	sw := switches(5)
	r, err := New(Config{VNodesPerSwitch: 20, Replicas: 3, Seed: 9}, sw)
	if err != nil {
		t.Fatal(err)
	}
	before := r.Chains()
	failed := sw[2]
	live := []packet.Addr{sw[0], sw[1], sw[3], sw[4]}
	rng := rand.New(rand.NewSource(1))
	if err := r.Reassign(failed, func(i int) packet.Addr {
		return live[rng.Intn(len(live))]
	}); err != nil {
		t.Fatal(err)
	}
	after := r.Chains()
	if len(after) != len(before) {
		t.Fatalf("group count changed: %d -> %d", len(before), len(after))
	}
	for g, c := range after {
		if c.Contains(failed) {
			t.Fatalf("group %d still contains failed switch", g)
		}
		if len(c.Hops) != 3 {
			t.Fatalf("group %d: chain length %d after reassign", g, len(c.Hops))
		}
	}
	// Groups that did not involve the failed switch keep their chains.
	unchanged := 0
	for g, c := range before {
		if !c.Contains(failed) {
			a := after[g]
			same := len(a.Hops) == len(c.Hops)
			if same {
				for i := range a.Hops {
					if a.Hops[i] != c.Hops[i] {
						same = false
						break
					}
				}
			}
			if same {
				unchanged++
			}
		}
	}
	if unchanged == 0 {
		t.Fatal("expected some unaffected chains to remain identical")
	}
}

func TestReassignValidation(t *testing.T) {
	sw := switches(3)
	r, _ := New(Config{VNodesPerSwitch: 4, Replicas: 3, Seed: 9}, sw)
	if err := r.Reassign(packet.AddrFrom4(9, 9, 9, 9), func(int) packet.Addr { return sw[0] }); err == nil {
		t.Fatal("unknown switch must error")
	}
	// Removing one of 3 switches leaves 2 < replicas: must refuse.
	if err := r.Reassign(sw[0], func(int) packet.Addr { return sw[1] }); err == nil {
		t.Fatal("reassign below replica count must error")
	}

	r2, _ := New(Config{VNodesPerSwitch: 4, Replicas: 2, Seed: 9}, sw)
	if err := r2.Reassign(sw[0], func(int) packet.Addr { return sw[0] }); err == nil {
		t.Fatal("picking the failed switch must error")
	}
}

func TestAddSwitch(t *testing.T) {
	sw := switches(3)
	r, _ := New(Config{VNodesPerSwitch: 10, Replicas: 3, Seed: 5}, sw)
	groupsBefore := r.Groups()
	nw := packet.AddrFrom4(10, 0, 0, 99)
	if _, err := r.Resize([]packet.Addr{nw}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resize([]packet.Addr{nw}, nil); err == nil {
		t.Fatal("double add must error")
	}
	if r.Groups() != groupsBefore+10 {
		t.Fatalf("groups = %d, want %d", r.Groups(), groupsBefore+10)
	}
	found := 0
	for _, c := range r.Chains() {
		if c.Contains(nw) {
			found++
		}
	}
	if found == 0 {
		t.Fatal("new switch never appears in any chain")
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := New(Config{VNodesPerSwitch: 32, Replicas: 3, Seed: 77}, switches(6))
	b, _ := New(Config{VNodesPerSwitch: 32, Replicas: 3, Seed: 77}, switches(6))
	f := func(raw uint64) bool {
		k := kv.KeyFromUint64(raw)
		ca, cb := a.ChainForKey(k), b.ChainForKey(k)
		if ca.Group != cb.Group || len(ca.Hops) != len(cb.Hops) {
			return false
		}
		for i := range ca.Hops {
			if ca.Hops[i] != cb.Hops[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeedChangesPlacement(t *testing.T) {
	a, _ := New(Config{VNodesPerSwitch: 32, Replicas: 3, Seed: 1}, switches(6))
	b, _ := New(Config{VNodesPerSwitch: 32, Replicas: 3, Seed: 2}, switches(6))
	diff := 0
	for i := 0; i < 200; i++ {
		k := kv.KeyFromUint64(uint64(i))
		if a.ChainForKey(k).Head() != b.ChainForKey(k).Head() {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds should shuffle placement")
	}
}

func TestChainHelpers(t *testing.T) {
	c := Chain{Group: 1, Hops: []packet.Addr{1, 2, 3}}
	if c.Head() != 1 || c.Tail() != 3 {
		t.Fatal("Head/Tail wrong")
	}
	if !c.Contains(2) || c.Contains(9) {
		t.Fatal("Contains wrong")
	}
}
