package controller

import (
	"fmt"
	"testing"

	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/ring"
)

// loadKeys inserts n keys and writes distinct values through the chains.
func (f *fixture) loadKeys(t *testing.T, n int) []kv.Key {
	t.Helper()
	keys := make([]kv.Key, n)
	for i := range keys {
		keys[i] = kv.KeyFromUint64(uint64(5000 + i))
		if _, err := f.ctl.Insert(keys[i]); err != nil {
			t.Fatal(err)
		}
		if rep, ok := f.write(t, 0, keys[i], fmt.Sprintf("v%d", i)); !ok || rep.Status != kv.StatusOK {
			t.Fatalf("setup write %d: %+v ok=%v", i, rep, ok)
		}
	}
	return keys
}

// verifyExactPlacement checks that every key lives on exactly its ring
// chain's switches, that the served route matches the ring, and that no
// migration freeze was left behind.
func (f *fixture) verifyExactPlacement(t *testing.T, keys []kv.Key) {
	t.Helper()
	for i, k := range keys {
		ch := f.ring.ChainForKey(k)
		rt := f.ctl.Route(k)
		if len(rt.Hops) != len(ch.Hops) {
			t.Fatalf("key %d: route %v != ring chain %v", i, rt.Hops, ch.Hops)
		}
		for j := range ch.Hops {
			if rt.Hops[j] != ch.Hops[j] {
				t.Fatalf("key %d: route %v != ring chain %v", i, rt.Hops, ch.Hops)
			}
		}
		for _, sa := range f.tb.SwitchAddrs() {
			sw, ok := f.tb.Net.Switch(sa)
			if !ok {
				continue
			}
			if ch.Contains(sa) != sw.HasKey(k) {
				t.Fatalf("key %d on %v: inChain=%v hasKey=%v", i, sa, ch.Contains(sa), sw.HasKey(k))
			}
		}
	}
	for _, sa := range f.tb.SwitchAddrs() {
		sw, ok := f.tb.Net.Switch(sa)
		if !ok {
			continue
		}
		for g := 0; g < f.ring.Groups()+16; g++ {
			if sw.WriteFrozen(uint16(g)) {
				t.Fatalf("switch %v left frozen for group %d", sa, g)
			}
		}
	}
}

func TestAddSwitchLiveMigration(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 8)
	keys := f.loadKeys(t, 40)
	s3 := f.tb.Switches[3]

	migrated := 0
	f.ctl.OnGroupRecovered = func(ring.GroupID) { migrated++ }
	done := false
	diff, err := f.ctl.AddSwitch(s3, func() { done = true })
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Added) != 1 || diff.Added[0] != s3 {
		t.Fatalf("diff.Added = %v", diff.Added)
	}
	created := 0
	for _, d := range diff.Deltas {
		if d.Created() {
			created++
		}
	}
	if created != 8 {
		t.Fatalf("created groups = %d, want 8", created)
	}

	// Mid-migration route stability: before the engine runs, every key's
	// served route must still point at switches that hold its data, even
	// though the ring already moved.
	for i, k := range keys {
		rt := f.ctl.Route(k)
		if len(rt.Hops) == 0 {
			t.Fatalf("key %d: empty mid-migration route", i)
		}
		for _, h := range rt.Hops {
			sw, _ := f.tb.Net.Switch(h)
			if !sw.HasKey(k) {
				t.Fatalf("key %d mid-migration route %v hits %v without the key", i, rt.Hops, h)
			}
		}
	}

	f.sim.Run()
	if !done {
		t.Fatal("resize did not complete")
	}
	if migrated == 0 {
		t.Fatal("no groups migrated")
	}
	if f.ctl.Resizing() {
		t.Fatal("resizing flag stuck")
	}
	// Post-resize placement matches the ring (and therefore the diff)
	// exactly, with donors GC'd.
	f.verifyExactPlacement(t, keys)
	// Data survived and both reads and writes flow on the new layout.
	for i, k := range keys {
		rep, ok := f.read(t, 0, k)
		if !ok || rep.Status != kv.StatusOK || string(rep.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("post-resize read %d: %+v ok=%v", i, rep, ok)
		}
		if rep, ok := f.write(t, 0, k, fmt.Sprintf("w%d", i)); !ok || rep.Status != kv.StatusOK {
			t.Fatalf("post-resize write %d: %+v ok=%v", i, rep, ok)
		}
	}
	// The new switch really carries load.
	sw3, _ := f.tb.Net.Switch(s3)
	if sw3.ItemCount() == 0 {
		t.Fatal("added switch holds no items")
	}
}

func TestRemoveSwitchDrains(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 8)
	keys := f.loadKeys(t, 40)
	s1, s3 := f.tb.Switches[1], f.tb.Switches[3]

	if _, err := f.ctl.AddSwitch(s3, nil); err != nil {
		t.Fatal(err)
	}
	f.sim.Run()

	done := false
	diff, err := f.ctl.RemoveSwitch(s1, func() { done = true })
	if err != nil {
		t.Fatal(err)
	}
	retired := 0
	for _, d := range diff.Deltas {
		if d.Retired() {
			retired++
		}
	}
	if retired != 8 {
		t.Fatalf("retired groups = %d, want 8", retired)
	}
	f.sim.Run()
	if !done {
		t.Fatal("scale-in did not complete")
	}
	if f.ring.IsMember(s1) {
		t.Fatal("removed switch still a ring member")
	}
	f.verifyExactPlacement(t, keys)
	// Collecting the leavers' slots asks no switch to free a key it never
	// held: a resize on a healthy cluster fails no agent call.
	if n := f.ctl.AgentErrors(); n != 0 {
		t.Fatalf("%d agent calls failed across scale-out and scale-in", n)
	}
	// The drained switch holds nothing: it can be powered off.
	sw1, _ := f.tb.Net.Switch(s1)
	if n := sw1.ItemCount(); n != 0 {
		t.Fatalf("drained switch still holds %d items", n)
	}
	for i, k := range keys {
		for _, h := range f.ctl.Route(k).Hops {
			if h == s1 {
				t.Fatalf("key %d still routed through the removed switch", i)
			}
		}
		rep, ok := f.read(t, 0, k)
		if !ok || rep.Status != kv.StatusOK || string(rep.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("post-drain read %d: %+v ok=%v", i, rep, ok)
		}
		if rep, ok := f.write(t, 0, k, "after"); !ok || rep.Status != kv.StatusOK {
			t.Fatalf("post-drain write %d: %+v ok=%v", i, rep, ok)
		}
	}
}

func TestResizeSessionsDominateDonorVersions(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 8)
	keys := f.loadKeys(t, 20)
	s3 := f.tb.Switches[3]

	// Scale out: groups created for S3's virtual nodes absorb keys and get
	// their sessions bumped past the donors'.
	if _, err := f.ctl.AddSwitch(s3, nil); err != nil {
		t.Fatal(err)
	}
	f.sim.Run()

	// Rewrite everything so stored versions carry the new groups' bumped
	// sessions.
	for i, k := range keys {
		if rep, ok := f.write(t, 0, k, fmt.Sprintf("aged%d", i)); !ok || rep.Status != kv.StatusOK {
			t.Fatalf("aged write %d: %+v ok=%v", i, rep, ok)
		}
	}

	// Scale back in: the created groups retire and their keys merge into
	// successor groups whose own sessions lag the donors'.
	done := false
	if _, err := f.ctl.RemoveSwitch(s3, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	f.sim.Run()
	if !done {
		t.Fatal("scale-in did not complete")
	}
	// Every key must accept a fresh write AND the write must be visible —
	// if the receiving group's session lagged the donor's, replicas would
	// silently reject the new version and reads would return stale data.
	for i, k := range keys {
		if rep, ok := f.write(t, 0, k, fmt.Sprintf("new%d", i)); !ok || rep.Status != kv.StatusOK {
			t.Fatalf("post-merge write %d: %+v ok=%v", i, rep, ok)
		}
		rep, ok := f.read(t, 0, k)
		if !ok || string(rep.Value) != fmt.Sprintf("new%d", i) {
			t.Fatalf("post-merge read %d: got %q", i, rep.Value)
		}
	}
}

func TestResizeValidationAndExclusion(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 4)
	s1, s3 := f.tb.Switches[1], f.tb.Switches[3]

	if _, err := f.ctl.AddSwitch(s3, nil); err != nil {
		t.Fatal(err)
	}
	// A second resize while one is in flight is rejected.
	if _, err := f.ctl.RemoveSwitch(s1, nil); err == nil {
		t.Fatal("overlapping resize must be rejected")
	}
	f.sim.Run()
	// After completion the next resize is accepted again.
	if _, err := f.ctl.RemoveSwitch(s1, nil); err != nil {
		t.Fatal(err)
	}
	f.sim.Run()

	// Failed switches are not resize targets.
	s2 := f.tb.Switches[2]
	f.tb.Net.FailSwitch(s2)
	if err := f.ctl.HandleFailure(s2, nil); err != nil {
		t.Fatal(err)
	}
	f.sim.Run()
	if _, err := f.ctl.RemoveSwitch(s2, nil); err == nil {
		t.Fatal("removing a failed switch must point at Recover")
	}
	if _, err := f.ctl.AddSwitch(s2, nil); err == nil {
		t.Fatal("adding a failed switch must be rejected")
	}
}

func TestInsertRefusedMidMigration(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 8)
	keys := f.loadKeys(t, 20)
	s3 := f.tb.Switches[3]

	diff, err := f.ctl.AddSwitch(s3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// While migrations are pending, an insert whose ring group is affected
	// by the resize must be refused (a slot installed on the old chain
	// after the copy snapshot would be lost at the flip); a key in an
	// untouched group is admitted as usual.
	var hot, cold kv.Key
	foundHot, foundCold := false, false
	for i := uint64(100000); i < 200000 && (!foundHot || !foundCold); i++ {
		k := kv.KeyFromUint64(i)
		if _, touched := diff.Deltas[f.ring.GroupForKey(k)]; touched && !foundHot {
			hot, foundHot = k, true
		} else if !touched && !foundCold {
			cold, foundCold = k, true
		}
	}
	if !foundHot {
		t.Fatal("no key found in a migrating group")
	}
	if _, err := f.ctl.Insert(hot); err == nil {
		t.Fatal("insert into a migrating group must be refused")
	}
	if foundCold {
		if _, err := f.ctl.Insert(cold); err != nil {
			t.Fatalf("insert into an untouched group refused: %v", err)
		}
	}
	f.sim.Run()
	// After completion the refused insert flows again and lands on the
	// full new chain.
	rt, err := f.ctl.Insert(hot)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range rt.Hops {
		sw, _ := f.tb.Net.Switch(h)
		if !sw.HasKey(hot) {
			t.Fatalf("post-resize insert missing slot on %v", h)
		}
	}
	_ = keys
}

func TestGCDuringResizeStaysDeleted(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 8)
	keys := f.loadKeys(t, 40)
	s3 := f.tb.Switches[3]

	diff, err := f.ctl.AddSwitch(s3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a key whose ring placement moved to a group created by the
	// resize — the case where the migration would otherwise reinstall it.
	var victim kv.Key
	found := false
	for _, k := range keys {
		if d, ok := diff.Deltas[f.ring.GroupForKey(k)]; ok && d.Created() {
			victim, found = k, true
			break
		}
	}
	if !found {
		t.Fatal("no loaded key moved to a created group")
	}
	// The client deletes it while the migration is still pending.
	if err := f.ctl.GC(victim); err != nil {
		t.Fatal(err)
	}
	f.sim.Run()

	// The deletion must win over the move: no slot anywhere, not tracked.
	for _, sa := range f.tb.SwitchAddrs() {
		sw, ok := f.tb.Net.Switch(sa)
		if !ok {
			continue
		}
		if sw.HasKey(victim) {
			t.Fatalf("deleted key resurrected on %v by the resize", sa)
		}
	}
	if n := f.ctl.KeyCount(f.ring.GroupForKey(victim)); n != 0 {
		// Only the victim mapped to this created group in this seed; any
		// tracked key here is the resurrected victim.
		for _, k := range keys {
			if k != victim && f.ring.GroupForKey(k) == f.ring.GroupForKey(victim) {
				n-- // another key legitimately lives here
			}
		}
		if n > 0 {
			t.Fatal("deleted key still tracked by the controller")
		}
	}
}

func TestFailoverDuringResize(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 8)
	keys := f.loadKeys(t, 30)
	s1, s3 := f.tb.Switches[1], f.tb.Switches[3]

	done := false
	if _, err := f.ctl.AddSwitch(s3, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	// Fail S1 while the migrations are mid-flight: half the groups have
	// flipped, half have not.
	f.sim.After(5e6, func() { // 5 ms in
		f.tb.Net.FailSwitch(s1)
		if err := f.ctl.HandleFailure(s1, nil); err != nil {
			t.Fatalf("failover during resize: %v", err)
		}
	})
	f.sim.Run()
	if !done {
		t.Fatal("resize did not complete despite the failover")
	}
	// Even groups that flipped AFTER the failure must not have s1
	// re-installed into their serving chain: the engine filters failed
	// switches at flip time, preserving the failover's degradation.
	for g, rt := range f.ctl.Routes() {
		for _, h := range rt.Hops {
			if h == s1 {
				t.Fatalf("group %d serves through the failed switch after the resize", g)
			}
		}
	}
	// Reads must still work for every key through surviving replicas
	// (host 0 hangs off S0, reachable around S1 via the diamond).
	for i, k := range keys {
		rep, ok := f.read(t, 0, k)
		if !ok || rep.Status != kv.StatusOK {
			t.Fatalf("read %d after failover-during-resize: %+v ok=%v", i, rep, ok)
		}
	}
	// Recovery then restores full strength on the post-resize ring.
	if err := f.ctl.Recover(s1, []packet.Addr{s3}, nil); err != nil {
		t.Fatal(err)
	}
	f.sim.Run()
	for g, rt := range f.ctl.Routes() {
		for _, h := range rt.Hops {
			if h == s1 {
				t.Fatalf("group %d still routes through failed switch after recovery", g)
			}
		}
	}
}
