package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/swsim"
)

var (
	client = packet.AddrFrom4(10, 1, 0, 1)
	s0     = packet.AddrFrom4(10, 0, 0, 1)
	s1     = packet.AddrFrom4(10, 0, 0, 2)
	s2     = packet.AddrFrom4(10, 0, 0, 3)
)

func testSwitch(t *testing.T, addr packet.Addr) *Switch {
	t.Helper()
	sw, err := NewSwitch(addr, swsim.Config{Stages: 8, SlotBytes: 16, SlotsPerStage: 256, PPS: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// query builds a client frame addressed to first with remaining hops rest.
func query(op kv.Op, key kv.Key, val []byte, first packet.Addr, rest ...packet.Addr) *packet.Frame {
	nc := &packet.NetChain{Op: op, Key: key, QueryID: 99, Value: val}
	if err := nc.SetChain(rest); err != nil {
		panic(err)
	}
	return packet.NewQuery(client, first, 5000, nc)
}

func TestReadMissingKey(t *testing.T) {
	sw := testSwitch(t, s0)
	f := query(kv.OpRead, kv.KeyFromString("nope"), nil, s0)
	d, passes := sw.ProcessLocal(f)
	if d != Forward || passes != 1 {
		t.Fatalf("disposition=%v passes=%d", d, passes)
	}
	if f.NC.Op != kv.OpReply || f.NC.Status != kv.StatusNotFound {
		t.Fatalf("reply = %v", &f.NC)
	}
	if f.IP.Dst != client {
		t.Fatalf("reply dst = %v, want client", f.IP.Dst)
	}
}

func TestWriteThenReadSingleSwitchChain(t *testing.T) {
	sw := testSwitch(t, s0)
	key := kv.KeyFromString("cfg")
	if err := sw.InstallKey(key); err != nil {
		t.Fatal(err)
	}
	w := query(kv.OpWrite, key, []byte("v1"), s0) // no further hops: head==tail
	d, _ := sw.ProcessLocal(w)
	if d != Forward || w.NC.Op != kv.OpReply || w.NC.Status != kv.StatusOK {
		t.Fatalf("write reply = %v (disp %v)", &w.NC, d)
	}
	if w.NC.Seq != 1 || w.NC.Session != 0 {
		t.Fatalf("stamped version = %v", w.NC.Version())
	}
	r := query(kv.OpRead, key, nil, s0)
	sw.ProcessLocal(r)
	if r.NC.Status != kv.StatusOK || string(r.NC.Value) != "v1" {
		t.Fatalf("read reply = %v", &r.NC)
	}
	if r.NC.Version() != (kv.Version{Seq: 1}) {
		t.Fatalf("read version = %v", r.NC.Version())
	}
}

func TestWriteForwardsAlongChain(t *testing.T) {
	sw := testSwitch(t, s0)
	key := kv.KeyFromString("k")
	sw.InstallKey(key)
	w := query(kv.OpWrite, key, []byte("x"), s0, s1, s2)
	d, _ := sw.ProcessLocal(w)
	if d != Forward {
		t.Fatal("head write must forward")
	}
	if w.IP.Dst != s1 {
		t.Fatalf("dst = %v, want s1", w.IP.Dst)
	}
	if len(w.NC.Chain) != 1 || w.NC.Chain[0] != s2 {
		t.Fatalf("chain = %v, want [s2]", w.NC.Chain)
	}
	if w.NC.Op != kv.OpWrite || w.NC.Seq != 1 {
		t.Fatalf("forwarded header = %v", &w.NC)
	}
	if w.IP.Src != client {
		t.Fatal("source must stay the client for failover replies")
	}
}

func TestReplicaAppliesOnlyNewer(t *testing.T) {
	sw := testSwitch(t, s1)
	key := kv.KeyFromString("foo")
	sw.InstallKey(key)

	// Fig. 5 scenario: W2 (seq 2) overtakes W1 (seq 1).
	w2 := query(kv.OpWrite, key, []byte("C"), s1, s2)
	w2.NC.SetVersion(kv.Version{Seq: 2})
	if d, _ := sw.ProcessLocal(w2); d != Forward {
		t.Fatal("newer write must apply and forward")
	}
	w1 := query(kv.OpWrite, key, []byte("B"), s1, s2)
	w1.NC.SetVersion(kv.Version{Seq: 1})
	if d, _ := sw.ProcessLocal(w1); d != Drop {
		t.Fatal("stale write must be dropped")
	}
	r := query(kv.OpRead, key, nil, s1)
	sw.ProcessLocal(r)
	if string(r.NC.Value) != "C" {
		t.Fatalf("value = %q, want C", r.NC.Value)
	}
	st := sw.Stats()
	if st.WritesApply != 1 || st.WritesStale != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReplicaTailRepliesToClient(t *testing.T) {
	sw := testSwitch(t, s2)
	key := kv.KeyFromString("foo")
	sw.InstallKey(key)
	w := query(kv.OpWrite, key, []byte("z"), s2) // tail: no remaining hops
	w.NC.SetVersion(kv.Version{Seq: 5})
	d, _ := sw.ProcessLocal(w)
	if d != Forward || w.NC.Op != kv.OpReply || w.NC.Status != kv.StatusOK {
		t.Fatalf("tail write reply = %v", &w.NC)
	}
	if w.IP.Dst != client || w.UDP.DstPort != 5000 {
		t.Fatalf("reply addressing = %+v %+v", w.IP, w.UDP)
	}
}

func TestSessionDominatesInFlightWrites(t *testing.T) {
	// New head (session 1) stamps a write; an in-flight write from the dead
	// head (session 0, higher seq) must lose at the replica.
	replica := testSwitch(t, s2)
	key := kv.KeyFromString("foo")
	replica.InstallKey(key)

	newHead := query(kv.OpWrite, key, []byte("new"), s2)
	newHead.NC.SetVersion(kv.Version{Session: 1, Seq: 1})
	replica.ProcessLocal(newHead)

	old := query(kv.OpWrite, key, []byte("old"), s2)
	old.NC.SetVersion(kv.Version{Session: 0, Seq: 7})
	if d, _ := replica.ProcessLocal(old); d != Drop {
		t.Fatal("old-session write must be dropped")
	}
	r := query(kv.OpRead, key, nil, s2)
	replica.ProcessLocal(r)
	if string(r.NC.Value) != "new" {
		t.Fatalf("value = %q, want new", r.NC.Value)
	}
}

func TestHeadStampsInstalledSession(t *testing.T) {
	sw := testSwitch(t, s0)
	key := kv.KeyFromString("k")
	sw.InstallKey(key)
	sw.SetSession(7, 3)
	w := query(kv.OpWrite, key, []byte("x"), s0, s1)
	w.NC.Group = 7
	sw.ProcessLocal(w)
	if w.NC.Session != 3 || w.NC.Seq != 1 {
		t.Fatalf("stamped %v, want 3.1", w.NC.Version())
	}
	if sw.Session(7) != 3 {
		t.Fatal("Session accessor wrong")
	}
}

func casValue(expect uint64, newOwner uint64, payload string) []byte {
	v := binary.BigEndian.AppendUint64(nil, expect)
	v = binary.BigEndian.AppendUint64(v, newOwner)
	return append(v, payload...)
}

func TestCASAcquireAndRelease(t *testing.T) {
	sw := testSwitch(t, s0)
	lock := kv.KeyFromString("lock/a")
	sw.InstallKey(lock)

	// Acquire: expect 0 -> owner 42.
	acq := query(kv.OpCAS, lock, casValue(0, 42, ""), s0, s1)
	d, _ := sw.ProcessLocal(acq)
	if d != Forward || acq.NC.Op != kv.OpCAS {
		t.Fatalf("CAS must propagate as ordered op, got %v", &acq.NC)
	}
	if len(acq.NC.Value) != 8 || binary.BigEndian.Uint64(acq.NC.Value) != 42 {
		t.Fatalf("propagated value = %x, want bare new owner", acq.NC.Value)
	}
	if acq.NC.Seq != 1 {
		t.Fatal("CAS must be stamped like a write")
	}

	// Second acquire by 43 fails.
	steal := query(kv.OpCAS, lock, casValue(0, 43, ""), s0, s1)
	d, _ = sw.ProcessLocal(steal)
	if d != Forward || steal.NC.Status != kv.StatusCASFail || steal.NC.Op != kv.OpReply {
		t.Fatalf("steal = %v", &steal.NC)
	}

	// Release by wrong owner fails; by owner succeeds.
	badRel := query(kv.OpCAS, lock, casValue(43, 0, ""), s0, s1)
	sw.ProcessLocal(badRel)
	if badRel.NC.Status != kv.StatusCASFail {
		t.Fatal("release by non-owner must fail")
	}
	rel := query(kv.OpCAS, lock, casValue(42, 0, ""), s0, s1)
	sw.ProcessLocal(rel)
	if rel.NC.Op != kv.OpCAS || rel.NC.Seq != 2 {
		t.Fatalf("release = %v", &rel.NC)
	}
	if sw.Stats().CASFails != 2 {
		t.Fatalf("cas fails = %d, want 2", sw.Stats().CASFails)
	}
}

func TestCASMalformedValueFails(t *testing.T) {
	sw := testSwitch(t, s0)
	lock := kv.KeyFromString("lock/a")
	sw.InstallKey(lock)
	bad := query(kv.OpCAS, lock, []byte{1, 2}, s0)
	sw.ProcessLocal(bad)
	if bad.NC.Status != kv.StatusCASFail {
		t.Fatal("short CAS value must fail")
	}
}

func TestDeleteTombstones(t *testing.T) {
	sw := testSwitch(t, s0)
	key := kv.KeyFromString("k")
	sw.InstallKey(key)
	w := query(kv.OpWrite, key, []byte("x"), s0)
	sw.ProcessLocal(w)
	del := query(kv.OpDelete, key, nil, s0)
	d, _ := sw.ProcessLocal(del)
	if d != Forward || del.NC.Status != kv.StatusOK {
		t.Fatalf("delete reply = %v", &del.NC)
	}
	if del.NC.Seq != 2 {
		t.Fatal("delete must be version-stamped")
	}
	r := query(kv.OpRead, key, nil, s0)
	sw.ProcessLocal(r)
	if r.NC.Status != kv.StatusNotFound {
		t.Fatalf("read after delete = %v", r.NC.Status)
	}
}

func TestReplyAndUnknownOps(t *testing.T) {
	sw := testSwitch(t, s0)
	rep := query(kv.OpReply, kv.KeyFromString("k"), nil, s0)
	if d, _ := sw.ProcessLocal(rep); d != Drop {
		t.Fatal("stray reply must be dropped")
	}
	sync := query(kv.OpSync, kv.KeyFromString("k"), nil, s0)
	if d, _ := sw.ProcessLocal(sync); d != Forward || sync.NC.Status != kv.StatusBadRequest {
		t.Fatal("sync op in dataplane must bounce as bad request")
	}
}

func TestRecirculationPassAccounting(t *testing.T) {
	sw := testSwitch(t, s0) // 8 stages x 16B = 128B per pass
	key := kv.KeyFromString("big")
	sw.InstallKey(key)
	w := query(kv.OpWrite, key, make([]byte, 200), s0)
	_, passes := sw.ProcessLocal(w)
	if passes != 2 {
		t.Fatalf("passes = %d, want 2 (recirculated)", passes)
	}
}

// --- Failover rules -------------------------------------------------------

func TestFailoverNextHopMiddle(t *testing.T) {
	n := testSwitch(t, packet.AddrFrom4(10, 0, 0, 9))
	n.InstallRule(s1, WildcardGroup, Rule{Action: ActNextHop})
	// Write headed to failed S1 with remaining [S2].
	w := query(kv.OpWrite, kv.KeyFromString("k"), []byte("x"), s1, s2)
	w.NC.SetVersion(kv.Version{Seq: 4})
	if d := n.ApplyEgressRules(w); d != Forward {
		t.Fatal("must forward")
	}
	if w.IP.Dst != s2 || len(w.NC.Chain) != 0 {
		t.Fatalf("rewrite wrong: dst=%v chain=%v", w.IP.Dst, w.NC.Chain)
	}
}

func TestFailoverTailWriteRepliesOnBehalf(t *testing.T) {
	n := testSwitch(t, packet.AddrFrom4(10, 0, 0, 9))
	n.InstallRule(s2, WildcardGroup, Rule{Action: ActNextHop})
	w := query(kv.OpWrite, kv.KeyFromString("k"), []byte("x"), s2) // no hops left
	w.NC.SetVersion(kv.Version{Seq: 4})
	if d := n.ApplyEgressRules(w); d != Forward {
		t.Fatal("must forward reply")
	}
	if w.NC.Op != kv.OpReply || w.NC.Status != kv.StatusOK || w.IP.Dst != client {
		t.Fatalf("reply = %v to %v", &w.NC, w.IP.Dst)
	}
}

func TestFailoverReadRedirectsToPredecessor(t *testing.T) {
	n := testSwitch(t, packet.AddrFrom4(10, 0, 0, 9))
	n.InstallRule(s2, WildcardGroup, Rule{Action: ActNextHop})
	r := query(kv.OpRead, kv.KeyFromString("k"), nil, s2, s1, s0) // reverse list
	if d := n.ApplyEgressRules(r); d != Forward {
		t.Fatal("must forward")
	}
	if r.IP.Dst != s1 {
		t.Fatalf("read redirected to %v, want s1", r.IP.Dst)
	}
}

func TestFailoverReadAllReplicasDead(t *testing.T) {
	n := testSwitch(t, packet.AddrFrom4(10, 0, 0, 9))
	n.InstallRule(s2, WildcardGroup, Rule{Action: ActNextHop})
	r := query(kv.OpRead, kv.KeyFromString("k"), nil, s2) // nothing left
	n.ApplyEgressRules(r)
	if r.NC.Status != kv.StatusUnavailable || r.NC.Op != kv.OpReply {
		t.Fatalf("reply = %v", &r.NC)
	}
}

func TestRuleGroupPriorityAndDropRedirect(t *testing.T) {
	n := testSwitch(t, packet.AddrFrom4(10, 0, 0, 9))
	n.InstallRule(s1, WildcardGroup, Rule{Action: ActNextHop})
	n.InstallRule(s1, 5, Rule{Action: ActDrop})

	inGroup := query(kv.OpWrite, kv.KeyFromString("k"), nil, s1, s2)
	inGroup.NC.Group = 5
	if d := n.ApplyEgressRules(inGroup); d != Drop {
		t.Fatal("group rule must take priority (drop)")
	}
	other := query(kv.OpWrite, kv.KeyFromString("k"), nil, s1, s2)
	other.NC.Group = 6
	if d := n.ApplyEgressRules(other); d != Forward || other.IP.Dst != s2 {
		t.Fatal("wildcard rule must still apply to other groups")
	}

	n.InstallRule(s1, 5, Rule{Action: ActRedirect, To: s0})
	redir := query(kv.OpWrite, kv.KeyFromString("k"), nil, s1, s2)
	redir.NC.Group = 5
	if d := n.ApplyEgressRules(redir); d != Forward || redir.IP.Dst != s0 {
		t.Fatalf("redirect wrong: %v", redir.IP.Dst)
	}
	if len(redir.NC.Chain) != 1 {
		t.Fatal("redirect must not consume the chain list")
	}

	n.RemoveRule(s1, 5)
	n.RemoveRule(s1, WildcardGroup)
	clean := query(kv.OpWrite, kv.KeyFromString("k"), nil, s1, s2)
	if d := n.ApplyEgressRules(clean); d != Forward || clean.IP.Dst != s1 {
		t.Fatal("removed rules must stop matching")
	}
	if len(n.Rules()) != 0 {
		t.Fatal("rule table must be empty")
	}
}

func TestRulesIgnoreNonNetChainTraffic(t *testing.T) {
	n := testSwitch(t, packet.AddrFrom4(10, 0, 0, 9))
	n.InstallRule(s1, WildcardGroup, Rule{Action: ActDrop})
	f := query(kv.OpWrite, kv.KeyFromString("k"), nil, s1, s2)
	f.UDP.DstPort = 53
	if d := n.ApplyEgressRules(f); d != Forward {
		t.Fatal("non-NetChain traffic must pass")
	}
}

// --- Control-plane state sync ---------------------------------------------

func TestReadWriteItemSync(t *testing.T) {
	a := testSwitch(t, s0)
	b := testSwitch(t, s1)
	key := kv.KeyFromString("k")
	a.InstallKey(key)
	w := query(kv.OpWrite, key, []byte("v3"), s0)
	a.ProcessLocal(w)

	it, err := a.ReadItem(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WriteItem(it); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadItem(key)
	if err != nil || !bytes.Equal(got.Value, []byte("v3")) || got.Version != it.Version {
		t.Fatalf("synced item = %+v, %v", got, err)
	}

	// Sync must never regress a newer stored version.
	newer := query(kv.OpWrite, key, []byte("v4"), s1)
	newer.NC.SetVersion(kv.Version{Seq: 9})
	b.ProcessLocal(newer)
	if err := b.WriteItem(it); err != nil {
		t.Fatal(err)
	}
	got, _ = b.ReadItem(key)
	if string(got.Value) != "v4" || got.Version.Seq != 9 {
		t.Fatalf("sync regressed state: %+v", got)
	}

	if _, err := a.ReadItem(kv.KeyFromString("missing")); err != kv.ErrNotFound {
		t.Fatalf("ReadItem missing = %v", err)
	}
}

func TestWriteItemTombstone(t *testing.T) {
	b := testSwitch(t, s1)
	it := Item{Key: kv.KeyFromString("gone"), Version: kv.Version{Seq: 3}, Tombstone: true}
	if err := b.WriteItem(it); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadItem(it.Key)
	if err != nil || !got.Tombstone {
		t.Fatalf("tombstone sync failed: %+v %v", got, err)
	}
}

func TestInstallRemoveKey(t *testing.T) {
	sw := testSwitch(t, s0)
	k := kv.KeyFromString("k")
	if sw.HasKey(k) {
		t.Fatal("key should not exist yet")
	}
	if err := sw.InstallKey(k); err != nil {
		t.Fatal(err)
	}
	if err := sw.InstallKey(k); err == nil {
		t.Fatal("double install must fail")
	}
	if !sw.HasKey(k) || sw.ItemCount() != 1 {
		t.Fatal("install accounting wrong")
	}
	if err := sw.RemoveKey(k); err != nil {
		t.Fatal(err)
	}
	if err := sw.RemoveKey(k); err != kv.ErrNotFound {
		t.Fatal("double remove must report not found")
	}
}

// --- Invariant 1 under loss and reordering --------------------------------

// TestInvariantUnderLossyReorderedChain drives random writes through a
// 3-switch chain whose inter-hop links drop, duplicate and reorder
// packets, then checks Invariant 1: seq(head) >= seq(replica) >= seq(tail)
// for every key, and that each switch's value matches the version it
// stores.
func TestInvariantUnderLossyReorderedChain(t *testing.T) {
	head, mid, tail := testSwitch(t, s0), testSwitch(t, s1), testSwitch(t, s2)
	keys := []kv.Key{kv.KeyFromString("a"), kv.KeyFromString("b"), kv.KeyFromString("c")}
	for _, k := range keys {
		head.InstallKey(k)
		mid.InstallKey(k)
		tail.InstallKey(k)
	}
	rng := rand.New(rand.NewSource(11))
	valueFor := func(v kv.Version, k kv.Key) []byte {
		return binary.BigEndian.AppendUint64(k[:4:4], v.Seq)
	}

	var toMid, toTail []*packet.Frame
	deliver := func(q []*packet.Frame, sw *Switch, out *[]*packet.Frame) []*packet.Frame {
		if len(q) == 0 {
			return q
		}
		i := rng.Intn(len(q)) // reorder: deliver a random queued frame
		f := q[i]
		q = append(q[:i], q[i+1:]...)
		switch rng.Intn(10) {
		case 0: // drop
			return q
		case 1: // duplicate
			q = append(q, f.Clone())
		}
		if d, _ := sw.ProcessLocal(f); d == Forward && f.NC.Op != kv.OpReply && out != nil {
			*out = append(*out, f)
		}
		return q
	}

	for step := 0; step < 3000; step++ {
		switch rng.Intn(3) {
		case 0:
			k := keys[rng.Intn(len(keys))]
			w := query(kv.OpWrite, k, nil, s0, s1, s2)
			if d, _ := head.ProcessLocal(w); d == Forward {
				// Head stamped it; rewrite payload to encode the version so
				// we can check value/version agreement at every replica.
				w.NC.Value = valueFor(w.NC.Version(), k)
				head.WriteItem(Item{Key: k, Value: w.NC.Value, Version: w.NC.Version()})
				toMid = append(toMid, w)
			}
		case 1:
			toMid = deliver(toMid, mid, &toTail)
		case 2:
			toTail = deliver(toTail, tail, nil)
		}
	}
	// Drain.
	for len(toMid) > 0 || len(toTail) > 0 {
		toMid = deliver(toMid, mid, &toTail)
		toTail = deliver(toTail, tail, nil)
	}

	for _, k := range keys {
		h, _ := head.ReadItem(k)
		m, _ := mid.ReadItem(k)
		ta, _ := tail.ReadItem(k)
		if h.Version.Less(m.Version) || m.Version.Less(ta.Version) {
			t.Fatalf("Invariant 1 violated for %v: head=%v mid=%v tail=%v",
				k, h.Version, m.Version, ta.Version)
		}
		for _, it := range []Item{m, ta} {
			if it.Version.IsZero() {
				continue
			}
			want := valueFor(it.Version, k)
			if !bytes.Equal(it.Value, want) {
				t.Fatalf("value/version mismatch at %v: %x vs %x", k, it.Value, want)
			}
		}
	}
}

// The two ProcessLocal benchmarks time the dataplane alone: the frame is
// built once and re-armed per iteration (as benchmark/layers.go does), so
// frame construction and its allocations stay out of the loop.
func BenchmarkProcessLocalRead(b *testing.B) {
	sw, _ := NewSwitch(s0, swsim.Tofino())
	key := kv.KeyFromString("k")
	sw.InstallKey(key)
	sw.ProcessLocal(query(kv.OpWrite, key, make([]byte, 64), s0))
	f := &packet.Frame{}
	nc := &packet.NetChain{Op: kv.OpRead, Key: key, QueryID: 99}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packet.NewQueryInto(f, client, s0, 5000, nc)
		sw.ProcessLocal(f)
	}
}

func BenchmarkProcessLocalWriteChain(b *testing.B) {
	sw, _ := NewSwitch(s0, swsim.Tofino())
	key := kv.KeyFromString("k")
	sw.InstallKey(key)
	f := &packet.Frame{}
	nc := &packet.NetChain{Op: kv.OpWrite, Key: key, Value: make([]byte, 64)}
	if err := nc.SetChain([]packet.Addr{s1, s2}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nc.QueryID++ // a repeated id would replay the pinned verdict, not stamp
		packet.NewQueryInto(f, client, s0, 5000, nc)
		sw.ProcessLocal(f)
	}
}

// qquery is query with an explicit query id (duplicate-guard tests need
// distinct ids; the shared helper pins 99).
func qquery(qid uint64, op kv.Op, key kv.Key, val []byte, first packet.Addr, rest ...packet.Addr) *packet.Frame {
	nc := &packet.NetChain{Op: op, Key: key, QueryID: qid, Value: val}
	if err := nc.SetChain(rest); err != nil {
		panic(err)
	}
	return packet.NewQuery(client, first, 5000, nc)
}

// TestDuplicateWriteGuard pins the head's idempotence under network
// duplication: a re-delivered fresh write must never be re-stamped as a
// new version — neither while it is still the latest write (replay), nor
// after later writes superseded it (repair-forward of current state).
// Without the guard a superseded duplicate resurrects an overwritten
// value, which the chaos suite catches as a lost update.
func TestDuplicateWriteGuard(t *testing.T) {
	sw := testSwitch(t, s0)
	key := kv.KeyFromString("k")
	sw.InstallKey(key)

	// Single-hop chain: s0 is head and tail.
	w1 := qquery(1, kv.OpWrite, key, []byte("v1"), s0)
	sw.ProcessLocal(w1)
	if w1.NC.Status != kv.StatusOK || w1.NC.Seq != 1 {
		t.Fatalf("w1 = %v", &w1.NC)
	}

	// Duplicate while still latest: replayed, version unchanged.
	dup1 := qquery(1, kv.OpWrite, key, []byte("v1"), s0)
	sw.ProcessLocal(dup1)
	if dup1.NC.Status != kv.StatusOK {
		t.Fatalf("replayed duplicate must ack OK, got %v", &dup1.NC)
	}
	if it, _ := sw.ReadItem(key); it.Version.Seq != 1 || string(it.Value) != "v1" {
		t.Fatalf("replay moved state: %+v", it)
	}

	// Supersede, then duplicate again: acked, state untouched.
	w2 := qquery(2, kv.OpWrite, key, []byte("v2"), s0)
	sw.ProcessLocal(w2)
	dup2 := qquery(1, kv.OpWrite, key, []byte("v1"), s0)
	sw.ProcessLocal(dup2)
	if dup2.NC.Status != kv.StatusOK {
		t.Fatalf("superseded duplicate must ack OK, got %v", &dup2.NC)
	}
	if it, _ := sw.ReadItem(key); it.Version.Seq != 2 || string(it.Value) != "v2" {
		t.Fatalf("superseded duplicate resurrected state: %+v", it)
	}
	if got := sw.Stats().WritesReplayed; got != 2 {
		t.Fatalf("WritesReplayed = %d, want 2", got)
	}

	// With downstream hops the superseded duplicate repair-forwards the
	// CURRENT state so the tail acks against up-to-date data.
	dup3 := qquery(1, kv.OpWrite, key, []byte("v1"), s0, s1)
	d, _ := sw.ProcessLocal(dup3)
	if d != Forward || dup3.IP.Dst != s1 {
		t.Fatalf("repair must forward to next hop, got %v dst=%v", d, dup3.IP.Dst)
	}
	if string(dup3.NC.Value) != "v2" || dup3.NC.Seq != 2 {
		t.Fatalf("repair must carry current state, got %v", &dup3.NC)
	}

	// A duplicate of a write that a delete superseded repairs as delete.
	del := qquery(3, kv.OpDelete, key, nil, s0)
	sw.ProcessLocal(del)
	dup4 := qquery(2, kv.OpWrite, key, []byte("v2"), s0, s1)
	sw.ProcessLocal(dup4)
	if dup4.NC.Op != kv.OpDelete || dup4.IP.Dst != s1 {
		t.Fatalf("tombstone repair = %v", &dup4.NC)
	}

	// Same id but different bytes is NOT a duplicate: it is stamped fresh.
	fresh := qquery(3, kv.OpWrite, key, []byte("other"), s0)
	sw.ProcessLocal(fresh)
	if fresh.NC.Status != kv.StatusOK || fresh.NC.Seq != 4 {
		t.Fatalf("qid reuse with new bytes must stamp fresh, got %v", &fresh.NC)
	}
}

// TestFailedCASDoesNotEvictAppliedTags pins the duplicate ring's
// per-class eviction: a burst of failed lock acquires (no-effect
// verdicts) must not push an applied write's tag out of the window. If it
// did, a delayed duplicate of an old acquire would be re-adjudicated
// against the now-free lock and grant it to a client that long since
// moved on — a ghost acquisition outside the operation's window.
func TestFailedCASDoesNotEvictAppliedTags(t *testing.T) {
	sw := testSwitch(t, s0)
	lock := kv.KeyFromString("lock/a")
	sw.InstallKey(lock)

	// Client acquires (owner 42), then releases.
	acq := qquery(1, kv.OpCAS, lock, casValue(0, 42, ""), s0)
	sw.ProcessLocal(acq)
	rel := qquery(2, kv.OpCAS, lock, casValue(42, 0, ""), s0)
	sw.ProcessLocal(rel)
	if rel.NC.Status != kv.StatusOK {
		t.Fatalf("release = %v", &rel.NC)
	}

	// writeTagDepth distinct failed acquires (wrong expect) pile up.
	for i := 0; i < writeTagDepth; i++ {
		bad := qquery(uint64(10+i), kv.OpCAS, lock, casValue(7, 43, ""), s0)
		sw.ProcessLocal(bad)
		if bad.NC.Status != kv.StatusCASFail {
			t.Fatalf("acquire with wrong expect must fail, got %v", &bad.NC)
		}
	}

	// A delayed duplicate of the original acquire arrives. Its applied
	// tag must still be in the ring: the verdict is repeated (ack OK, it
	// DID apply back then) and the lock must NOT be re-granted.
	dup := qquery(1, kv.OpCAS, lock, casValue(0, 42, ""), s0)
	sw.ProcessLocal(dup)
	if dup.NC.Status != kv.StatusOK {
		t.Fatalf("duplicate of applied acquire = %v", &dup.NC)
	}
	it, err := sw.ReadItem(lock)
	if err != nil {
		t.Fatal(err)
	}
	if owner := binary.BigEndian.Uint64(it.Value[:8]); owner != 0 {
		t.Fatalf("ghost grant: lock owner = %d after duplicate, want 0", owner)
	}
	if it.Version.Seq != 2 {
		t.Fatalf("duplicate re-stamped: version %v, want seq 2", it.Version)
	}
}
