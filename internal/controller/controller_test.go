package controller

import (
	"fmt"
	"testing"
	"time"

	"netchain/internal/core"
	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/netsim"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/ring"
)

// fixture wires the Fig. 8 testbed, a ring over S0..S2 (S3 spare), and a
// controller under simulated time.
type fixture struct {
	sim  *event.Sim
	tb   *netsim.Fabric
	ring *ring.Ring
	ctl  *Controller

	replies map[uint64]query.Reply
	nextQID uint64

	// wrap, when set, interposes on every agent the controller resolves
	// (stub agents that fail or observe one call).
	wrap func(packet.Addr, Agent) Agent
}

func newFixture(t *testing.T, cfg Config, vnodes int) *fixture {
	t.Helper()
	sim := event.New()
	tb, err := netsim.NewFabric(sim, netsim.PaperProfile(1), 1, netsim.TopoSpec{Kind: "ring"}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ring.New(ring.Config{VNodesPerSwitch: vnodes, Replicas: 3, Seed: 5},
		[]packet.Addr{tb.Switches[0], tb.Switches[1], tb.Switches[2]})
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{sim: sim, tb: tb, ring: r, replies: map[uint64]query.Reply{}}
	agent := func(a packet.Addr) (Agent, bool) {
		sw, ok := tb.Net.Switch(a)
		if !ok {
			return nil, false
		}
		if f.wrap != nil {
			return f.wrap(a, LocalAgent{Switch: sw}), true
		}
		return LocalAgent{Switch: sw}, true
	}
	f.ctl, err = New(cfg, r, sim.Clock(), agent, tb.Net.SwitchNeighbors)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range tb.Hosts {
		h := h
		tb.Net.HostRecv(h, func(fr *packet.Frame) {
			rep, err := query.ParseReply(fr)
			if err == nil {
				f.replies[rep.QueryID] = rep
			}
		})
	}
	return f
}

func (f *fixture) ep(host int) query.Endpoint {
	return query.Endpoint{Addr: f.tb.Hosts[host], Port: 4000}
}

// do issues one query and runs the sim to quiescence, returning the reply.
func (f *fixture) do(t *testing.T, host int, build func(ep query.Endpoint, qid uint64) (*packet.Frame, error)) (query.Reply, bool) {
	t.Helper()
	f.nextQID++
	qid := f.nextQID
	fr, err := build(f.ep(host), qid)
	if err != nil {
		t.Fatal(err)
	}
	f.tb.Net.Inject(f.tb.Hosts[host], fr)
	f.sim.Run()
	rep, ok := f.replies[qid]
	return rep, ok
}

func (f *fixture) write(t *testing.T, host int, k kv.Key, v string) (query.Reply, bool) {
	rt := f.ctl.Route(k)
	return f.do(t, host, func(ep query.Endpoint, qid uint64) (*packet.Frame, error) {
		return query.NewWrite(ep, qid, query.Route{Group: rt.Group, Hops: rt.Hops}, k, kv.Value(v))
	})
}

func (f *fixture) writeVia(t *testing.T, host int, rt Route, k kv.Key, v string) (query.Reply, bool) {
	return f.do(t, host, func(ep query.Endpoint, qid uint64) (*packet.Frame, error) {
		return query.NewWrite(ep, qid, query.Route{Group: rt.Group, Hops: rt.Hops}, k, kv.Value(v))
	})
}

func (f *fixture) read(t *testing.T, host int, k kv.Key) (query.Reply, bool) {
	rt := f.ctl.Route(k)
	return f.do(t, host, func(ep query.Endpoint, qid uint64) (*packet.Frame, error) {
		return query.NewRead(ep, qid, query.Route{Group: rt.Group, Hops: rt.Hops}, k)
	})
}

func TestInsertWriteRead(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 4)
	k := kv.KeyFromString("cfg/x")
	rt, err := f.ctl.Insert(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Hops) != 3 {
		t.Fatalf("route = %v", rt)
	}
	for _, hop := range rt.Hops {
		sw, _ := f.tb.Net.Switch(hop)
		if !sw.HasKey(k) {
			t.Fatalf("key not installed on %v", hop)
		}
	}
	if rep, ok := f.write(t, 0, k, "v1"); !ok || rep.Status != kv.StatusOK {
		t.Fatalf("write reply: %+v ok=%v", rep, ok)
	}
	rep, ok := f.read(t, 0, k)
	if !ok || rep.Status != kv.StatusOK || string(rep.Value) != "v1" {
		t.Fatalf("read reply: %+v ok=%v", rep, ok)
	}
}

func TestInsertDuplicateFailsCleanly(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 4)
	k := kv.KeyFromString("dup")
	if _, err := f.ctl.Insert(k); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ctl.Insert(k); err == nil {
		t.Fatal("duplicate insert must fail")
	}
}

func TestGCRemovesSlots(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 4)
	k := kv.KeyFromString("gone")
	rt, _ := f.ctl.Insert(k)
	g := f.ring.GroupForKey(k)
	if f.ctl.KeyCount(g) != 1 {
		t.Fatal("key not tracked")
	}
	if err := f.ctl.GC(k); err != nil {
		t.Fatal(err)
	}
	if f.ctl.KeyCount(g) != 0 {
		t.Fatal("key still tracked after GC")
	}
	for _, hop := range rt.Hops {
		sw, _ := f.tb.Net.Switch(hop)
		if sw.HasKey(k) {
			t.Fatalf("slot still installed on %v", hop)
		}
	}
}

// keyInChainHeadedBy finds a key whose chain is exactly the given order.
func (f *fixture) keyWithChain(t *testing.T, want [3]int) kv.Key {
	t.Helper()
	addrs := [3]packet.Addr{
		f.tb.Switches[want[0]], f.tb.Switches[want[1]], f.tb.Switches[want[2]],
	}
	for i := 0; i < 100000; i++ {
		k := kv.KeyFromUint64(uint64(i))
		ch := f.ring.ChainForKey(k)
		if len(ch.Hops) == 3 && ch.Hops[0] == addrs[0] && ch.Hops[1] == addrs[1] && ch.Hops[2] == addrs[2] {
			return k
		}
	}
	t.Fatalf("no key found with chain %v", want)
	return kv.Key{}
}

func TestFailoverMiddleNode(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 8)
	k := f.keyWithChain(t, [3]int{0, 1, 2}) // S0 head, S1 middle, S2 tail
	rtBefore, err := f.ctl.Insert(k)
	if err != nil {
		t.Fatal(err)
	}
	if rep, ok := f.write(t, 0, k, "before"); !ok || rep.Status != kv.StatusOK {
		t.Fatalf("pre-failure write: %+v", rep)
	}

	s1 := f.tb.Switches[1]
	f.tb.Net.FailSwitch(s1)
	if err := f.ctl.HandleFailure(s1, nil); err != nil {
		t.Fatal(err)
	}
	f.sim.Run() // let rules install

	// Degraded route excludes S1.
	rt := f.ctl.Route(k)
	if len(rt.Hops) != 2 {
		t.Fatalf("degraded route = %v", rt.Hops)
	}

	// A stale client still using the OLD route must succeed via the
	// neighbor rules.
	if rep, ok := f.writeVia(t, 0, rtBefore, k, "during"); !ok || rep.Status != kv.StatusOK {
		t.Fatalf("stale-route write after failover: %+v ok=%v", rep, ok)
	}
	if rep, ok := f.read(t, 0, k); !ok || string(rep.Value) != "during" {
		t.Fatalf("read after failover: %+v", rep)
	}
	// Double failover of the same switch is rejected.
	if err := f.ctl.HandleFailure(s1, nil); err == nil {
		t.Fatal("second HandleFailure must fail")
	}
}

func TestFailoverHeadBumpsSession(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 8)
	k := f.keyWithChain(t, [3]int{1, 0, 2}) // S1 is head
	f.ctl.Insert(k)
	g := f.ring.GroupForKey(k)

	s1 := f.tb.Switches[1]
	f.tb.Net.FailSwitch(s1)
	f.ctl.HandleFailure(s1, nil)
	f.sim.Run()

	if f.ctl.Session(g) != 1 {
		t.Fatalf("session = %d, want 1", f.ctl.Session(g))
	}
	// New head (S0) must stamp the bumped session.
	newHead, _ := f.tb.Net.Switch(f.tb.Switches[0])
	if newHead.Session(uint16(g)) != 1 {
		t.Fatal("new head did not receive the session bump")
	}
	// Writes through the stale route get stamped with session 1.
	rt := Route{Group: uint16(g), Hops: []packet.Addr{s1, f.tb.Switches[0], f.tb.Switches[2]}}
	rep, ok := f.writeVia(t, 2, rt, k, "x")
	if !ok || rep.Status != kv.StatusOK {
		t.Fatalf("write via failed head: %+v ok=%v", rep, ok)
	}
	if rep.Version.Session != 1 {
		t.Fatalf("reply version = %v, want session 1", rep.Version)
	}
}

// TestPromotedHeadHoldsSessionBeforeRouteNamesIt: the instant HandleFailure
// returns, clients can resolve the degraded route, so the promoted head must
// already stamp with the bumped session — not one rule delay later.
func TestPromotedHeadHoldsSessionBeforeRouteNamesIt(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 8)
	k := f.keyWithChain(t, [3]int{1, 0, 2}) // S1 is head
	f.ctl.Insert(k)
	g := f.ring.GroupForKey(k)
	s0, s1 := f.tb.Switches[0], f.tb.Switches[1]
	f.tb.Net.FailSwitch(s1)
	f.ctl.HandleFailure(s1, nil)
	// No simulated time has passed: the neighbor rules are still pending.
	if rt := f.ctl.Route(k); rt.Hops[0] != s0 {
		t.Fatalf("degraded route = %v, want head %v", rt.Hops, s0)
	}
	newHead, _ := f.tb.Net.Switch(s0)
	if got, want := newHead.Session(uint16(g)), f.ctl.Session(g); got != want || want != 1 {
		t.Fatalf("route names a head stamping session %d while the group is at %d", got, want)
	}
}

func TestRecoveryRestoresChainAndData(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 8)
	// Insert a handful of keys across all groups.
	keys := make([]kv.Key, 40)
	for i := range keys {
		keys[i] = kv.KeyFromUint64(uint64(1000 + i))
		if _, err := f.ctl.Insert(keys[i]); err != nil {
			t.Fatal(err)
		}
		if rep, ok := f.write(t, 0, keys[i], fmt.Sprintf("v%d", i)); !ok || rep.Status != kv.StatusOK {
			t.Fatalf("setup write %d: %+v", i, rep)
		}
	}

	s1, s3 := f.tb.Switches[1], f.tb.Switches[3]
	f.tb.Net.FailSwitch(s1)
	f.ctl.HandleFailure(s1, nil)
	f.sim.Run()

	recovered := 0
	f.ctl.OnGroupRecovered = func(ring.GroupID) { recovered++ }
	doneAt := event.Time(-1)
	if err := f.ctl.Recover(s1, []packet.Addr{s3}, func() { doneAt = f.sim.Now() }); err != nil {
		t.Fatal(err)
	}
	f.sim.Run()

	if doneAt < 0 {
		t.Fatal("recovery did not complete")
	}
	affected := 0
	for g, ch := range f.ctl.Routes() {
		if len(ch.Hops) != 3 {
			t.Fatalf("group %d not restored: %v", g, ch.Hops)
		}
		for _, h := range ch.Hops {
			if h == s1 {
				t.Fatalf("group %d still routed to failed switch", g)
			}
		}
		for _, h := range ch.Hops {
			if h == s3 {
				affected++
				break
			}
		}
	}
	if recovered == 0 || affected != recovered {
		t.Fatalf("recovered groups = %d, chains w/ S3 = %d", recovered, affected)
	}

	// Data must be intact through the new chains.
	for i, k := range keys {
		rep, ok := f.read(t, 0, k)
		if !ok || rep.Status != kv.StatusOK || string(rep.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("post-recovery read %d: %+v ok=%v", i, rep, ok)
		}
	}
	// S3 holds synced state for chains it joined.
	sw3, _ := f.tb.Net.Switch(s3)
	if sw3.ItemCount() == 0 {
		t.Fatal("replacement switch holds no items")
	}
	// Writes keep flowing and versions stay monotonic.
	for i, k := range keys {
		rep, ok := f.write(t, 0, k, fmt.Sprintf("w%d", i))
		if !ok || rep.Status != kv.StatusOK {
			t.Fatalf("post-recovery write %d: %+v", i, rep)
		}
	}
}

func TestRecoverBeforeFailoverRejected(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 4)
	if err := f.ctl.Recover(f.tb.Switches[1], []packet.Addr{f.tb.Switches[3]}, nil); err == nil {
		t.Fatal("recover without failover must be rejected")
	}
}

func TestRecoveryWithPreSync(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PreSync = true
	cfg.SyncPerItem = time.Millisecond
	f := newFixture(t, cfg, 4)
	k := kv.KeyFromString("presync")
	f.ctl.Insert(k)
	f.write(t, 0, k, "v")

	s1, s3 := f.tb.Switches[1], f.tb.Switches[3]
	f.tb.Net.FailSwitch(s1)
	f.ctl.HandleFailure(s1, nil)
	f.sim.Run()
	done := false
	f.ctl.Recover(s1, []packet.Addr{s3}, func() { done = true })
	f.sim.Run()
	if !done {
		t.Fatal("pre-sync recovery did not finish")
	}
	if rep, ok := f.read(t, 0, k); !ok || string(rep.Value) != "v" {
		t.Fatalf("read after pre-sync recovery: %+v", rep)
	}
}

func TestTailFailureReadsFailOverToPredecessor(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 8)
	k := f.keyWithChain(t, [3]int{0, 1, 2}) // S2 tail
	rtBefore, _ := f.ctl.Insert(k)
	f.write(t, 0, k, "tailv")

	s2 := f.tb.Switches[2]
	f.tb.Net.FailSwitch(s2)
	f.ctl.HandleFailure(s2, nil)
	f.sim.Run()

	// Stale-route read (addressed to dead tail) must be redirected to S1.
	rep, ok := f.do(t, 0, func(ep query.Endpoint, qid uint64) (*packet.Frame, error) {
		return query.NewRead(ep, qid, query.Route{Group: rtBefore.Group, Hops: rtBefore.Hops}, k)
	})
	if !ok || rep.Status != kv.StatusOK || string(rep.Value) != "tailv" {
		t.Fatalf("stale read after tail failure: %+v ok=%v", rep, ok)
	}
	// Stale-route write must be completed on the chain's behalf.
	rep, ok = f.writeVia(t, 0, rtBefore, k, "tailv2")
	if !ok || rep.Status != kv.StatusOK {
		t.Fatalf("stale write after tail failure: %+v ok=%v", rep, ok)
	}
	if rep2, _ := f.read(t, 0, k); string(rep2.Value) != "tailv2" {
		t.Fatalf("read after stale write: %+v", rep2)
	}
}

func TestSessionMonotonicAcrossFailoverAndRecovery(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 8)
	k := f.keyWithChain(t, [3]int{1, 0, 2})
	f.ctl.Insert(k)
	g := f.ring.GroupForKey(k)

	s1, s3 := f.tb.Switches[1], f.tb.Switches[3]
	f.tb.Net.FailSwitch(s1)
	f.ctl.HandleFailure(s1, nil) // head change: session 1
	f.sim.Run()
	f.ctl.Recover(s1, []packet.Addr{s3}, nil)
	f.sim.Run()

	// S3 takes S1's head position: second head change, session 2.
	if got := f.ctl.Session(g); got != 2 {
		t.Fatalf("session = %d, want 2", got)
	}
	sw3, _ := f.tb.Net.Switch(s3)
	if sw3.Session(uint16(g)) != 2 {
		t.Fatal("recovered head lacks bumped session")
	}
}

// TestRecoveryDrainsInFlightWrite holds a write the degraded head already
// stamped on the link to the tail while recovery freezes the group, and
// delivers it 2.5 rule delays after the stop window would have closed. The
// replacement copies from the tail, so without the drain barrier it would
// be synced one version short of a write the old chain goes on to
// acknowledge.
func TestRecoveryDrainsInFlightWrite(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SyncPerItem = 0 // the stop window is exactly one rule delay
	f := newFixture(t, cfg, 8)
	k := f.keyWithChain(t, [3]int{0, 1, 2}) // S2 is the tail that fails
	if _, err := f.ctl.Insert(k); err != nil {
		t.Fatal(err)
	}
	g := uint16(f.ring.GroupForKey(k))
	if rep, ok := f.write(t, 0, k, "v1"); !ok || rep.Status != kv.StatusOK {
		t.Fatalf("setup write: %+v ok=%v", rep, ok)
	}
	s2, s3 := f.tb.Switches[2], f.tb.Switches[3]
	f.tb.Net.FailSwitch(s2)
	f.ctl.HandleFailure(s2, nil)
	f.sim.Run()

	rt := f.ctl.Route(k)
	if len(rt.Hops) != 2 {
		t.Fatalf("degraded route = %v", rt.Hops)
	}
	head, _ := f.tb.Net.Switch(rt.Hops[0])
	tail, _ := f.tb.Net.Switch(rt.Hops[1])
	fr, err := query.NewWrite(f.ep(0), 9999, query.Route{Group: rt.Group, Hops: rt.Hops}, k, kv.Value("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := head.ProcessLocal(fr); d != core.Forward || fr.IP.Dst != rt.Hops[1] {
		t.Fatalf("head did not forward the stamped write to the tail: %v, dst %v", d, fr.IP.Dst)
	}
	stamped, _ := head.ReadItem(k)

	if err := f.ctl.Recover(s2, []packet.Addr{s3}, nil); err != nil {
		t.Fatal(err)
	}
	// Groups recover one at a time; the held frame lands relative to this
	// group's freeze.
	f.sim.Ticker(event.Duration(cfg.RuleDelay/8), func() bool {
		if !head.WriteFrozen(g) {
			return true
		}
		f.sim.After(event.Duration(cfg.RuleDelay*7/2), func() { tail.ProcessLocal(fr) })
		return false
	})
	f.sim.Run()

	repl, _ := f.tb.Net.Switch(s3)
	got, err := repl.ReadItem(k)
	if err != nil {
		t.Fatalf("replacement holds no slot for the key: %v", err)
	}
	if string(got.Value) != "v2" || got.Version != stamped.Version {
		t.Fatalf("replacement synced %q %v, want the in-flight write %q %v",
			got.Value, got.Version, "v2", stamped.Version)
	}
}
