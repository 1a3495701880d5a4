package netsim

import (
	"testing"

	"netchain/internal/core"
	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/swsim"
)

func ruleNextHop() core.Rule { return core.Rule{Action: core.ActNextHop} }

func coreSwitch(addr packet.Addr) (*core.Switch, error) {
	return core.NewSwitch(addr, swsim.Config{Stages: 4, SlotBytes: 16, SlotsPerStage: 64, PPS: 1e9})
}

// newTB builds the Fig. 8 testbed: the ring with H0,H1 on S0 and H2,H3 on S2.
func newTB(t *testing.T) (*event.Sim, *Fabric) {
	t.Helper()
	sim := event.New()
	tb, err := NewFabric(sim, PaperProfile(1), 1, TopoSpec{Kind: "ring"}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sim, tb
}

func installKey(t *testing.T, tb *Fabric, key kv.Key, on ...int) {
	t.Helper()
	for _, i := range on {
		sw, ok := tb.Net.Switch(tb.Switches[i])
		if !ok {
			t.Fatalf("switch %d missing", i)
		}
		if err := sw.InstallKey(key); err != nil {
			t.Fatal(err)
		}
	}
}

func chainQuery(op kv.Op, key kv.Key, val []byte, from packet.Addr, first packet.Addr, rest ...packet.Addr) *packet.Frame {
	nc := &packet.NetChain{Op: op, Key: key, Value: val, QueryID: 7}
	if err := nc.SetChain(rest); err != nil {
		panic(err)
	}
	return packet.NewQuery(from, first, 4000, nc)
}

func TestRingRouting(t *testing.T) {
	_, tb := newTB(t)
	// H0 reaches S2 in two switch hops + host link.
	if l, ok := tb.Net.PathLen(tb.Hosts[0], tb.Switches[2]); !ok || l != 3 {
		t.Fatalf("H0->S2 path len = %d (%v), want 3", l, ok)
	}
	// Route override: prefer S3 from S0 toward S2.
	tb.Net.SetRoute(tb.Switches[0], tb.Switches[2], tb.Switches[3])
	if via, _ := tb.Net.NextHop(tb.Switches[0], tb.Switches[2]); via != tb.Switches[3] {
		t.Fatalf("override ignored, via=%v", via)
	}
	tb.Net.ClearRoute(tb.Switches[0], tb.Switches[2])
	if via, _ := tb.Net.NextHop(tb.Switches[0], tb.Switches[2]); via == tb.Switches[3] {
		t.Fatal("override not cleared")
	}
}

func TestNeighborDiscovery(t *testing.T) {
	_, tb := newTB(t)
	nb := tb.Net.SwitchNeighbors(tb.Switches[1])
	if len(nb) != 2 || nb[0] != tb.Switches[0] || nb[1] != tb.Switches[2] {
		t.Fatalf("S1 switch neighbors = %v", nb)
	}
	all := tb.Net.Neighbors(tb.Switches[0])
	if len(all) != 4 { // S1, S3, H0, H1
		t.Fatalf("S0 neighbors = %v", all)
	}
}

func TestEndToEndChainWriteAndRead(t *testing.T) {
	sim, tb := newTB(t)
	key := kv.KeyFromString("cfg")
	installKey(t, tb, key, 0, 1, 2)

	var replies []*packet.Frame
	tb.Net.HostRecv(tb.Hosts[0], func(f *packet.Frame) { replies = append(replies, f.Clone()) })

	w := chainQuery(kv.OpWrite, key, []byte("hello"), tb.Hosts[0],
		tb.Switches[0], tb.Switches[1], tb.Switches[2])
	tb.Net.Inject(tb.Hosts[0], w)
	sim.Run()

	if len(replies) != 1 {
		t.Fatalf("replies = %d, want 1", len(replies))
	}
	rep := replies[0]
	if rep.NC.Op != kv.OpReply || rep.NC.Status != kv.StatusOK {
		t.Fatalf("reply = %v", &rep.NC)
	}
	// All three chain switches applied the write.
	for i := 0; i < 3; i++ {
		sw, _ := tb.Net.Switch(tb.Switches[i])
		it, err := sw.ReadItem(key)
		if err != nil || string(it.Value) != "hello" || it.Version.Seq != 1 {
			t.Fatalf("S%d state = %+v, %v", i, it, err)
		}
	}

	// Read from the tail.
	replies = nil
	r := chainQuery(kv.OpRead, key, nil, tb.Hosts[0],
		tb.Switches[2], tb.Switches[1], tb.Switches[0])
	tb.Net.Inject(tb.Hosts[0], r)
	sim.Run()
	if len(replies) != 1 || string(replies[0].NC.Value) != "hello" {
		t.Fatalf("read reply = %v", replies)
	}
}

func TestEndToEndLatencyMatchesPaper(t *testing.T) {
	// The paper reports 9.7 µs for the H0-S0-S1-S2-S1-S0-H0 round trip,
	// dominated by ~4 µs of client stack the client layer adds itself. The
	// in-network part (links + switch traversals) should land around 5.5 µs.
	sim, tb := newTB(t)
	key := kv.KeyFromString("k")
	installKey(t, tb, key, 0, 1, 2)

	var gotAt event.Time
	tb.Net.HostRecv(tb.Hosts[0], func(f *packet.Frame) { gotAt = sim.Now() })
	w := chainQuery(kv.OpWrite, key, []byte("x"), tb.Hosts[0],
		tb.Switches[0], tb.Switches[1], tb.Switches[2])
	tb.Net.Inject(tb.Hosts[0], w)
	sim.Run()
	us := float64(gotAt) / 1000
	if us < 4.0 || us > 8.0 {
		t.Fatalf("in-network round trip = %.2f µs, want ~5.5 µs", us)
	}
}

func TestLossInjection(t *testing.T) {
	sim, tb := newTB(t)
	key := kv.KeyFromString("k")
	installKey(t, tb, key, 0, 1, 2)
	tb.Net.LossRateSet(tb.Switches[1], 1.0) // drop everything at S1

	delivered := 0
	tb.Net.HostRecv(tb.Hosts[0], func(f *packet.Frame) { delivered++ })
	w := chainQuery(kv.OpWrite, key, []byte("x"), tb.Hosts[0],
		tb.Switches[0], tb.Switches[1], tb.Switches[2])
	tb.Net.Inject(tb.Hosts[0], w)
	sim.Run()
	if delivered != 0 {
		t.Fatal("write must be lost at S1")
	}
	if tb.Net.Stats().LossDrops == 0 {
		t.Fatal("loss counter not incremented")
	}
}

func TestFailStopAndManualFailover(t *testing.T) {
	sim, tb := newTB(t)
	key := kv.KeyFromString("k")
	installKey(t, tb, key, 0, 1, 2)
	s0, s1, s2 := tb.Switches[0], tb.Switches[1], tb.Switches[2]

	// Fail S1 and install the Algorithm 2 rule on its neighbors.
	tb.Net.FailSwitch(s1)
	for _, nb := range tb.Net.SwitchNeighbors(s1) {
		sw, _ := tb.Net.Switch(nb)
		sw.InstallRule(s1, -1, ruleNextHop())
	}

	var replies []*packet.Frame
	tb.Net.HostRecv(tb.Hosts[0], func(f *packet.Frame) { replies = append(replies, f.Clone()) })
	w := chainQuery(kv.OpWrite, key, []byte("x"), tb.Hosts[0], s0, s1, s2)
	tb.Net.Inject(tb.Hosts[0], w)
	sim.Run()

	if len(replies) != 1 || replies[0].NC.Status != kv.StatusOK {
		t.Fatalf("failover write reply = %v", replies)
	}
	// S0 and S2 applied; S1 did not.
	for _, i := range []int{0, 2} {
		sw, _ := tb.Net.Switch(tb.Switches[i])
		if it, err := sw.ReadItem(key); err != nil || string(it.Value) != "x" {
			t.Fatalf("S%d missed the write: %+v %v", i, it, err)
		}
	}
	sw1, _ := tb.Net.Switch(s1)
	if it, _ := sw1.ReadItem(key); it.Version.Seq != 0 {
		t.Fatal("failed switch must not have applied anything")
	}

	// Restore and verify traffic flows again.
	tb.Net.RestoreSwitch(s1)
	if tb.Net.Failed(s1) {
		t.Fatal("restore failed")
	}
}

func TestQueueDropUnderOverload(t *testing.T) {
	sim := event.New()
	net := New(sim, 1)
	h1 := packet.AddrFrom4(10, 1, 0, 1)
	h2 := packet.AddrFrom4(10, 1, 0, 2)
	swA, err := coreSwitch(packet.AddrFrom4(10, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	// 1000 pps, 1 ms max queue -> at most ~2 extra packets queued per ms.
	net.AddSwitch(swA, NodeConfig{Rate: 1000, ProcDelay: 0, MaxQueue: event.Duration(1e6)})
	net.AddHost(h1, NodeConfig{}, nil)
	delivered := 0
	net.AddHost(h2, NodeConfig{}, nil)
	net.HostRecv(h2, func(f *packet.Frame) { delivered++ })
	net.Link(h1, swA.Addr(), 0)
	net.Link(swA.Addr(), h2, 0)
	net.ComputeRoutes()

	for i := 0; i < 100; i++ {
		nc := &packet.NetChain{Op: kv.OpRead, Key: kv.KeyFromUint64(uint64(i)), QueryID: uint64(i)}
		f := packet.NewQuery(h1, h2, 4000, nc)
		net.Inject(h1, f)
	}
	sim.Run()
	st := net.Stats()
	if st.QueueDrops == 0 {
		t.Fatal("expected tail drops under overload")
	}
	if delivered+int(st.QueueDrops) != 100 {
		t.Fatalf("delivered %d + dropped %d != 100", delivered, st.QueueDrops)
	}
	// 1 ms of queue at 1000 pps holds about 1-2 packets beyond the first.
	if delivered > 5 {
		t.Fatalf("delivered %d, want <= 5", delivered)
	}
}

func TestTTLExpiry(t *testing.T) {
	// Two switches with a deliberate routing loop.
	sim := event.New()
	net := New(sim, 1)
	a, _ := coreSwitch(packet.AddrFrom4(10, 0, 0, 1))
	b, _ := coreSwitch(packet.AddrFrom4(10, 0, 0, 2))
	h := packet.AddrFrom4(10, 1, 0, 1)
	net.AddSwitch(a, NodeConfig{})
	net.AddSwitch(b, NodeConfig{})
	net.AddHost(h, NodeConfig{}, nil)
	net.Link(h, a.Addr(), 0)
	net.Link(a.Addr(), b.Addr(), 0)
	net.ComputeRoutes()
	// Loop: a->b and b->a for an unreachable destination.
	dst := packet.AddrFrom4(10, 9, 9, 9)
	net.SetRoute(a.Addr(), dst, b.Addr())
	net.SetRoute(b.Addr(), dst, a.Addr())

	nc := &packet.NetChain{Op: kv.OpRead, Key: kv.KeyFromUint64(1), QueryID: 1}
	f := packet.NewQuery(h, dst, 4000, nc)
	net.Inject(h, f)
	sim.Run()
	if net.Stats().RouteDrops == 0 {
		t.Fatal("looped packet must die by TTL")
	}
	if net.Stats().Hops > 140 {
		t.Fatalf("hops = %d, TTL should bound near 64x2", net.Stats().Hops)
	}
}

func TestAddValidation(t *testing.T) {
	sim := event.New()
	net := New(sim, 1)
	if err := net.AddHost(0, NodeConfig{}, nil); err == nil {
		t.Fatal("zero addr must be rejected")
	}
	h := packet.AddrFrom4(1, 1, 1, 1)
	if err := net.AddHost(h, NodeConfig{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := net.AddHost(h, NodeConfig{}, nil); err == nil {
		t.Fatal("duplicate addr must be rejected")
	}
	if err := net.Link(h, packet.AddrFrom4(2, 2, 2, 2), 0); err == nil {
		t.Fatal("link to unknown node must be rejected")
	}
	if err := net.Link(h, h, 0); err == nil {
		t.Fatal("self link must be rejected")
	}
	if err := net.FailSwitch(h); err == nil {
		t.Fatal("failing a host must be rejected")
	}
	if err := net.LossRateSet(packet.AddrFrom4(9, 9, 9, 9), 0.5); err == nil {
		t.Fatal("unknown node loss set must be rejected")
	}
	if err := net.HostRecv(packet.AddrFrom4(9, 9, 9, 9), nil); err == nil {
		t.Fatal("unknown host recv must be rejected")
	}
}
