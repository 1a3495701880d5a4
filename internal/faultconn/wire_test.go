package faultconn_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"netchain/internal/core"
	"netchain/internal/faultconn"
	"netchain/internal/health"
	"netchain/internal/kv"
	"netchain/internal/netsim"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/relay"
	"netchain/internal/swsim"
	"netchain/internal/transport"
)

// TestBatchConnPipe exercises a pipe attached to a BatchConn over real UDP
// sockets: clean pass-through, a directed link cut (which resolves the
// receiver only because attaching its pipe registered its endpoint),
// fail-stop, and gray ingress loss — each fault silently consuming
// datagrams the way a lossy kernel would (writes still report no error).
func TestBatchConnPipe(t *testing.T) {
	aAddr := packet.AddrFrom4(10, 0, 0, 1)
	bAddr := packet.AddrFrom4(10, 0, 0, 2)
	inj := faultconn.New(5)
	defer inj.Stop()

	listen := func(self packet.Addr) *transport.BatchConn {
		t.Helper()
		c, err := transport.Listen("127.0.0.1:0", 0, inj.Pipe(self))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	sender, receiver := listen(aAddr), listen(bAddr)
	defer sender.Close()
	bEp := receiver.LocalAddr()
	got := make(chan string, 8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 256)
		receiver.ReadLoop(func() error {
			n, _, err := receiver.ReadFrom(buf)
			if err == nil {
				got <- string(buf[:n])
			}
			return err
		}, nil)
	}()
	defer func() {
		receiver.Close()
		<-done
	}()

	recv := func(wait time.Duration) (string, bool) {
		select {
		case msg := <-got:
			return msg, true
		case <-time.After(wait):
			return "", false
		}
	}
	send := func(msg string) {
		t.Helper()
		if err := sender.WriteTo([]byte(msg), bEp); err != nil {
			t.Fatalf("WriteTo(%q) = %v, want nil", msg, err)
		}
	}

	// Clean link: the pipe is a pass-through.
	send("plain")
	if got, ok := recv(2 * time.Second); !ok || got != "plain" {
		t.Fatalf("clean delivery failed: got %q ok=%v", got, ok)
	}

	// Each fault silently consumes the datagram while it is installed.
	for _, tc := range []struct {
		what string
		f    netsim.Fault
	}{
		// Directed cut a→b: the write is consumed, nothing arrives.
		{"crossed a fully cut link", netsim.LinkChaos{A: aAddr, B: bAddr, F: netsim.LinkFault{Drop: 1}}},
		// Fail-stop of the sender: its egress dies at the socket.
		{"left a fail-stopped node", netsim.FailStop{Addr: aAddr}},
		// Gray ingress loss on the receiver: the wire delivers, the
		// receiving BatchConn eats every arrival.
		{"passed gray-lossy ingress", netsim.GraySwitch{Addr: bAddr, G: netsim.Gray{Loss: 1}}},
	} {
		if err := inj.InjectFault(tc.f); err != nil {
			t.Fatal(err)
		}
		send("faulted")
		if got, ok := recv(120 * time.Millisecond); ok {
			t.Fatalf("datagram %q %s", got, tc.what)
		}
		if err := inj.HealFault(tc.f); err != nil {
			t.Fatal(err)
		}
	}

	// Healed: traffic flows again on the same sockets.
	send("healed")
	if got, ok := recv(2 * time.Second); !ok || got != "healed" {
		t.Fatalf("post-heal delivery failed: got %q ok=%v", got, ok)
	}
	st := inj.Stats()
	if st.ChaosDrops == 0 || st.FailDrops == 0 || st.GrayDrops == 0 {
		t.Fatalf("expected every fault class to count a drop: %+v", st)
	}
}

// wireNode is a one-switch live-UDP deployment with every socket behind
// the injector — the smallest cluster that exercises client retry pacing
// and the health plane against real wire faults.
type wireNode struct {
	inj  *faultconn.Injector
	book *transport.AddressBook
	addr packet.Addr
	node *transport.SwitchNode
}

func newWireNode(t *testing.T, seed int64) *wireNode {
	t.Helper()
	w := &wireNode{
		inj:  faultconn.New(seed),
		book: transport.NewAddressBook(),
		addr: packet.AddrFrom4(10, 0, 0, 1),
	}
	t.Cleanup(w.inj.Stop)
	sw, err := core.NewSwitch(w.addr, swsim.Config{
		Stages: 8, SlotBytes: 16, SlotsPerStage: 64, PPS: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.node, err = transport.NewSwitchNode(sw, w.book, "127.0.0.1:0",
		transport.WithFaultPipe(w.inj.Pipe(w.addr)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.node.Close() })
	k := kv.KeyFromString("wire/k")
	if err := sw.InstallKey(k); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *wireNode) client(t *testing.T, cfg transport.ClientConfig) *transport.Ops {
	t.Helper()
	cfg.Gateway = w.addr
	cfg.Bind = "127.0.0.1:0"
	cfg.Faults = w.inj.Pipe(cfg.Addr)
	tc, err := transport.NewClient(w.book, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tc.Close() })
	route := func(kv.Key) (query.Route, error) {
		return query.Route{Group: 1, Hops: []packet.Addr{w.addr}}, nil
	}
	return &transport.Ops{Client: tc, Dir: route}
}

// TestPartitionBoundsRetryVolume: a call sent into a full partition costs
// exactly retries+1 datagrams and one counted timeout — no storm. How those
// attempts are paced is the retry core's rule, pinned in virtual time by
// internal/query's TestPendingSchedule; what only a wire can show is that
// every attempt the core schedules becomes one datagram at the socket.
func TestPartitionBoundsRetryVolume(t *testing.T) {
	w := newWireNode(t, 9)
	k := kv.KeyFromString("wire/k")

	const retries = 4
	cli := packet.AddrFrom4(10, 1, 0, 1)
	ops := w.client(t, transport.ClientConfig{Addr: cli, Timeout: 5 * time.Millisecond, Retries: retries})

	// Seed while the link is clean.
	if _, err := ops.Write(k, kv.Value("v0")); err != nil {
		t.Fatalf("seed write: %v", err)
	}

	// Cut client→switch. Replies can't even be generated: every attempt
	// is consumed at the client's own egress.
	if err := w.inj.InjectFault(&netsim.AsymPartition{From: []packet.Addr{cli}, To: []packet.Addr{w.addr}}); err != nil {
		t.Fatal(err)
	}

	before, dropsBefore := ops.Client.Stats(), w.inj.Stats().PartitionDrops
	if _, _, err := ops.Read(k); !errors.Is(err, kv.ErrTimeout) {
		t.Fatalf("read through a full partition: err = %v, want kv.ErrTimeout", err)
	}
	after := ops.Client.Stats()
	if after.Timeouts != before.Timeouts+1 || after.Sent-before.Sent != retries+1 || after.Retries-before.Retries != retries {
		t.Fatalf("one lost call must cost %d attempts and one timeout, stats %+v -> %+v", retries+1, before, after)
	}
	if got := w.inj.Stats().PartitionDrops - dropsBefore; got != retries+1 {
		t.Fatalf("the partition consumed %d datagrams, want %d", got, retries+1)
	}
}

// TestMonitorDetectsFailStopOnWire is the transport.Monitor smoke on real
// sockets: two switches beat over a clean wire until both read healthy,
// then the nemesis fail-stops one, and the monitor must convict it within
// seconds and leave the other alone. What the detector makes of gray and
// burst loss is pinned by health's TestCoreGrayAndBurstVerdictsPinned, on
// a manual clock.
func TestMonitorDetectsFailStopOnWire(t *testing.T) {
	const hb = 10 * time.Millisecond
	inj := faultconn.New(17)
	defer inj.Stop()
	book := transport.NewAddressBook()

	addrs := []packet.Addr{packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(10, 0, 0, 2)}
	var nodes []*transport.SwitchNode
	for _, a := range addrs {
		sw, err := core.NewSwitch(a, swsim.Config{
			Stages: 8, SlotBytes: 16, SlotsPerStage: 64, PPS: 1e9,
		})
		if err != nil {
			t.Fatal(err)
		}
		n, err := transport.NewSwitchNode(sw, book, "127.0.0.1:0",
			transport.WithFaultPipe(inj.Pipe(a)))
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes = append(nodes, n)
	}

	mv := packet.AddrFrom4(10, 255, 0, 1)
	det := health.NewDetector(health.Config{HeartbeatEvery: hb})
	mon, err := transport.NewMonitor("127.0.0.1:0", mv, det,
		transport.WithMonitorFaults(inj.Pipe(mv)))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	book.Set(mv, mon.Endpoint())
	for _, a := range addrs {
		mon.Watch(a)
	}
	mon.StartProbes()
	for _, n := range nodes {
		if err := n.StartHeartbeats(mv, hb); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for det.VerdictFor(addrs[0], mon.Clock().Now()) != health.Healthy ||
		det.VerdictFor(addrs[1], mon.Clock().Now()) != health.Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("cluster never went healthy: %+v", det.Snapshot(mon.Clock().Now()))
		}
		time.Sleep(hb)
	}

	killed := time.Now()
	if err := inj.InjectFault(netsim.FailStop{Addr: addrs[1]}); err != nil {
		t.Fatal(err)
	}
	for det.VerdictFor(addrs[1], mon.Clock().Now()) != health.FailStop {
		if time.Since(killed) > 5*time.Second {
			t.Fatalf("fail-stop undetected after 5 s at hb=%v: φ=%.1f %+v",
				hb, det.Phi(addrs[1], mon.Clock().Now()), det.Snapshot(mon.Clock().Now()))
		}
		time.Sleep(hb)
	}
	if v := det.VerdictFor(addrs[0], mon.Clock().Now()); v == health.FailStop {
		t.Fatalf("survivor evicted alongside the real failure (verdict %v)", v)
	}
}

// eventually polls cond for up to 5 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestSubscriberLinkFault: a directed link fault from the relay toward a
// watch subscriber drops every event on that link. The relay's egress
// resolves the subscriber's endpoint to its virtual address only because
// the subscriber's socket registered it when its pipe was attached.
func TestSubscriberLinkFault(t *testing.T) {
	inj := faultconn.New(3)
	defer inj.Stop()
	rv, sv := packet.AddrFrom4(10, 2, 0, 1), packet.AddrFrom4(10, 3, 0, 1)
	rs, err := relay.Start(relay.Config{Addr: rv, Faults: inj.Pipe(rv)})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	sub, err := relay.Subscribe(relay.ModeUnicast, rs.ControlEndpoint(), []uint16{1},
		func(query.Event) {}, relay.WithSubFaults(inj.Pipe(sv)))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	eventually(t, "the subscribe ack", func() bool { return sub.Acked() != 0 })

	tail, err := transport.Listen("127.0.0.1:0", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	seq := uint64(0)
	emit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			seq++
			f := query.NewEvent(packet.AddrFrom4(10, 0, 0, 1), rv, packet.Port, packet.Port, query.Event{
				Key: kv.KeyFromString("k"), Value: kv.Value("v"), Version: kv.Version{Seq: seq}, Group: 1,
			})
			buf, err := f.Serialize(nil)
			packet.PutFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := tail.WriteTo(buf, rs.IngestEndpoint()); err != nil {
				t.Fatal(err)
			}
		}
	}

	cut := netsim.LinkChaos{A: rv, B: sv, F: netsim.LinkFault{Drop: 1}}
	if err := inj.InjectFault(cut); err != nil {
		t.Fatal(err)
	}
	const sent = 20
	emit(sent)
	eventually(t, "the relay to sequence every event", func() bool { return rs.Stats().EventsOut == sent })
	time.Sleep(50 * time.Millisecond)
	if got := sub.Received(); got != 0 {
		t.Fatalf("%d of %d events crossed a fully cut relay→subscriber link", got, sent)
	}
	if err := inj.HealFault(cut); err != nil {
		t.Fatal(err)
	}
	emit(1)
	eventually(t, "an event after the heal", func() bool { return sub.Received() == 1 })
}

// TestEverySocketOwnerHonoursItsPipe fail-stops each socket owner of a
// live deployment in turn — switch node, client, relay server, watch
// subscriber, health monitor — checks that the owner falls silent, then
// heals it and checks that its traffic resumes.
func TestEverySocketOwnerHonoursItsPipe(t *testing.T) {
	const hb = 5 * time.Millisecond
	w := newWireNode(t, 21)
	k := kv.KeyFromString("wire/k")
	cli := packet.AddrFrom4(10, 1, 0, 1)
	ops := w.client(t, transport.ClientConfig{Addr: cli, Timeout: 5 * time.Millisecond, Retries: 2})
	if _, err := ops.Write(k, kv.Value("v0")); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	read := func(t *testing.T) bool {
		_, _, err := ops.Read(k)
		if err != nil && !errors.Is(err, kv.ErrTimeout) {
			t.Fatalf("read: %v", err)
		}
		return err == nil
	}

	rv, sv := packet.AddrFrom4(10, 2, 0, 1), packet.AddrFrom4(10, 3, 0, 1)
	rs, err := relay.Start(relay.Config{Addr: rv, Faults: w.inj.Pipe(rv)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	w.node.SetEventSink(rv, rs.IngestEndpoint())
	sub, err := relay.Subscribe(relay.ModeUnicast, rs.ControlEndpoint(), []uint16{1}, func(query.Event) {},
		relay.WithSubFaults(w.inj.Pipe(sv)), relay.WithRenewEvery(hb))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sub.Close() })
	eventually(t, "the subscribe ack", func() bool { return sub.Acked() != 0 })
	writes := 0
	event := func(t *testing.T) bool {
		before := sub.Received()
		writes++
		if _, err := ops.Write(k, kv.Value(fmt.Sprint(writes))); err != nil {
			t.Fatalf("write: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
		return sub.Received() > before
	}

	mv := packet.AddrFrom4(10, 255, 0, 1)
	det := health.NewDetector(health.Config{HeartbeatEvery: hb})

	for _, tc := range []struct {
		name   string
		addr   packet.Addr
		before func(t *testing.T)
		flows  func(t *testing.T) bool
	}{
		{name: "switch node", addr: w.addr, flows: read},
		{name: "client", addr: cli, flows: func(t *testing.T) bool {
			before := w.node.Stats().RecvDatagrams
			ok := read(t)
			return ok || w.node.Stats().RecvDatagrams != before
		}},
		{name: "relay server", addr: rv, flows: func(t *testing.T) bool {
			acks := sub.Acked()
			return event(t) || sub.Acked() != acks
		}},
		{name: "subscriber", addr: sv, flows: event},
		{name: "monitor", addr: mv, before: func(t *testing.T) {
			// Started under the fault, so the monitor has learned nothing.
			mon, err := transport.NewMonitor("127.0.0.1:0", mv, det, transport.WithMonitorFaults(w.inj.Pipe(mv)))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { mon.Close() })
			w.book.Set(mv, mon.Endpoint())
			if err := w.node.StartHeartbeats(mv, hb); err != nil {
				t.Fatal(err)
			}
		}, flows: func(*testing.T) bool {
			time.Sleep(10 * hb)
			return len(det.Snapshot(0)) != 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fault := netsim.FailStop{Addr: tc.addr}
			if err := w.inj.InjectFault(fault); err != nil {
				t.Fatal(err)
			}
			time.Sleep(4 * hb) // let datagrams sent before the fault land
			if tc.before != nil {
				tc.before(t)
			}
			if tc.flows(t) {
				t.Fatalf("%v still talks while fail-stopped", tc.addr)
			}
			if err := w.inj.HealFault(fault); err != nil {
				t.Fatal(err)
			}
			eventually(t, "traffic after the heal", func() bool { return tc.flows(t) })
		})
	}
}
