package faultconn_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"netchain/internal/core"
	"netchain/internal/faultconn"
	"netchain/internal/health"
	"netchain/internal/kv"
	"netchain/internal/netsim"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/swsim"
	"netchain/internal/transport"
)

// TestPacketConnShim exercises the net.PacketConn wrapper over real UDP
// sockets: clean pass-through, a directed link cut, fail-stop, and gray
// ingress loss — each fault silently consuming datagrams the way a lossy
// kernel would (writes still report full length).
func TestPacketConnShim(t *testing.T) {
	aAddr := packet.AddrFrom4(10, 0, 0, 1)
	bAddr := packet.AddrFrom4(10, 0, 0, 2)
	inj := faultconn.New(5)
	defer inj.Stop()

	listen := func() *net.UDPConn {
		t.Helper()
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ac, bc := listen(), listen()
	sender := inj.WrapPacketConn(aAddr, ac)
	receiver := inj.WrapPacketConn(bAddr, bc)
	defer sender.Close()
	defer receiver.Close()
	inj.RegisterEndpoint(aAddr, ac.LocalAddr().(*net.UDPAddr))
	inj.RegisterEndpoint(bAddr, bc.LocalAddr().(*net.UDPAddr))
	bEp := bc.LocalAddr().(*net.UDPAddr)

	recv := func(wait time.Duration) (string, bool) {
		t.Helper()
		buf := make([]byte, 256)
		receiver.SetReadDeadline(time.Now().Add(wait))
		n, _, err := receiver.ReadFromUDP(buf)
		if err != nil {
			return "", false
		}
		return string(buf[:n]), true
	}
	send := func(msg string) {
		t.Helper()
		n, err := sender.WriteToUDP([]byte(msg), bEp)
		if err != nil || n != len(msg) {
			t.Fatalf("WriteToUDP(%q) = (%d, %v), want (%d, nil)", msg, n, err, len(msg))
		}
	}

	// Clean link: the shim is a pass-through.
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
		// wrapped read loop eats every arrival.
		{"passed gray-lossy ingress", netsim.GraySwitch{Addr: bAddr, G: netsim.Gray{Loss: 1}}},
	} {
		if err := inj.Inject(tc.f); err != nil {
			t.Fatal(err)
		}
		send("faulted")
		if got, ok := recv(120 * time.Millisecond); ok {
			t.Fatalf("datagram %q %s", got, tc.what)
		}
		if err := inj.Heal(tc.f); err != nil {
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
	w.inj.RegisterEndpoint(w.addr, w.node.Endpoint())
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
	w.inj.RegisterEndpoint(cfg.Addr, tc.LocalEndpoint())
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
	if err := w.inj.Inject(&netsim.AsymPartition{From: []packet.Addr{cli}, To: []packet.Addr{w.addr}}); err != nil {
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

// TestMonitorDetectsFailStopOnWire is the health.Monitor smoke on real
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
		inj.RegisterEndpoint(a, n.Endpoint())
		nodes = append(nodes, n)
	}

	mv := packet.AddrFrom4(10, 255, 0, 1)
	det := health.NewDetector(health.Config{HeartbeatEvery: hb})
	mon, err := health.NewMonitor("127.0.0.1:0", mv, det,
		health.WithMonitorFaults(inj.Pipe(mv)))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	inj.RegisterEndpoint(mv, mon.Endpoint())
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
	for det.VerdictFor(addrs[0], mon.Now()) != health.Healthy ||
		det.VerdictFor(addrs[1], mon.Now()) != health.Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("cluster never went healthy: %+v", det.Snapshot(mon.Now()))
		}
		time.Sleep(hb)
	}

	killed := time.Now()
	if err := inj.Inject(netsim.FailStop{Addr: addrs[1]}); err != nil {
		t.Fatal(err)
	}
	for det.VerdictFor(addrs[1], mon.Now()) != health.FailStop {
		if time.Since(killed) > 5*time.Second {
			t.Fatalf("fail-stop undetected after 5 s at hb=%v: φ=%.1f %+v",
				hb, det.Phi(addrs[1], mon.Now()), det.Snapshot(mon.Now()))
		}
		time.Sleep(hb)
	}
	if v := det.VerdictFor(addrs[0], mon.Now()); v == health.FailStop {
		t.Fatalf("survivor evicted alongside the real failure (verdict %v)", v)
	}
}
