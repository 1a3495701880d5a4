package relay

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
)

// fakeTail sends OpEvent frames at the relay like a switch agent would.
type fakeTail struct {
	t    *testing.T
	conn *net.UDPConn
	dst  *net.UDPAddr
}

func newFakeTail(t *testing.T, dst *net.UDPAddr) *fakeTail {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &fakeTail{t: t, conn: conn, dst: dst}
}

func (ft *fakeTail) emit(ev query.Event) {
	ft.t.Helper()
	f := query.NewEvent(packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(10, 0, 255, 1), packet.Port, packet.Port, ev)
	defer packet.PutFrame(f)
	buf, err := f.Serialize(nil)
	if err != nil {
		ft.t.Fatal(err)
	}
	if _, err := ft.conn.WriteToUDP(buf, ft.dst); err != nil {
		ft.t.Fatal(err)
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestUnicastFanOutSequencesAndDedupes(t *testing.T) {
	srv, err := Start(Config{Addr: packet.AddrFrom4(10, 0, 255, 1), Mode: ModeUnicast})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var mu sync.Mutex
	var got []query.Event
	sub, err := Subscribe(ModeUnicast, srv.ControlEndpoint(), []uint16{7}, func(ev query.Event) {
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitFor(t, func() bool { return srv.Stats().Subscribers == 1 }, "lease registration")
	// The server registers the lease before its ack crosses the socket.
	waitFor(t, func() bool { return sub.Acked() != 0 }, "subscribe ack")

	tail := newFakeTail(t, srv.IngestEndpoint())
	k := kv.KeyFromString("cfg")
	tail.emit(query.Event{Key: k, Value: kv.Value("a"), Version: kv.Version{Seq: 1}, Group: 7})
	tail.emit(query.Event{Key: k, Value: kv.Value("a"), Version: kv.Version{Seq: 1}, Group: 7}) // replayed tail re-ack
	tail.emit(query.Event{Key: k, Value: kv.Value("b"), Version: kv.Version{Seq: 2}, Group: 7})
	tail.emit(query.Event{Key: k, Version: kv.Version{Seq: 3}, Group: 7, Deleted: true})

	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) >= 3 }, "event delivery")
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 {
		t.Fatalf("delivered %d events, want 3 (duplicate suppressed): %+v", len(got), got)
	}
	for i, ev := range got {
		if ev.StreamSeq != uint64(i+1) {
			t.Fatalf("event %d stream seq = %d, want %d", i, ev.StreamSeq, i+1)
		}
	}
	if !got[2].Deleted || got[2].Version.Seq != 3 {
		t.Fatalf("delete event = %+v", got[2])
	}
	st := srv.Stats()
	if st.EventsIn != 4 || st.EventsDup != 1 || st.EventsOut != 3 || st.EgressDatagrams != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUnicastGroupIsolationAndUnsubscribe(t *testing.T) {
	srv, err := Start(Config{Addr: packet.AddrFrom4(10, 0, 255, 1), Mode: ModeUnicast})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var n7, n9 atomic64
	sub7, err := Subscribe(ModeUnicast, srv.ControlEndpoint(), []uint16{7}, func(query.Event) { n7.add() })
	if err != nil {
		t.Fatal(err)
	}
	defer sub7.Close()
	sub9, err := Subscribe(ModeUnicast, srv.ControlEndpoint(), []uint16{9}, func(query.Event) { n9.add() })
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.Stats().Subscribers == 2 }, "two leases")

	tail := newFakeTail(t, srv.IngestEndpoint())
	tail.emit(query.Event{Key: kv.KeyFromUint64(1), Value: kv.Value("x"), Version: kv.Version{Seq: 1}, Group: 7})
	waitFor(t, func() bool { return n7.get() == 1 }, "group 7 delivery")
	if n9.get() != 0 {
		t.Fatal("group 9 subscriber must not see group 7 events")
	}

	sub9.Close()
	waitFor(t, func() bool { return srv.Stats().Subscribers == 1 }, "unsubscribe")
}

// TestExpiredLeaseLeavesSubscribers: a subscriber that dies without
// unsubscribing stops counting as live once its lease expires, although
// no event for its group ever arrives to prune it on fan-out.
func TestExpiredLeaseLeavesSubscribers(t *testing.T) {
	srv, err := Start(Config{Addr: packet.AddrFrom4(10, 0, 255, 1), Mode: ModeUnicast, LeaseTTL: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sub, err := Subscribe(ModeUnicast, srv.ControlEndpoint(), []uint16{7}, func(query.Event) {})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitFor(t, func() bool { return srv.Stats().Subscribers == 1 }, "lease registration")
	sub.conn.Close() // dies: no unsubscribe, no renewal
	waitFor(t, func() bool { return srv.Stats().Subscribers == 0 }, "lease expiry")
}

// TestSubscribeWaitsForLeaseAck: a unicast Subscribe against a control
// socket that reads every lease request and never acknowledges one must
// fail, having re-sent the request meanwhile; against a live relay it
// returns with the lease already acknowledged.
func TestSubscribeWaitsForLeaseAck(t *testing.T) {
	mute, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	var requests sync.WaitGroup
	requests.Add(1)
	go func() {
		defer requests.Done()
		buf := make([]byte, 2048)
		n := 0
		for {
			if _, _, err := mute.ReadFromUDP(buf); err != nil {
				if n < 2 {
					t.Errorf("the lease request was sent %d times, want it re-sent", n)
				}
				return
			}
			n++
		}
	}()
	sub, err := Subscribe(ModeUnicast, mute.LocalAddr().(*net.UDPAddr), []uint16{7}, func(query.Event) {})
	if err == nil {
		sub.Close()
		t.Fatal("Subscribe returned without a lease ack")
	}
	mute.Close()
	requests.Wait()

	srv, err := Start(Config{Addr: packet.AddrFrom4(10, 0, 255, 1), Mode: ModeUnicast})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sub, err = Subscribe(ModeUnicast, srv.ControlEndpoint(), []uint16{7}, func(query.Event) {})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if sub.Acked() == 0 || srv.Stats().Subscribers != 1 {
		t.Fatalf("Subscribe returned with %d acks and %d leases", sub.Acked(), srv.Stats().Subscribers)
	}
}

// Multicast round-trip, skipped where the environment cannot join groups.
func TestMulticastFanOut(t *testing.T) {
	srv, err := Start(Config{Addr: packet.AddrFrom4(10, 0, 255, 1), Mode: ModeMulticast})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var mu sync.Mutex
	var got []query.Event
	sub, err := Subscribe(ModeMulticast, nil, []uint16{3}, func(ev query.Event) {
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
	})
	if err != nil {
		t.Skipf("multicast unavailable here: %v", err)
	}
	defer sub.Close()

	tail := newFakeTail(t, srv.IngestEndpoint())
	deadline := time.Now().Add(800 * time.Millisecond)
	seq := uint64(0)
	for time.Now().Before(deadline) {
		seq++
		tail.emit(query.Event{Key: kv.KeyFromUint64(seq), Value: kv.Value("v"), Version: kv.Version{Seq: 1}, Group: 3})
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 {
		t.Skip("multicast loopback not routed in this environment")
	}
	// One egress datagram per event regardless of how many subscribers
	// could have joined — the scale-free property under test.
	if st := srv.Stats(); st.EgressDatagrams != st.EventsOut {
		t.Fatalf("multicast egress %d != events out %d", st.EgressDatagrams, st.EventsOut)
	}
}

type atomic64 struct {
	mu sync.Mutex
	n  uint64
}

func (a *atomic64) add()        { a.mu.Lock(); a.n++; a.mu.Unlock() }
func (a *atomic64) get() uint64 { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

// TestMulticastGroupEndpointIsStable: a multicast relay makes one endpoint
// per group, on first use, and queues every event of the group to it.
// Egress coalesces frames by endpoint, so two same-group events of one
// ingest datagram leave in one datagram, and 20 000 events over four
// groups leave the relay's heap flat (64 keys, each rewritten at newer
// versions, so the relay's per-key state is bounded). The group endpoint
// is aimed at a loopback socket, a fresh *net.UDPAddr per call as
// GroupUDP makes, so nothing leaves the host.
func TestMulticastGroupEndpointIsStable(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	var made atomic64
	to := sink.LocalAddr().(*net.UDPAddr)
	groupEndpoint = func(uint16) *net.UDPAddr {
		made.add()
		return &net.UDPAddr{IP: to.IP, Port: to.Port}
	}
	defer func() { groupEndpoint = GroupUDP }()
	var dgrams, frames atomic64
	go func() {
		buf := make([]byte, 64<<10)
		var f packet.Frame
		for {
			n, err := sink.Read(buf)
			if err != nil {
				return
			}
			k, _ := packet.DecodeBatch(&f, buf[:n], func(*packet.Frame) {})
			dgrams.add()
			for ; k > 0; k-- {
				frames.add()
			}
		}
	}()

	srv, err := Start(Config{Addr: packet.AddrFrom4(10, 0, 255, 1), Mode: ModeMulticast})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tail := newFakeTail(t, srv.IngestEndpoint())
	const groups, pairs = 4, 10_000
	var buf []byte
	sent := 0
	// send puts two events of one group into each ingest datagram, in
	// bursts the sink receives whole before the next.
	send := func(upTo int) {
		for ; sent < upTo; sent++ {
			buf = buf[:0]
			for i := 0; i < 2; i++ {
				seq := uint64(2*sent + i + 1)
				f := query.NewEvent(packet.AddrFrom4(10, 0, 0, 1), srv.Addr(), packet.Port, packet.Port,
					query.Event{Key: kv.KeyFromUint64(seq % 64), Value: kv.Value("v"), Version: kv.Version{Seq: seq}, Group: uint16(sent % groups)})
				if buf, err = f.Serialize(buf); err != nil {
					t.Fatal(err)
				}
				packet.PutFrame(f)
			}
			if _, err := tail.conn.WriteToUDP(buf, tail.dst); err != nil {
				t.Fatal(err)
			}
			if sent%50 == 49 {
				want := uint64(2 * (sent + 1))
				waitFor(t, func() bool { return frames.get() == want }, "the sink to receive a burst")
			}
		}
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	send(pairs / 10)
	before := liveHeap()
	send(pairs)
	after := liveHeap()
	if n := made.get(); n != groups {
		t.Errorf("%d events over %d groups made %d endpoints, want %d", 2*pairs, groups, n, groups)
	}
	if d := dgrams.get(); d > pairs {
		t.Errorf("%d events, two of one group per ingest datagram, left in %d datagrams, want at most %d", 2*pairs, d, pairs)
	}
	if after > before+256<<10 {
		t.Errorf("live heap grew %d B over %d events", after-before, 2*pairs*9/10)
	}
}
