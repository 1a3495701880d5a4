package relay

import (
	"net"
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
