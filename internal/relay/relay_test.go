package relay

import (
	"net"
	"sync"
	"testing"
	"time"

	"netchain/internal/kv"
	"netchain/internal/query"
)

// The Core runs on the caller's clock, so these tests step time by hand:
// no socket, no sleep.

func subscriberAt(port int) *net.UDPAddr {
	return &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port}
}

// publish sends a write of key k at version seq through c at now and
// returns the stamped event, whether it was fresh, and its targets.
func publish(c *Core, group uint16, k kv.Key, seq uint64, now time.Duration) (query.Event, bool, []*net.UDPAddr) {
	ev := query.Event{Key: k, Value: kv.Value("v"), Version: kv.Version{Seq: seq}, Group: group}
	to, fresh := c.Publish(&ev, now, nil)
	return ev, fresh, to
}

func TestCoreLeaseIsATargetUntilItsTTLPasses(t *testing.T) {
	const ttl = 10 * time.Second
	c := NewCore(7, ttl)
	src := subscriberAt(4000)
	c.Subscribe(src, []uint16{3}, time.Second)
	k := kv.KeyFromString("cfg")

	_, fresh, to := publish(c, 3, k, 1, time.Second+ttl)
	if !fresh || len(to) != 1 || to[0].String() != src.String() {
		t.Fatalf("at expiry: fresh=%v targets=%v, want [%v]", fresh, to, src)
	}
	kept := to[0]
	src.Port = 1 // the lease keeps its own copy of the endpoint
	if kept.Port != 4000 {
		t.Fatalf("lease endpoint follows the caller's address: %v", kept)
	}
	if _, _, to := publish(c, 9, k, 1, time.Second+ttl); len(to) != 0 {
		t.Fatalf("group 9 event targets group 3's lease: %v", to)
	}
	if _, fresh, to := publish(c, 3, k, 2, time.Second+ttl+1); !fresh || len(to) != 0 {
		t.Fatalf("past expiry: fresh=%v targets=%v, want no target", fresh, to)
	}
}

func TestCoreRenewalExtendsAndUnsubscribeDrops(t *testing.T) {
	const ttl = 10 * time.Second
	c := NewCore(7, ttl)
	a := subscriberAt(4000)
	c.Subscribe(a, []uint16{3}, 0)
	c.Subscribe(a, []uint16{3}, 5*time.Second) // renewal
	k := kv.KeyFromString("cfg")

	_, _, to := publish(c, 3, k, 1, 12*time.Second)
	if len(to) != 1 {
		t.Fatalf("renewed lease at 12s: targets %v, want one", to)
	}
	first := to[0]
	c.Subscribe(a, []uint16{3}, 12*time.Second)
	if _, _, to = publish(c, 3, k, 2, 13*time.Second); len(to) != 1 || to[0] != first {
		t.Fatalf("a renewal must keep the lease's endpoint pointer: %v vs %p", to, first)
	}
	c.Unsubscribe(a, []uint16{3})
	if _, _, to = publish(c, 3, k, 3, 13*time.Second); len(to) != 0 {
		t.Fatalf("after Unsubscribe: targets %v", to)
	}
	if n := c.Subscribers(13 * time.Second); n != 0 {
		t.Fatalf("Subscribers after Unsubscribe = %d", n)
	}
}

func TestCoreSubscribersCountsLiveLeases(t *testing.T) {
	const ttl = 10 * time.Second
	c := NewCore(7, ttl)
	a, b := subscriberAt(4000), subscriberAt(4001)
	c.Subscribe(a, []uint16{3, 4}, 0)
	c.Subscribe(b, []uint16{3}, 0)
	if n := c.Subscribers(ttl); n != 3 {
		t.Fatalf("Subscribers = %d, want 3 leases", n)
	}
	c.Subscribe(b, []uint16{3}, 6*time.Second)
	if n := c.Subscribers(ttl + 1); n != 1 {
		t.Fatalf("Subscribers past a's expiry = %d, want b's renewed lease only", n)
	}
	if n := c.Subscribers(16*time.Second + 1); n != 0 {
		t.Fatalf("Subscribers past every expiry = %d", n)
	}
}

func TestCoreSequencesOnlyNewerVersions(t *testing.T) {
	c := NewCore(7, 0)
	k := kv.KeyFromString("cfg")
	for i, step := range []struct {
		seq   uint64
		fresh bool
		want  uint64 // stream seq stamped
	}{
		{seq: 2, fresh: true, want: 1},
		{seq: 2, fresh: false}, // replayed tail re-ack
		{seq: 1, fresh: false}, // stale
		{seq: 3, fresh: true, want: 2},
	} {
		ev, fresh, _ := publish(c, 3, k, step.seq, 0)
		if fresh != step.fresh || ev.StreamSeq != step.want {
			t.Fatalf("step %d (version %d): fresh=%v stream seq %d, want %v %d",
				i, step.seq, fresh, ev.StreamSeq, step.fresh, step.want)
		}
	}
	if st := c.Stats(); st != (CoreStats{EventsIn: 4, EventsDup: 2, EventsOut: 2}) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCoreStampsItsEpoch(t *testing.T) {
	for _, epoch := range []uint16{0, 1, 0xbeef} {
		c := NewCore(epoch, 0)
		for i := uint64(1); i <= 4; i++ {
			g := uint16(i % 2)
			ev, fresh, _ := publish(c, g, kv.KeyFromUint64(i), 1, 0)
			if !fresh || ev.Epoch != epoch || ev.StreamSeq != (i+1)/2 {
				t.Fatalf("epoch %d, event %d: fresh=%v epoch %d seq %d", epoch, i, fresh, ev.Epoch, ev.StreamSeq)
			}
		}
	}
}

func TestCorePublishDoesNotAllocate(t *testing.T) {
	c := NewCore(7, time.Hour)
	c.Subscribe(subscriberAt(4000), []uint16{3}, 0)
	c.Subscribe(subscriberAt(4001), []uint16{3}, 0)
	ev := query.Event{Key: kv.KeyFromString("cfg"), Group: 3}
	to := make([]*net.UDPAddr, 0, 2)
	allocs := testing.AllocsPerRun(100, func() {
		ev.Version.Seq++
		var fresh bool
		if to, fresh = c.Publish(&ev, time.Second, to[:0]); !fresh || len(to) != 2 {
			t.Fatalf("fresh=%v targets=%d", fresh, len(to))
		}
	})
	if allocs != 0 {
		t.Fatalf("Publish allocates %.1f times per event", allocs)
	}
}

// TestCoreConcurrentDrivers: the Server's ingest goroutine publishes while
// its control goroutine subscribes and a metrics scrape counts leases.
func TestCoreConcurrentDrivers(t *testing.T) {
	c := NewCore(7, time.Second)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		var to []*net.UDPAddr
		for i := uint64(1); i <= 500; i++ {
			ev := query.Event{Key: kv.KeyFromUint64(i % 8), Version: kv.Version{Seq: i}, Group: uint16(i % 4)}
			to, _ = c.Publish(&ev, time.Duration(i)*time.Millisecond, to[:0])
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			src := subscriberAt(4000 + i%16)
			c.Subscribe(src, []uint16{uint16(i % 4)}, time.Duration(i)*time.Millisecond)
			if i%3 == 0 {
				c.Unsubscribe(src, []uint16{uint16(i % 4)})
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			c.Subscribers(time.Duration(i) * time.Millisecond)
		}
	}()
	wg.Wait()
	if st := c.Stats(); st.EventsIn != 500 || st.EventsIn != st.EventsDup+st.EventsOut {
		t.Fatalf("stats = %+v", st)
	}
}
