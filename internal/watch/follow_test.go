package watch

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/query"
)

// The rig's timer periods: a resync tick every rigResync, a sweep every
// rigSweep.
const rigResync, rigSweep = time.Millisecond, 10 * time.Millisecond

// followRig runs a Follower on the simulator's clock against a scripted
// store: reads are logged in the order they are issued and answered at the
// same simulated instant, and the test advances time by hand, so it
// asserts on which reads happened and never on how long anything took.
type followRig struct {
	sim    *event.Sim
	sub    *Sub
	f      *Follower
	timers bool
	cancel context.CancelFunc

	reads  []kv.Key        // issued since the last expect
	fail   map[kv.Key]int  // reads of a key that still fail before it succeeds
	absent map[kv.Key]bool // keys the store does not hold
	seq    uint64
}

var (
	fa, fb, fc = kv.KeyFromString("a"), kv.KeyFromString("b"), kv.KeyFromString("c")
	fGroup     = map[kv.Key]uint16{fa: 1, fb: 2, fc: 1}
)

// newFollowRig starts the follower with the rig's periods, or with no
// timers at all.
func newFollowRig(timers bool, fail map[kv.Key]int, absent ...kv.Key) *followRig {
	r := &followRig{sim: event.New(), timers: timers, fail: fail, absent: make(map[kv.Key]bool)}
	for _, k := range absent {
		r.absent[k] = true
	}
	r.sub = NewSub([]kv.Key{fa, fb, fc}, func(k kv.Key) uint16 { return fGroup[k] }, 16)
	r.f = NewFollower(r.sub, r.sim.Clock(), r.read)
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	var resync, sweep time.Duration
	if timers {
		resync, sweep = rigResync, rigSweep
	}
	r.f.Start(ctx, resync, sweep, nil)
	return r
}

// read logs k and answers it as an event at the current instant.
func (r *followRig) read(k kv.Key, done func(kv.Value, kv.Version, error)) {
	r.reads = append(r.reads, k)
	r.sim.After(0, func() {
		if r.fail[k] > 0 {
			r.fail[k]--
			done(nil, kv.Version{}, kv.ErrTimeout)
			return
		}
		if r.absent[k] {
			done(nil, kv.Version{}, fmt.Errorf("scripted: %w", kv.ErrNotFound))
			return
		}
		r.seq++
		done(kv.Value("v"), kv.Version{Session: 1, Seq: r.seq}, nil)
	})
}

// expect lets the answers due now land, then checks the reads issued
// since the last expect are exactly want, in any order.
func (r *followRig) expect(t *testing.T, phase string, want ...kv.Key) {
	t.Helper()
	r.sim.RunFor(0)
	got := make(map[kv.Key]int)
	for _, k := range r.reads {
		got[k]++
	}
	r.reads = nil
	for _, k := range want {
		got[k]--
	}
	for k, n := range got {
		if n != 0 {
			t.Fatalf("%s: key %q read %+d times off the expected %v", phase, k.String(), n, want)
		}
	}
}

// stop cancels the context and lets the follower observe it — at its next
// timer, or, with none armed, at the next delivery — then checks it read
// nothing beyond what the test expected and closed the Sub.
func (r *followRig) stop(t *testing.T) {
	t.Helper()
	r.cancel()
	r.sim.RunFor(event.Duration(rigSweep))
	if !r.timers {
		r.f.Deliver(query.Event{Key: fa, Version: kv.Version{Session: 9, Seq: 1}, Group: 1, StreamSeq: 1})
	}
	r.sim.RunFor(event.Duration(rigSweep))
	if len(r.reads) != 0 {
		t.Fatalf("%d unexpected reads, first %q", len(r.reads), r.reads[0].String())
	}
	for {
		select {
		case _, open := <-r.sub.Events():
			if !open {
				return
			}
		default:
			t.Fatal("event channel still open after the context ended")
		}
	}
}

func TestFollower(t *testing.T) {
	cases := []struct {
		name     string
		noTimers bool
		fail     map[kv.Key]int
		absent   []kv.Key
		drive    func(t *testing.T, r *followRig)
	}{
		{
			name:   "initial fetch reads each key once; absent is an answer",
			absent: []kv.Key{fc},
			drive: func(t *testing.T, r *followRig) {
				r.sim.RunFor(event.Duration(rigResync)) // nothing dirty: the tick reads nothing
			},
		},
		{
			name: "stream gap re-reads only the gap's group",
			drive: func(t *testing.T, r *followRig) {
				r.f.Deliver(query.Event{Key: fa, Version: kv.Version{Session: 2, Seq: 1}, Group: 1, StreamSeq: 1})
				r.f.Deliver(query.Event{Key: fa, Version: kv.Version{Session: 2, Seq: 3}, Group: 1, StreamSeq: 3})
				r.expect(t, "gap", fa, fc)
			},
		},
		{
			name: "failed read is retried on the next tick",
			fail: map[kv.Key]int{fb: 1},
			drive: func(t *testing.T, r *followRig) {
				r.sim.RunFor(event.Duration(rigResync))
				r.expect(t, "retry", fb)
				r.sim.RunFor(event.Duration(rigResync)) // the retry succeeded: nothing left dirty
			},
		},
		{
			// A zero resync and anti-entropy arm no timers at all; a gap
			// still triggers its re-read.
			name:     "zero resync and anti-entropy: no tickers, gaps still re-read",
			noTimers: true,
			drive: func(t *testing.T, r *followRig) {
				r.f.Deliver(query.Event{Key: fb, Version: kv.Version{Session: 2, Seq: 1}, Group: 2, StreamSeq: 1})
				r.f.Deliver(query.Event{Key: fb, Version: kv.Version{Session: 2, Seq: 3}, Group: 2, StreamSeq: 3})
				r.expect(t, "gap", fb)
				if r.sim.RunFor(event.Duration(rigSweep)); r.sim.Pending() != 0 {
					t.Fatalf("%d events pending with no timers armed", r.sim.Pending())
				}
			},
		},
		{
			name: "anti-entropy sweep re-reads every key",
			drive: func(t *testing.T, r *followRig) {
				r.sim.RunFor(event.Duration(rigSweep))
				r.expect(t, "sweep", fa, fb, fc)
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newFollowRig(!c.noTimers, c.fail, c.absent...)
			r.expect(t, "initial fetch", fa, fb, fc)
			c.drive(t, r)
			r.stop(t)
		})
	}
}

// TestAbsentReadOlderThanEventDeletesNothing: the initial read of a key
// is issued, an event then creates the key at 0.1, and only then does the
// read answer not-found. The read carries no version and may predate the
// create, so it must not delete the key: the view stays at 0.1, no Deleted
// is published, and the key waits dirty for a read that decides.
func TestAbsentReadOlderThanEventDeletesNothing(t *testing.T) {
	r := newFollowRig(false, nil, fa)
	created := kv.Version{Seq: 1}
	r.f.Deliver(query.Event{Key: fa, Value: kv.Value("new"), Version: created, Group: 1, StreamSeq: 1})
	r.expect(t, "initial fetch", fa, fb, fc)
	for _, ev := range drain(r.sub.Events()) {
		if ev.Key == fa && ev.Type != Created {
			t.Errorf("published %+v for a key the stream created", ev)
		}
	}
	if present, ver, _ := r.sub.State(fa); !present || ver != created {
		t.Fatalf("view of the created key: present=%v version=%v, want present at %v", present, ver, created)
	}
	if dirty := r.sub.TakeDirty(); len(dirty) != 1 || dirty[0] != fa {
		t.Fatalf("dirty after the stale absent read = %v, want [a]", dirty)
	}
	r.stop(t)
}

// TestSerial pins the wire read adapter: one read in flight at a time, in
// the order asked, and a read of a key already waiting joins it — so a
// sweep piled up behind a slow read adds no second read of a key.
func TestSerial(t *testing.T) {
	var (
		mu       sync.Mutex
		started  []kv.Key
		inflight int
		peak     int
	)
	release := make(chan struct{})
	began := make(chan struct{}, 16)
	read := Serial(func(k kv.Key) (kv.Value, kv.Version, error) {
		mu.Lock()
		started = append(started, k)
		inflight++
		peak = max(peak, inflight)
		seq := uint64(len(started))
		mu.Unlock()
		began <- struct{}{}
		<-release
		mu.Lock()
		inflight--
		mu.Unlock()
		return kv.Value("v"), kv.Version{Session: 1, Seq: seq}, nil
	})

	got := make(map[string]uint64)
	var wg sync.WaitGroup
	ask := func(name string, k kv.Key) {
		wg.Add(1)
		read(k, func(_ kv.Value, ver kv.Version, err error) {
			mu.Lock()
			got[name] = ver.Seq
			mu.Unlock()
			wg.Done()
		})
	}
	ask("a1", fa)
	<-began // a is in flight; what follows waits behind it
	ask("b1", fb)
	ask("c1", fc)
	ask("b2", fb)      // joins the waiting read of b
	ask("a2", fa)      // a is in flight, not waiting: a second read
	for i := range 4 { // release each read; the next one then begins
		release <- struct{}{}
		if i < 3 {
			<-began
		}
	}
	wg.Wait()

	if want := []kv.Key{fa, fb, fc, fa}; fmt.Sprint(started) != fmt.Sprint(want) {
		t.Fatalf("reads %v, want %v", started, want)
	}
	if peak != 1 {
		t.Fatalf("%d reads in flight at once, want 1", peak)
	}
	want := map[string]uint64{"a1": 1, "b1": 2, "b2": 2, "c1": 3, "a2": 4}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("answers %v, want %v", got, want)
	}
}
