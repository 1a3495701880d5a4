package watch

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"netchain/internal/kv"
	"netchain/internal/query"
)

// followRig runs a Follower against a scripted store: reads are logged in
// order on a channel, ticks and sweeps are fired by hand, so a test asserts
// on which reads happened and never on how long anything took.
type followRig struct {
	sub    *Sub
	f      *Follower
	tick   chan time.Time
	sweep  chan time.Time
	reads  chan kv.Key
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	fail   map[kv.Key]int // reads of a key that still fail before it succeeds
	absent map[kv.Key]bool
	seq    uint64
}

var (
	fa, fb, fc = kv.KeyFromString("a"), kv.KeyFromString("b"), kv.KeyFromString("c")
	fGroup     = map[kv.Key]uint16{fa: 1, fb: 2, fc: 1}
)

// newFollowRig starts the follower through run, or — when run is nil — on
// the rig's hand-fired tick and sweep channels.
func newFollowRig(run func(r *followRig, ctx context.Context), fail map[kv.Key]int, absent ...kv.Key) *followRig {
	r := &followRig{
		tick: make(chan time.Time), sweep: make(chan time.Time),
		reads: make(chan kv.Key, 64), done: make(chan struct{}),
		fail: fail, absent: make(map[kv.Key]bool),
	}
	for _, k := range absent {
		r.absent[k] = true
	}
	r.sub = NewSub([]kv.Key{fa, fb, fc}, func(k kv.Key) uint16 { return fGroup[k] }, 16)
	r.f = NewFollower(r.sub, r.read)
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	if run == nil {
		run = func(r *followRig, ctx context.Context) { r.f.run(ctx, r.tick, r.sweep) }
	}
	go func() {
		run(r, ctx)
		close(r.done)
	}()
	return r
}

func (r *followRig) read(k kv.Key) (kv.Value, kv.Version, error) {
	r.reads <- k
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fail[k] > 0 {
		r.fail[k]--
		return nil, kv.Version{}, kv.ErrTimeout
	}
	if r.absent[k] {
		return nil, kv.Version{}, fmt.Errorf("scripted: %w", kv.ErrNotFound)
	}
	r.seq++
	return kv.Value("v"), kv.Version{Session: 1, Seq: r.seq}, nil
}

// expect consumes the next len(want) reads and checks they are exactly
// want, in any order. The long wait only bounds a hung follower.
func (r *followRig) expect(t *testing.T, phase string, want ...kv.Key) {
	t.Helper()
	got := make(map[kv.Key]int)
	for range want {
		select {
		case k := <-r.reads:
			got[k]++
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: follower stalled after %v, want reads of %v", phase, got, want)
		}
	}
	for _, k := range want {
		got[k]--
	}
	for k, n := range got {
		if n != 0 {
			t.Fatalf("%s: key %q read %+d times off the expected %v", phase, k.String(), n, want)
		}
	}
}

// stop cancels the context, waits for the follower to return, and checks
// it read nothing beyond what the test expected and closed the Sub.
func (r *followRig) stop(t *testing.T) {
	t.Helper()
	r.cancel()
	<-r.done
	if n := len(r.reads); n != 0 {
		t.Fatalf("%d unexpected reads, first %q", n, (<-r.reads).String())
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
		name   string
		run    func(r *followRig, ctx context.Context)
		fail   map[kv.Key]int
		absent []kv.Key
		drive  func(t *testing.T, r *followRig)
	}{
		{
			name:   "initial fetch reads each key once; absent is an answer",
			absent: []kv.Key{fc},
			drive: func(t *testing.T, r *followRig) {
				r.tick <- time.Time{} // nothing dirty: the tick reads nothing
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
				r.tick <- time.Time{}
				r.expect(t, "retry", fb)
				r.tick <- time.Time{} // the retry succeeded: nothing left dirty
			},
		},
		{
			// SimClient.Watch reads a zero resync as "no periodic resync";
			// the wire follower must too, not panic in time.NewTicker.
			name: "zero resync and anti-entropy: no tickers, gaps still re-read",
			run:  func(r *followRig, ctx context.Context) { r.f.Run(ctx, 0, 0) },
			drive: func(t *testing.T, r *followRig) {
				r.f.Deliver(query.Event{Key: fb, Version: kv.Version{Session: 2, Seq: 1}, Group: 2, StreamSeq: 1})
				r.f.Deliver(query.Event{Key: fb, Version: kv.Version{Session: 2, Seq: 3}, Group: 2, StreamSeq: 3})
				r.expect(t, "gap", fb)
			},
		},
		{
			name: "anti-entropy sweep re-reads every key",
			drive: func(t *testing.T, r *followRig) {
				r.sweep <- time.Time{}
				r.expect(t, "sweep", fa, fb, fc)
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newFollowRig(c.run, c.fail, c.absent...)
			r.expect(t, "initial fetch", fa, fb, fc)
			c.drive(t, r)
			r.stop(t)
		})
	}
}
