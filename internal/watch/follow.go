package watch

import (
	"context"
	"errors"
	"sync"
	"time"

	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/query"
)

// Follower keeps a Sub converged on a relay stream: Deliver feeds it the
// stream, and it re-reads what the stream cannot vouch for — every key at
// first, the keys a stream gap or a failed read left dirty, and every key
// again on each anti-entropy sweep. It keeps time on a Clock and reads
// asynchronously, so one Follower serves both substrates: the façade's
// SimClient.Watch (on the simulator's clock) and Client.Watch, netchainctl
// watch and the real-wire chaos harness (on the wall).
type Follower struct {
	sub  *Sub
	clk  event.Clock
	read func(k kv.Key, done func(kv.Value, kv.Version, error))

	mu     sync.Mutex
	ctx    context.Context
	stop   func()
	closed bool
}

// NewFollower builds a follower for sub on clk. read starts a
// linearizable read of k without blocking and reports it to done; an error
// wrapping kv.ErrNotFound reports the key absent (unless the stream moved
// the key's view after the read was issued: then it stays dirty), any
// other error leaves it dirty for the next resync.
func NewFollower(sub *Sub, clk event.Clock, read func(k kv.Key, done func(kv.Value, kv.Version, error))) *Follower {
	return &Follower{sub: sub, clk: clk, read: read, ctx: context.Background()}
}

// Serial adapts a blocking read to a Follower's for the wire: reads run one
// at a time, in the order they were asked for, on a goroutine that lives
// while any is waiting. A read of a key that is already waiting joins that
// read, so however many sweeps and resyncs pile up behind a slow read, at
// most one read per key waits and one is in flight.
func Serial(read func(kv.Key) (kv.Value, kv.Version, error)) func(kv.Key, func(kv.Value, kv.Version, error)) {
	var (
		mu      sync.Mutex
		running bool
		queue   []kv.Key
		waiting = make(map[kv.Key][]func(kv.Value, kv.Version, error))
	)
	run := func() {
		for {
			mu.Lock()
			if len(queue) == 0 {
				running = false
				mu.Unlock()
				return
			}
			k := queue[0]
			queue = queue[1:]
			dones := waiting[k]
			delete(waiting, k)
			mu.Unlock()
			v, ver, err := read(k)
			for _, done := range dones {
				done(v, ver, err)
			}
		}
	}
	return func(k kv.Key, done func(kv.Value, kv.Version, error)) {
		mu.Lock()
		defer mu.Unlock()
		if _, ok := waiting[k]; !ok {
			queue = append(queue, k)
		}
		waiting[k] = append(waiting[k], done)
		if !running {
			running = true
			go run()
		}
	}
}

// Start fetches every key's state, then re-reads the dirty keys after each
// gap Deliver reports and every resync (0 disables the periodic re-read;
// gaps still trigger one), and marks every key dirty every antiEntropy
// (0 disables the sweep). The follower closes at the first delivery, read
// or timer that finds ctx ended, or at Close: it runs stop (the
// subscription's teardown; nil for none) and closes the Sub, which closes
// its event channel. A stop that waits for the goroutine running Deliver
// (a wire subscription's Close) must not run from Deliver: pass such a
// follower a ctx that never ends and end it with Close from elsewhere,
// e.g. context.AfterFunc.
func (f *Follower) Start(ctx context.Context, resync, antiEntropy time.Duration, stop func()) {
	f.mu.Lock()
	f.ctx, f.stop = ctx, stop
	f.mu.Unlock()
	f.readDirty()
	if resync > 0 {
		f.every(resync, f.readDirty)
	}
	if antiEntropy > 0 {
		f.every(antiEntropy, func() {
			f.sub.MarkDirty()
			f.readDirty()
		})
	}
}

// Deliver applies one relay event and, when it exposes a stream gap,
// re-reads the dirty keys. It is the relay subscription's callback and
// never blocks.
func (f *Follower) Deliver(ev query.Event) {
	if f.done() {
		return
	}
	if f.sub.ApplyEvent(ev) {
		f.readDirty()
	}
}

// Close ends the follower now; later deliveries, reads and timers are
// dropped. It is idempotent.
func (f *Follower) Close() {
	f.mu.Lock()
	closed, stop := f.closed, f.stop
	f.closed = true
	f.mu.Unlock()
	if closed {
		return
	}
	if stop != nil {
		stop()
	}
	f.sub.Close()
}

// done reports whether the follower has closed, closing it first if its
// context has ended.
func (f *Follower) done() bool {
	f.mu.Lock()
	closed, ctx := f.closed, f.ctx
	f.mu.Unlock()
	if !closed && ctx.Err() != nil {
		f.Close()
		return true
	}
	return closed
}

func (f *Follower) every(iv time.Duration, fn func()) {
	f.clk.After(iv, func() {
		if f.done() {
			return
		}
		fn()
		f.every(iv, fn)
	})
}

func (f *Follower) readDirty() {
	for _, k := range f.sub.TakeDirty() {
		stamp := f.sub.stamp(k)
		f.read(k, func(v kv.Value, ver kv.Version, err error) {
			if f.done() {
				return
			}
			switch {
			case err == nil:
				f.sub.ApplyRead(k, true, v, ver)
			case errors.Is(err, kv.ErrNotFound):
				f.sub.applyAbsent(k, stamp)
			default:
				f.sub.MarkDirty(k) // transient failure: retry next tick
			}
		})
	}
}
