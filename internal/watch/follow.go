package watch

import (
	"context"
	"errors"
	"time"

	"netchain/internal/kv"
	"netchain/internal/query"
)

// Follower keeps a Sub converged on a live relay stream: Deliver feeds it
// the stream, and Run re-reads what the stream cannot vouch for — every
// key at first, the keys a stream gap or a failed read left dirty, and
// every key again on each anti-entropy sweep. The façade's Client.Watch,
// netchainctl watch and the real-wire chaos harness all follow through it.
type Follower struct {
	sub  *Sub
	read func(kv.Key) (kv.Value, kv.Version, error)
	kick chan struct{}
}

// NewFollower builds a follower for sub. read is a linearizable read; an
// error wrapping kv.ErrNotFound reports the key absent, any other error
// leaves it dirty for the next resync.
func NewFollower(sub *Sub, read func(kv.Key) (kv.Value, kv.Version, error)) *Follower {
	return &Follower{sub: sub, read: read, kick: make(chan struct{}, 1)}
}

// Deliver applies one relay event and, when it exposes a stream gap, wakes
// Run to re-read the dirty keys. It is the relay subscription's callback
// and never blocks.
func (f *Follower) Deliver(ev query.Event) {
	if f.sub.ApplyEvent(ev) {
		select {
		case f.kick <- struct{}{}:
		default:
		}
	}
}

// Run fetches every key's state, then re-reads the dirty keys after each
// gap Deliver reports and every resync (0 disables the periodic re-read;
// gaps still trigger one), and marks every key dirty every antiEntropy
// (0 disables the sweep). When ctx ends it closes the Sub, which closes
// its event channel.
func (f *Follower) Run(ctx context.Context, resync, antiEntropy time.Duration) {
	var tick, sweep <-chan time.Time
	if resync > 0 {
		t := time.NewTicker(resync)
		defer t.Stop()
		tick = t.C
	}
	if antiEntropy > 0 {
		t := time.NewTicker(antiEntropy)
		defer t.Stop()
		sweep = t.C
	}
	f.run(ctx, tick, sweep)
}

func (f *Follower) run(ctx context.Context, tick, sweep <-chan time.Time) {
	defer f.sub.Close()
	f.readDirty()
	for {
		select {
		case <-ctx.Done():
			return
		case <-f.kick:
		case <-tick:
		case <-sweep:
			f.sub.MarkDirty()
		}
		f.readDirty()
	}
}

func (f *Follower) readDirty() {
	for _, k := range f.sub.TakeDirty() {
		v, ver, err := f.read(k)
		switch {
		case err == nil:
			f.sub.ApplyRead(k, true, v, ver)
		case errors.Is(err, kv.ErrNotFound):
			f.sub.ApplyRead(k, false, nil, ver)
		default:
			f.sub.MarkDirty(k) // transient failure: retry next tick
		}
	}
}
