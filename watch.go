package netchain

import (
	"context"
	"fmt"
	"time"

	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/simclient"
	"netchain/internal/watch"
)

// WatchEvent is a change notification from a watch stream.
type WatchEvent = watch.Event

// Watch event types.
const (
	WatchCreated = watch.Created
	WatchUpdated = watch.Updated
	WatchDeleted = watch.Deleted
)

// WatchOption tunes a Watch call.
type WatchOption func(*watchOpts)

type watchOpts struct {
	buffer      int
	resync      time.Duration // dirty-key read retry / gap-resync cadence
	antiEntropy time.Duration // full re-read sweep period; 0 disables
}

func buildWatchOpts(opts []WatchOption) watchOpts {
	o := watchOpts{
		buffer:      64,
		resync:      200 * time.Millisecond,
		antiEntropy: 10 * time.Second,
	}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithWatchBuffer sizes the event channel. Slow consumers coalesce: when
// the buffer is full the event is dropped, the key is marked dirty, and a
// later resync delivers the newest state instead — subscribers may miss
// intermediate values, never the final one.
func WithWatchBuffer(n int) WatchOption { return func(o *watchOpts) { o.buffer = n } }

// WithResyncInterval sets the cadence at which keys marked dirty (stream
// gaps, failed reads, overflow drops) are re-read. When nothing is dirty
// a tick issues no reads at all — the steady state of a push watch.
func WithResyncInterval(d time.Duration) WatchOption {
	return func(o *watchOpts) { o.resync = d }
}

// WithAntiEntropy sets the period of the full re-read sweep that catches
// a lost *final* event (which no later stream sequence can expose).
// 0 disables the sweep.
func WithAntiEntropy(d time.Duration) WatchOption {
	return func(o *watchOpts) { o.antiEntropy = d }
}

// Watch subscribes to server-push notifications for keys. Events arrive
// on the returned channel until ctx is cancelled (the channel then
// closes). Delivery semantics:
//
//   - every watched key that exists produces an initial Created event
//     (the state fetch), then one event per observed change;
//   - events are version-ordered per key; duplicates and reordered frames
//     are suppressed, so the stream never moves backwards;
//   - relay stream-sequence gaps trigger linearizable re-reads of the
//     affected keys, and a periodic anti-entropy sweep bounds the
//     staleness window of a lost final event — the stream converges to
//     the store's state under loss, duplication and reordering.
//
// The push path costs zero reads while the stream is healthy.
func (cl *Client) Watch(ctx context.Context, keys []Key, opts ...WatchOption) (<-chan WatchEvent, error) {
	o := buildWatchOpts(opts)
	if len(keys) == 0 {
		return nil, fmt.Errorf("netchain: Watch needs at least one key")
	}
	ctl := cl.cluster.Controller()
	sub := watch.NewSub(keys, func(k kv.Key) uint16 { return ctl.Route(k).Group }, o.buffer)
	f := watch.NewFollower(sub, event.NewWall(1), watch.Serial(cl.Read))
	claddr, _ := cl.Ops.Client.Endpoint()
	conn, err := cl.cluster.Subscribe(claddr, sub.Groups(), f.Deliver)
	if err != nil {
		sub.Close()
		return nil, err
	}
	// conn.Close waits for the goroutine that runs Deliver, so the
	// follower is ended from ctx's own goroutine, never from a delivery.
	f.Start(context.Background(), o.resync, o.antiEntropy, func() { _ = conn.Close() })
	context.AfterFunc(ctx, f.Close)
	return sub.Events(), nil
}

// Watch subscribes to server-push notifications for keys on the
// simulated cluster — same contract as Client.Watch. The sim relay tier
// attaches on first use; events and resync reads resolve while simulated
// time advances (RunFor), so drain the channel between RunFor calls.
// Cancelling ctx tears the stream down at the next delivery or timer
// firing (give the simulator a tick of time to observe it).
func (sc *SimClient) Watch(ctx context.Context, keys []Key, opts ...WatchOption) (<-chan WatchEvent, error) {
	o := buildWatchOpts(opts)
	if len(keys) == 0 {
		return nil, fmt.Errorf("netchain: Watch needs at least one key")
	}
	sr, err := sc.s.d.AttachRelay()
	if err != nil {
		return nil, err
	}
	ctl := sc.s.d.Ctl
	sub := watch.NewSub(keys, func(k kv.Key) uint16 { return ctl.Route(k).Group }, o.buffer)
	f := watch.NewFollower(sub, sc.s.d.Sim.Clock(), func(k kv.Key, done func(kv.Value, kv.Version, error)) {
		sc.c.Do(query.Call{Op: kv.OpRead, Key: k}, func(res simclient.Result) {
			_, err := res.Outcome()
			done(res.Value, res.Version, err)
		})
	})
	port, release := sc.mux.Sink(func(fr *packet.Frame) {
		if fr.NC.Op != kv.OpEvent {
			return
		}
		if ev, err := query.ParseEvent(fr); err == nil {
			f.Deliver(ev)
		}
	})
	var joined []uint16
	leave := func() {
		for _, g := range joined {
			sr.Leave(g, sc.mux.Addr(), port)
		}
		release()
	}
	for _, g := range sub.Groups() {
		if err := sr.Join(g, sc.mux.Addr(), port); err != nil {
			leave()
			sub.Close()
			return nil, err
		}
		joined = append(joined, g)
	}
	f.Start(ctx, o.resync, o.antiEntropy, leave)
	return sub.Events(), nil
}
