package netchain

import (
	"context"
	"fmt"
	"time"

	"netchain/internal/event"
	"netchain/internal/experiments"
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
	f := watch.NewFollower(sub, cl.Read)
	claddr, _ := cl.Ops.Client.Endpoint()
	conn, err := cl.cluster.Subscribe(claddr, sub.Groups(), f.Deliver)
	if err != nil {
		sub.Close()
		return nil, err
	}
	go func() {
		defer conn.Close()
		f.Run(ctx, o.resync, o.antiEntropy)
	}()
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
	w := &simWatch{sc: sc, sr: sr, sub: sub, ctx: ctx}
	w.port, w.release = sc.mux.Sink(w.recv)
	for _, g := range sub.Groups() {
		if jerr := sr.Join(g, sc.mux.Addr(), w.port); jerr != nil {
			w.teardown()
			return nil, jerr
		}
		w.groups = append(w.groups, g)
	}
	w.readDirty() // initial state fetch resolves during stepping
	if o.resync > 0 {
		w.armTimer(event.Duration(o.resync), w.readDirty)
	}
	if o.antiEntropy > 0 {
		w.armTimer(event.Duration(o.antiEntropy), func() {
			w.sub.MarkDirty()
			w.readDirty()
		})
	}
	return sub.Events(), nil
}

// simWatch runs one push-watch stream inside the simulator. The sim is
// single-threaded: recv, read callbacks and timers all fire during
// stepping, so the only synchronization is the Sub's own lock.
type simWatch struct {
	sc      *SimClient
	sr      *experiments.SimRelay
	sub     *watch.Sub
	ctx     context.Context
	port    uint16
	release func()
	groups  []uint16
	closed  bool
}

// done checks for cancellation and tears the stream down on the first
// delivery point that observes it.
func (w *simWatch) done() bool {
	if w.closed {
		return true
	}
	if w.ctx.Err() != nil {
		w.teardown()
		return true
	}
	return false
}

func (w *simWatch) teardown() {
	if w.closed {
		return
	}
	w.closed = true
	for _, g := range w.groups {
		w.sr.Leave(g, w.sc.mux.Addr(), w.port)
	}
	w.release()
	w.sub.Close()
}

func (w *simWatch) recv(f *packet.Frame) {
	if w.done() || f.NC.Op != kv.OpEvent {
		return
	}
	ev, err := query.ParseEvent(f)
	if err != nil {
		return
	}
	if w.sub.ApplyEvent(ev) {
		w.readDirty()
	}
}

func (w *simWatch) readDirty() {
	for _, k := range w.sub.TakeDirty() {
		key := k
		w.sc.c.Read(key, func(res simclient.Result) {
			if w.done() {
				return
			}
			switch {
			case res.Err == nil && res.Status == kv.StatusOK:
				w.sub.ApplyRead(key, true, res.Value, res.Version)
			case res.Err == nil && res.Status == kv.StatusNotFound:
				w.sub.ApplyRead(key, false, nil, res.Version)
			default:
				w.sub.MarkDirty(key) // timeout/unavailable: retry next tick
			}
		})
	}
}

func (w *simWatch) armTimer(iv event.Time, fn func()) {
	w.sc.s.d.Sim.After(iv, func() {
		if w.done() {
			return
		}
		fn()
		w.armTimer(iv, fn)
	})
}
