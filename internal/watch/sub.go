package watch

import (
	"slices"
	"sync"

	"netchain/internal/kv"
	"netchain/internal/query"
)

// Sub is one push-watch subscription: a set of watched keys, their
// last-published state, and per-group stream-sequence tracking for gap
// detection. It is a pure state machine — substrates (real transport,
// simulator, pollers) feed it relay events via ApplyEvent and versioned
// read results via ApplyRead, and it publishes deduplicated change events
// on a buffered channel.
//
// Correctness model: every event carries the mutation's (session, seq)
// version, so duplicated or reordered events are suppressed exactly (a
// subscriber never moves backwards). Loss is detected through the relay's
// per-group stream sequence: a hole means events in that group were
// missed, so the Sub marks every watched key of the group dirty and the
// substrate resynchronizes them with linearizable reads. A lost *final*
// event has no following sequence number to expose it, which is why
// runners layer a periodic anti-entropy resync on top; both paths land in
// ApplyRead and converge the subscriber to the store's state.
type Sub struct {
	mu       sync.Mutex
	keys     map[kv.Key]*keyView
	groups   map[uint16][]kv.Key  // group → watched keys, for gap resync
	groupSeq map[uint16]streamPos // last relay (epoch, seq) seen per group
	dirty    map[kv.Key]struct{}  // keys needing a versioned-read resync
	ch       chan Event
	closed   bool
	stats    SubStats
}

// streamPos is a subscription's position in one group's relay stream:
// which incarnation of the relay's sequencer (epoch) and how far into
// its per-group sequence.
type streamPos struct {
	epoch uint16
	seq   uint64
}

// reorderSlack bounds how far behind the adopted position a same-epoch
// frame may arrive and still count as a duplicate/reordered delivery.
// Anything further back cannot be wire reordering (the egress path never
// holds a frame while dozens of successors pass it) — it means an
// epoch-less sequencer restarted, so the Sub treats it as a gap and
// resyncs instead of swallowing every post-restart event as "stale"
// until the sequence catches up, which for a busy group is forever.
const reorderSlack = 64

type keyView struct {
	present bool
	version kv.Version
	changes uint64 // transitions published so far (see applyAbsent)
}

// SubStats counts a subscription's event-plane activity.
type SubStats struct {
	Events   uint64 // change events published to the channel
	Dropped  uint64 // events coalesced away by a slow subscriber
	Stale    uint64 // duplicate/reordered frames suppressed by version
	Gaps     uint64 // stream-sequence holes observed (includes restarts)
	Restarts uint64 // relay restarts observed (epoch change / seq regression)
	Resyncs  uint64 // read results applied
}

// NewSub builds a subscription over the given keys. groupOf maps each key
// to its virtual group (from the directory's ring); buffer sizes the event
// channel (minimum 1). All keys start dirty: the substrate's initial
// resync reads publish Created events for keys that already exist.
func NewSub(keys []kv.Key, groupOf func(kv.Key) uint16, buffer int) *Sub {
	if buffer < 1 {
		buffer = 1
	}
	s := &Sub{
		keys:     make(map[kv.Key]*keyView, len(keys)),
		groups:   make(map[uint16][]kv.Key),
		groupSeq: make(map[uint16]streamPos),
		dirty:    make(map[kv.Key]struct{}, len(keys)),
		ch:       make(chan Event, buffer),
	}
	for _, k := range keys {
		if _, dup := s.keys[k]; dup {
			continue
		}
		s.keys[k] = &keyView{}
		g := groupOf(k)
		s.groups[g] = append(s.groups[g], k)
		s.dirty[k] = struct{}{}
	}
	return s
}

// Events returns the subscription's delivery channel. It closes when the
// Sub is closed. Slow consumers coalesce: an event that does not fit the
// buffer is dropped, the key is marked dirty, and a later resync delivers
// the latest state instead.
func (s *Sub) Events() <-chan Event { return s.ch }

// Keys returns the watched key set.
func (s *Sub) Keys() []kv.Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]kv.Key, 0, len(s.keys))
	for k := range s.keys {
		out = append(out, k)
	}
	return out
}

// Groups returns the virtual groups covering the watched keys — the set
// the substrate subscribes to at the relay.
func (s *Sub) Groups() []uint16 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint16, 0, len(s.groups))
	for g := range s.groups {
		out = append(out, g)
	}
	return out
}

// ApplyEvent feeds one relay event into the subscription and reports
// whether a stream gap was detected (the caller should then resync the
// keys returned by TakeDirty). Events for keys outside the watched set
// still advance the group's stream sequence — the relay fans out every
// event in a group, so unwatched keys' events prove continuity.
func (s *Sub) ApplyEvent(ev query.Event) (gap bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if ev.StreamSeq != 0 {
		pos, seen := s.groupSeq[ev.Group]
		next := streamPos{epoch: ev.Epoch, seq: ev.StreamSeq}
		switch {
		case !seen || (pos.epoch == ev.Epoch && ev.StreamSeq == pos.seq+1):
			s.groupSeq[ev.Group] = next
		case pos.epoch != ev.Epoch:
			// The relay's sequencer restarted (or we failed over to a
			// different relay): continuity across the boundary is
			// unprovable — anything committed while the relay was down
			// produced no event at all. Adopt the new incarnation and
			// resync the group.
			s.groupSeq[ev.Group] = next
			s.stats.Gaps++
			s.stats.Restarts++
			gap = true
			for _, k := range s.groups[ev.Group] {
				s.dirty[k] = struct{}{}
			}
		case ev.StreamSeq <= pos.seq:
			if pos.seq-ev.StreamSeq > reorderSlack {
				// A same-epoch sequence this far behind is not wire
				// reordering — it is an epoch-less restarted relay
				// counting from 1 again. Without this, every restarted
				// event reads as "duplicate" and the subscription stalls
				// until the new sequence overtakes the old one.
				s.groupSeq[ev.Group] = next
				s.stats.Gaps++
				s.stats.Restarts++
				gap = true
				for _, k := range s.groups[ev.Group] {
					s.dirty[k] = struct{}{}
				}
			}
			// Otherwise: duplicate or reordered-behind frame. The version
			// check below suppresses any stale publish; do not move the
			// sequence backwards.
		default:
			// Hole: events were lost between pos.seq and StreamSeq. Adopt
			// the new position and schedule reads for every watched key
			// in the group — the reads, not the lost events, converge us.
			s.groupSeq[ev.Group] = next
			s.stats.Gaps++
			gap = true
			for _, k := range s.groups[ev.Group] {
				s.dirty[k] = struct{}{}
			}
		}
	}
	st, watched := s.keys[ev.Key]
	if !watched {
		return gap
	}
	s.publishLocked(st, ev.Key, !ev.Deleted, ev.Value, ev.Version)
	return gap
}

// ApplyRead feeds the result of a versioned read (initial fetch, gap
// resync or anti-entropy pass). Not-found reads pass present=false with a
// zero version.
func (s *Sub) ApplyRead(k kv.Key, present bool, val kv.Value, ver kv.Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applyReadLocked(k, present, val, ver)
}

func (s *Sub) applyReadLocked(k kv.Key, present bool, val kv.Value, ver kv.Version) {
	if s.closed {
		return
	}
	st, watched := s.keys[k]
	if !watched {
		return
	}
	s.stats.Resyncs++
	delete(s.dirty, k)
	s.publishLocked(st, k, present, val, ver)
}

// stamp returns how many transitions k's view has published — taken as a
// resync read of k is issued, and handed back with its answer if the key
// turns out absent.
func (s *Sub) stamp(k kv.Key) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.keys[k]; ok {
		return st.changes
	}
	return 0
}

// applyAbsent feeds a not-found read of k, issued when its view stood at
// stamp. Such a read has no version to order it against events: if the
// view moved after the read was issued, the read may predate the event
// that moved it, and a Deleted would report a delete that never happened.
// The key is marked dirty instead, and the next read decides.
func (s *Sub) applyAbsent(k kv.Key, stamp uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.keys[k]; ok && !s.closed && st.changes != stamp {
		s.dirty[k] = struct{}{}
		return
	}
	s.applyReadLocked(k, false, nil, kv.Version{})
}

// publishLocked applies the version-ordered state transition and emits at
// most one event. Deletions advance the version to the tombstone's pair
// (when known) so reordered pre-delete updates are suppressed.
func (s *Sub) publishLocked(st *keyView, k kv.Key, present bool, val kv.Value, ver kv.Version) {
	var ev Event
	switch {
	case present && !st.present && st.version.Less(ver):
		ev = Event{Type: Created, Key: k, Value: val, Version: ver}
	case present && st.present && st.version.Less(ver):
		ev = Event{Type: Updated, Key: k, Value: val, Version: ver}
	case !present && st.present:
		// Push deletes carry the tombstone version; read-discovered
		// deletes carry a zero version and keep the last-seen pair.
		if !ver.IsZero() && !st.version.Less(ver) {
			s.stats.Stale++
			return
		}
		ev = Event{Type: Deleted, Key: k, Version: st.version}
		if !ver.IsZero() {
			ev.Version = ver
		}
	default:
		if present {
			s.stats.Stale++
		}
		return
	}
	st.present = present
	if !ver.IsZero() {
		st.version = ver
	}
	st.changes++
	select {
	case s.ch <- ev:
		s.stats.Events++
	default:
		// Coalesce: drop the event, let a later resync republish the
		// newest state. State already advanced, so the subscriber never
		// sees a stale event after the drop.
		s.stats.Dropped++
		s.dirty[k] = struct{}{}
	}
}

// State reports the subscription's current view of k (for convergence
// checks and tests).
func (s *Sub) State(k kv.Key) (present bool, ver kv.Version, watched bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.keys[k]
	if !ok {
		return false, kv.Version{}, false
	}
	return st.present, st.version, true
}

// TakeDirty drains and returns the keys awaiting resync, in byte order so
// the reads a caller issues for them are the same on every run. The caller
// issues versioned reads for them and feeds results to ApplyRead; keys
// whose reads fail should be re-marked with MarkDirty.
func (s *Sub) TakeDirty() []kv.Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.dirty) == 0 {
		return nil
	}
	out := make([]kv.Key, 0, len(s.dirty))
	for k := range s.dirty {
		out = append(out, k)
		delete(s.dirty, k)
	}
	slices.SortFunc(out, kv.Key.Compare)
	return out
}

// MarkDirty schedules keys for resync (failed reads, anti-entropy ticks).
// Unwatched keys are ignored. With no arguments it marks every watched
// key — a full anti-entropy pass.
func (s *Sub) MarkDirty(keys ...kv.Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if len(keys) == 0 {
		for k := range s.keys {
			s.dirty[k] = struct{}{}
		}
		return
	}
	for _, k := range keys {
		if _, ok := s.keys[k]; ok {
			s.dirty[k] = struct{}{}
		}
	}
}

// Stats snapshots the subscription counters.
func (s *Sub) Stats() SubStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close shuts the subscription: the event channel closes and further
// Apply calls are ignored. Idempotent.
func (s *Sub) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.ch)
}
