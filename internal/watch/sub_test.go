package watch

import (
	"bytes"
	"slices"
	"testing"

	"netchain/internal/kv"
	"netchain/internal/query"
)

func groupMod4(k kv.Key) uint16 { return uint16(k.Uint64() % 4) }

func ev(key uint64, seq uint64, stream uint64, val string) query.Event {
	return query.Event{
		Key:       kv.KeyFromUint64(key),
		Value:     kv.Value(val),
		Version:   kv.Version{Seq: seq},
		Group:     groupMod4(kv.KeyFromUint64(key)),
		StreamSeq: stream,
	}
}

func delEv(key uint64, seq uint64, stream uint64) query.Event {
	e := ev(key, seq, stream, "")
	e.Value = nil
	e.Deleted = true
	return e
}

func drain(ch <-chan Event) []Event {
	var out []Event
	for {
		select {
		case e := <-ch:
			out = append(out, e)
		default:
			return out
		}
	}
}

// Happy path: in-order events produce exactly one change each, no resync.
func TestSubInOrderDelivery(t *testing.T) {
	k := kv.KeyFromUint64(4) // group 0
	s := NewSub([]kv.Key{k}, groupMod4, 64)
	defer s.Close()

	if gap := s.ApplyEvent(ev(4, 1, 1, "a")); gap {
		t.Fatal("first event must not report a gap")
	}
	if gap := s.ApplyEvent(ev(4, 2, 2, "b")); gap {
		t.Fatal("sequential event must not report a gap")
	}
	got := drain(s.Events())
	if len(got) != 2 || got[0].Type != Created || got[1].Type != Updated {
		t.Fatalf("events = %+v", got)
	}
	// Initial dirty mark (pre-fetch) is still pending, nothing else.
	if st := s.Stats(); st.Gaps != 0 || st.Stale != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// A dropped frame shows up as a stream-sequence hole: the sub must demand
// a resync of the group's watched keys, and the versioned read converges it.
func TestSubGapTriggersResync(t *testing.T) {
	k := kv.KeyFromUint64(4)
	s := NewSub([]kv.Key{k}, groupMod4, 64)
	defer s.Close()
	s.TakeDirty() // clear the initial-fetch marks

	s.ApplyEvent(ev(4, 1, 1, "a"))
	// stream 2 lost (carried version 2); stream 3 arrives.
	if gap := s.ApplyEvent(ev(8, 7, 3, "other-key")); !gap {
		t.Fatal("hole must report a gap")
	}
	dirty := s.TakeDirty()
	if len(dirty) != 1 || dirty[0] != k {
		t.Fatalf("dirty = %v, want [%v]", dirty, k)
	}
	// The resync read returns the state the lost event carried.
	s.ApplyRead(k, true, kv.Value("b"), kv.Version{Seq: 2})
	got := drain(s.Events())
	if len(got) != 2 || got[1].Type != Updated || got[1].Version.Seq != 2 {
		t.Fatalf("events = %+v", got)
	}
	if present, ver, _ := s.State(k); !present || ver.Seq != 2 {
		t.Fatalf("state = %v %v", present, ver)
	}
	if st := s.Stats(); st.Gaps != 1 {
		t.Fatalf("gaps = %d, want 1", st.Gaps)
	}
}

// Duplicated frames (relay retransmit, tail re-ack of a replayed write)
// must be suppressed by the version order, not delivered twice.
func TestSubDuplicateSuppressed(t *testing.T) {
	k := kv.KeyFromUint64(4)
	s := NewSub([]kv.Key{k}, groupMod4, 64)
	defer s.Close()

	s.ApplyEvent(ev(4, 1, 1, "a"))
	if gap := s.ApplyEvent(ev(4, 1, 1, "a")); gap {
		t.Fatal("duplicate must not report a gap")
	}
	got := drain(s.Events())
	if len(got) != 1 {
		t.Fatalf("duplicate delivered: %+v", got)
	}
	if st := s.Stats(); st.Stale != 1 {
		t.Fatalf("stale = %d, want 1", st.Stale)
	}
}

// Reordered frames: the newer version arriving first wins; the older one
// is suppressed even though its stream seq fills the hole's position.
func TestSubReorderSuppressed(t *testing.T) {
	k := kv.KeyFromUint64(4)
	s := NewSub([]kv.Key{k}, groupMod4, 64)
	defer s.Close()
	s.TakeDirty()

	s.ApplyEvent(ev(4, 1, 1, "a"))
	if gap := s.ApplyEvent(ev(4, 3, 3, "c")); !gap {
		t.Fatal("jump must report a gap")
	}
	// The delayed middle frame arrives late: stale, no event, no regression.
	if gap := s.ApplyEvent(ev(4, 2, 2, "b")); gap {
		t.Fatal("late frame must not report a gap")
	}
	got := drain(s.Events())
	if n := len(got); n != 2 {
		t.Fatalf("events = %+v", got)
	}
	if present, ver, _ := s.State(k); !present || ver.Seq != 3 {
		t.Fatalf("state regressed: %v %v", present, ver)
	}
}

// A reordered pre-delete update must not resurrect a deleted key.
func TestSubDeleteOrdering(t *testing.T) {
	k := kv.KeyFromUint64(4)
	s := NewSub([]kv.Key{k}, groupMod4, 64)
	defer s.Close()

	s.ApplyEvent(ev(4, 1, 1, "a"))
	s.ApplyEvent(delEv(4, 3, 2))
	// Update with version 2 was reordered behind the tombstone (version 3).
	s.ApplyEvent(ev(4, 2, 3, "zombie"))
	got := drain(s.Events())
	if len(got) != 2 || got[1].Type != Deleted || got[1].Version.Seq != 3 {
		t.Fatalf("events = %+v", got)
	}
	if present, _, _ := s.State(k); present {
		t.Fatal("stale update resurrected a deleted key")
	}
	// Genuine recreation (newer than the tombstone) still fires.
	s.ApplyEvent(ev(4, 4, 4, "back"))
	got = drain(s.Events())
	if len(got) != 1 || got[0].Type != Created {
		t.Fatalf("recreate events = %+v", got)
	}
}

// Unwatched keys' events keep the stream position honest: continuity via
// other keys' traffic must not be mistaken for loss, and holes spanning
// only unwatched keys still dirty the watched set (the lost frame might
// have been ours — only the read can tell).
func TestSubUnwatchedTrafficAdvancesStream(t *testing.T) {
	k := kv.KeyFromUint64(4)
	s := NewSub([]kv.Key{k}, groupMod4, 64)
	defer s.Close()
	s.TakeDirty()

	for i := uint64(1); i <= 5; i++ {
		if gap := s.ApplyEvent(ev(8, i, i, "other")); gap {
			t.Fatalf("in-order unwatched event %d reported a gap", i)
		}
	}
	if gap := s.ApplyEvent(ev(8, 7, 7, "other")); !gap {
		t.Fatal("hole in unwatched traffic must still trigger resync")
	}
	if dirty := s.TakeDirty(); len(dirty) != 1 || dirty[0] != k {
		t.Fatalf("dirty = %v", dirty)
	}
}

// Slow subscribers coalesce: overflow drops the event but marks the key
// dirty so anti-entropy republishes the latest state.
func TestSubOverflowMarksDirty(t *testing.T) {
	k := kv.KeyFromUint64(4)
	s := NewSub([]kv.Key{k}, groupMod4, 2)
	defer s.Close()
	s.TakeDirty()

	for i := uint64(1); i <= 10; i++ {
		s.ApplyEvent(ev(4, i, i, "v"))
	}
	if st := s.Stats(); st.Dropped == 0 {
		t.Fatal("overflow must drop")
	}
	if dirty := s.TakeDirty(); len(dirty) != 1 {
		t.Fatalf("dirty = %v", dirty)
	}
	// State still tracks the newest version even though delivery lagged.
	if _, ver, _ := s.State(k); ver.Seq != 10 {
		t.Fatalf("state = %v, want seq 10", ver)
	}
}

// Events with no stream seq (straight from a tail agent, pre-relay) must
// not participate in gap detection.
func TestSubZeroStreamSeqSkipsGapCheck(t *testing.T) {
	k := kv.KeyFromUint64(4)
	s := NewSub([]kv.Key{k}, groupMod4, 16)
	defer s.Close()
	s.TakeDirty()

	s.ApplyEvent(ev(4, 1, 0, "a"))
	if gap := s.ApplyEvent(ev(4, 5, 0, "b")); gap {
		t.Fatal("unsequenced events must not report gaps")
	}
	if got := drain(s.Events()); len(got) != 2 {
		t.Fatalf("events = %+v", got)
	}
}

// MarkDirty with no arguments schedules a full anti-entropy pass, and a
// failed read can re-arm a key.
func TestSubMarkDirtyAntiEntropy(t *testing.T) {
	keys := []kv.Key{kv.KeyFromUint64(1), kv.KeyFromUint64(2)}
	s := NewSub(keys, groupMod4, 16)
	defer s.Close()
	s.TakeDirty()

	s.MarkDirty()
	if dirty := s.TakeDirty(); len(dirty) != 2 {
		t.Fatalf("full pass dirty = %v", dirty)
	}
	s.MarkDirty(keys[0], kv.KeyFromUint64(99)) // unwatched key ignored
	if dirty := s.TakeDirty(); len(dirty) != 1 || dirty[0] != keys[0] {
		t.Fatalf("dirty = %v", dirty)
	}
}

// Close is idempotent and stops delivery.
func TestSubCloseIdempotent(t *testing.T) {
	k := kv.KeyFromUint64(4)
	s := NewSub([]kv.Key{k}, groupMod4, 16)
	s.Close()
	s.Close()
	if gap := s.ApplyEvent(ev(4, 1, 1, "a")); gap {
		t.Fatal("closed sub must ignore events")
	}
	if _, ok := <-s.Events(); ok {
		t.Fatal("channel must be closed")
	}
}

// ApplyRead drives the same version-ordered transitions as the event
// stream: a resync read fires at most one event, and only when it moves
// the key's state forward.
func TestSubApplyReadLifecycle(t *testing.T) {
	k := kv.KeyFromUint64(4)
	s := NewSub([]kv.Key{k}, groupMod4, 16)
	defer s.Close()
	steps := []struct {
		name    string
		present bool
		val     string
		seq     uint64
		want    []EventType
	}{
		{"absent key: nothing yet", false, "", 0, nil},
		{"first sight", true, "v1", 1, []EventType{Created}},
		{"same version re-read", true, "v1", 1, nil},
		{"version advanced", true, "v2", 2, []EventType{Updated}},
		{"regressed version never fires", true, "old", 1, nil},
		{"read finds it gone", false, "", 0, []EventType{Deleted}},
		{"still gone", false, "", 0, nil},
		{"reappearance", true, "v3", 3, []EventType{Created}},
	}
	for _, st := range steps {
		s.ApplyRead(k, st.present, kv.Value(st.val), kv.Version{Seq: st.seq})
		got := drain(s.Events())
		if len(got) != len(st.want) {
			t.Fatalf("%s: events = %+v, want %v", st.name, got, st.want)
		}
		for i, e := range got {
			if e.Type != st.want[i] || (st.present && (string(e.Value) != st.val || e.Version.Seq != st.seq)) {
				t.Fatalf("%s: event = %+v, want %v %q seq %d", st.name, e, st.want[i], st.val, st.seq)
			}
		}
	}
}

// TestTakeDirtySorted: the keys awaiting resync come back in byte order,
// whatever order they were marked in.
func TestTakeDirtySorted(t *testing.T) {
	keys := make([]kv.Key, 64)
	for i := range keys {
		keys[i] = kv.KeyFromUint64(uint64(i*7919) % 1024)
	}
	s := NewSub(keys, groupMod4, 64)
	defer s.Close()
	s.TakeDirty() // clear the initial-fetch marks
	s.MarkDirty(keys...)
	got := s.TakeDirty()
	want := slices.Clone(keys)
	slices.SortFunc(want, func(a, b kv.Key) int { return bytes.Compare(a[:], b[:]) })
	if !slices.Equal(got, want) {
		t.Fatalf("TakeDirty = %v, want byte order %v", got, want)
	}
}
