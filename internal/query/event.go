package query

import (
	"encoding/binary"
	"fmt"

	"netchain/internal/kv"
	"netchain/internal/packet"
)

// Event is the decoded form of an OpEvent frame: one applied mutation as
// observed at the chain tail. Version is the per-key (Session, Seq) pair
// stamped by the chain head; StreamSeq is the relay's per-group fan-out
// sequence (0 until the relay stamps it), which subscribers use for gap
// detection. Epoch identifies one incarnation of the relay's sequencer:
// a restarted relay stamps a fresh nonzero epoch, so a subscriber that
// sees the epoch change knows the stream seq restarted from 1 and treats
// the boundary as a gap instead of a stretch of duplicates.
type Event struct {
	Key       kv.Key
	Value     kv.Value
	Version   kv.Version
	Group     uint16
	StreamSeq uint64
	Epoch     uint16
	Deleted   bool
}

// Epoch and stream seq share the QueryID field on the wire: epoch in the
// top 16 bits, seq in the low 48 (2^48 events per group per relay
// incarnation outlasts any deployment). Pre-epoch senders put a bare seq
// in QueryID, which decodes as epoch 0 — old frames stay valid.
const (
	streamSeqBits = 48
	streamSeqMask = (uint64(1) << streamSeqBits) - 1
)

// PackStreamSeq encodes (epoch, seq) into a QueryID.
func PackStreamSeq(epoch uint16, seq uint64) uint64 {
	return uint64(epoch)<<streamSeqBits | seq&streamSeqMask
}

// UnpackStreamSeq splits a QueryID into (epoch, seq).
func UnpackStreamSeq(qid uint64) (epoch uint16, seq uint64) {
	return uint16(qid >> streamSeqBits), qid & streamSeqMask
}

// CommitEvent is the event a chain tail publishes for the mutation of op
// origOp whose committed reply is in f. Its value aliases f's: clone it
// to keep it past f.
func CommitEvent(f *packet.Frame, origOp kv.Op) Event {
	return Event{
		Key:     f.NC.Key,
		Value:   f.NC.Value,
		Version: f.NC.Version(),
		Group:   f.NC.Group,
		Deleted: origOp == kv.OpDelete,
	}
}

// EventInto assembles an OpEvent frame into f. The value is copied via the
// frame's chain-free NC assignment, so ev.Value must stay valid until the
// frame is serialized or cloned. Deleted mutations carry StatusNotFound
// and an empty value (tombstone), matching read semantics.
func EventInto(f *packet.Frame, src, dst packet.Addr, srcPort, dstPort uint16, ev Event) *packet.Frame {
	nc := &f.NC
	nc.Op = kv.OpEvent
	nc.Status = kv.StatusOK
	if ev.Deleted {
		nc.Status = kv.StatusNotFound
	}
	nc.Group = ev.Group
	nc.QueryID = PackStreamSeq(ev.Epoch, ev.StreamSeq)
	nc.Key = ev.Key
	nc.SetVersion(ev.Version)
	nc.Value = ev.Value
	if ev.Deleted {
		nc.Value = nil
	}
	nc.Chain = nil
	f.SetAddrs(src, dst, srcPort, dstPort)
	return f
}

// NewEvent is EventInto on a pooled frame; return it with packet.PutFrame
// once serialized.
func NewEvent(src, dst packet.Addr, srcPort, dstPort uint16, ev Event) *packet.Frame {
	return EventInto(packet.GetFrame(), src, dst, srcPort, dstPort, ev)
}

// ParseEvent validates and extracts an OpEvent frame. The returned value
// is cloned, so the frame may be reused.
func ParseEvent(f *packet.Frame) (Event, error) {
	if f.NC.Op != kv.OpEvent {
		return Event{}, fmt.Errorf("query: frame is %v, not an event", f.NC.Op)
	}
	epoch, seq := UnpackStreamSeq(f.NC.QueryID)
	ev := Event{
		Key:       f.NC.Key,
		Version:   f.NC.Version(),
		Group:     f.NC.Group,
		StreamSeq: seq,
		Epoch:     epoch,
		Deleted:   f.NC.Status == kv.StatusNotFound,
	}
	if !ev.Deleted {
		ev.Value = kv.Value(f.NC.Value).Clone()
	}
	return ev, nil
}

// Watch subscription verbs carried in the first byte of an OpWatch value.
const (
	WatchSubscribe   byte = 1 // register / renew a lease for the listed groups
	WatchUnsubscribe byte = 2 // drop the lease for the listed groups
	WatchAck         byte = 3 // relay → subscriber confirmation
)

// MaxWatchGroups bounds the group list of one OpWatch frame so the value
// stays within a single datagram alongside the fixed header.
const MaxWatchGroups = 512

// NewWatch builds an OpWatch control frame: verb + group list in the
// value, client nonce in QueryID (echoed by the relay's ack). The frame
// comes from the packet pool.
func NewWatch(src, dst packet.Addr, srcPort uint16, verb byte, nonce uint64, groups []uint16) (*packet.Frame, error) {
	if len(groups) > MaxWatchGroups {
		return nil, fmt.Errorf("query: %d watch groups exceed max %d", len(groups), MaxWatchGroups)
	}
	f := packet.GetFrame()
	buf := *f.ValueScratch()
	need := 3 + 2*len(groups)
	if cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	buf = buf[:0]
	buf = append(buf, verb)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(groups)))
	for _, g := range groups {
		buf = binary.BigEndian.AppendUint16(buf, g)
	}
	*f.ValueScratch() = buf
	nc := &f.NC
	nc.Op = kv.OpWatch
	nc.Status = kv.StatusOK
	nc.QueryID = nonce
	nc.Value = buf
	nc.Chain = nil
	f.SetAddrs(src, dst, srcPort, packet.Port)
	return f, nil
}

// ParseWatch validates and extracts an OpWatch frame. The group slice is
// freshly allocated, so the frame may be reused.
func ParseWatch(f *packet.Frame) (verb byte, nonce uint64, groups []uint16, err error) {
	if f.NC.Op != kv.OpWatch {
		return 0, 0, nil, fmt.Errorf("query: frame is %v, not a watch control", f.NC.Op)
	}
	v := f.NC.Value
	if len(v) < 3 {
		return 0, 0, nil, fmt.Errorf("query: watch control value truncated: %d bytes", len(v))
	}
	verb = v[0]
	n := int(binary.BigEndian.Uint16(v[1:3]))
	if n > MaxWatchGroups || len(v) < 3+2*n {
		return 0, 0, nil, fmt.Errorf("query: watch control lists %d groups in %d bytes", n, len(v))
	}
	groups = make([]uint16, n)
	for i := 0; i < n; i++ {
		groups[i] = binary.BigEndian.Uint16(v[3+2*i:])
	}
	return verb, f.NC.QueryID, groups, nil
}
