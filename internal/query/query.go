// Package query is the client half of the protocol, free of any substrate:
// the agent logic of §3 that translates API calls into the custom packet
// format and reads the replies back. A Call names one operation. Its Frame
// method builds the query for a route: write-family queries target the
// chain head and carry the remaining hops in order; reads target the tail
// and carry the reverse list, consumed only by failover rules (§4.2). Its
// Outcome method interprets the reply: status to error, the CAS verdict,
// and the §8.5 "the stored owner is me" rule that keeps lock retries
// benign. Pending (pending.go) is the engine under both: the table of calls
// in flight, their query ids, retransmission with backoff and give-up, fed
// time by its driver. internal/simclient and transport's Client and Ops all
// go through this package.
package query

import (
	"encoding/binary"
	"fmt"

	"netchain/internal/kv"
	"netchain/internal/packet"
)

// Route is a key's virtual group and its chain, head first: the
// controller hands it out (controller.Route) and every call is built from it.
type Route struct {
	Group uint16
	Hops  []packet.Addr
}

// Endpoint identifies the sending client.
type Endpoint struct {
	Addr packet.Addr
	Port uint16
}

// NewRead builds a read query: dst = tail, chain list = reversed
// predecessors (tail excluded). The frame comes from the packet pool;
// transports return it with packet.PutFrame once serialized.
func NewRead(ep Endpoint, qid uint64, rt Route, key kv.Key) (*packet.Frame, error) {
	if len(rt.Hops) == 0 {
		return nil, kv.ErrUnavailable
	}
	if len(rt.Hops)-1 > packet.MaxChainHops {
		return nil, fmt.Errorf("query: chain of %d hops exceeds max %d", len(rt.Hops)-1, packet.MaxChainHops)
	}
	var rev [packet.MaxChainHops]packet.Addr
	n := 0
	for i := len(rt.Hops) - 2; i >= 0; i-- {
		rev[n] = rt.Hops[i]
		n++
	}
	f := packet.GetFrame()
	nc := &f.NC
	nc.Op, nc.Group, nc.QueryID, nc.Key = kv.OpRead, rt.Group, qid, key
	if err := nc.SetChain(rev[:n]); err != nil {
		packet.PutFrame(f)
		return nil, err
	}
	return packet.NewQueryInto(f, ep.Addr, rt.Hops[len(rt.Hops)-1], ep.Port, nc), nil
}

// NewWrite builds a write query: dst = head, chain list = the remaining
// hops head-exclusive.
func NewWrite(ep Endpoint, qid uint64, rt Route, key kv.Key, value kv.Value) (*packet.Frame, error) {
	return newHeadQuery(ep, qid, rt, key, kv.OpWrite, value)
}

// NewDelete builds a tombstone query (§4.1).
func NewDelete(ep Endpoint, qid uint64, rt Route, key kv.Key) (*packet.Frame, error) {
	return newHeadQuery(ep, qid, rt, key, kv.OpDelete, nil)
}

// NewCAS builds a compare-and-swap: the head applies newValue iff the
// stored owner (first 8 value bytes) equals expect (§8.5 locks).
func NewCAS(ep Endpoint, qid uint64, rt Route, key kv.Key, expect uint64, newValue kv.Value) (*packet.Frame, error) {
	val := make(kv.Value, 8+len(newValue))
	binary.BigEndian.PutUint64(val, expect)
	copy(val[8:], newValue)
	return newHeadQuery(ep, qid, rt, key, kv.OpCAS, val)
}

// OwnerValue encodes a lock value: 8-byte owner followed by payload.
func OwnerValue(owner uint64, payload []byte) kv.Value {
	v := make(kv.Value, 8+len(payload))
	binary.BigEndian.PutUint64(v, owner)
	copy(v[8:], payload)
	return v
}

// Owner extracts the lock owner from a stored value (0 when absent).
func Owner(v kv.Value) uint64 {
	if len(v) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(v[:8])
}

func newHeadQuery(ep Endpoint, qid uint64, rt Route, key kv.Key, op kv.Op, value kv.Value) (*packet.Frame, error) {
	if len(rt.Hops) == 0 {
		return nil, kv.ErrUnavailable
	}
	if len(value) > 0xffff {
		return nil, kv.ErrTooLarge
	}
	f := packet.GetFrame()
	nc := &f.NC
	nc.Op, nc.Group, nc.QueryID, nc.Key, nc.Value = op, rt.Group, qid, key, value
	if err := nc.SetChain(rt.Hops[1:]); err != nil {
		packet.PutFrame(f)
		return nil, err
	}
	return packet.NewQueryInto(f, ep.Addr, rt.Hops[0], ep.Port, nc), nil
}

// Call is one client operation, independent of route, query id and
// substrate.
type Call struct {
	Op     kv.Op // OpRead, OpWrite, OpDelete or OpCAS
	Key    kv.Key
	Value  kv.Value // write: the value; CAS: the new value, owner field first
	Expect uint64   // CAS: the owner the stored value must carry
}

// Acquire is the §8.5 try-lock: swap the lock's owner from 0 to owner.
func Acquire(lock kv.Key, owner uint64) Call {
	return Call{Op: kv.OpCAS, Key: lock, Value: OwnerValue(owner, nil)}
}

// Release frees a lock held by owner: swap the owner back to 0.
func Release(lock kv.Key, owner uint64) Call {
	return Call{Op: kv.OpCAS, Key: lock, Expect: owner, Value: OwnerValue(0, nil)}
}

// Frame builds the call's query for one attempt along rt.
func (c Call) Frame(ep Endpoint, qid uint64, rt Route) (*packet.Frame, error) {
	switch c.Op {
	case kv.OpRead:
		return NewRead(ep, qid, rt, c.Key)
	case kv.OpWrite:
		return NewWrite(ep, qid, rt, c.Key, c.Value)
	case kv.OpDelete:
		return NewDelete(ep, qid, rt, c.Key)
	case kv.OpCAS:
		return NewCAS(ep, qid, rt, c.Key, c.Expect, c.Value)
	}
	return nil, fmt.Errorf("query: %v is not a client operation", c.Op)
}

// Outcome is a reply read through the call that produced it.
type Outcome struct {
	// Value is the value read, or for a CAS the value stored after it: the
	// new value when it swapped, the one it lost against when it did not.
	Value   kv.Value
	Version kv.Version
	// Swapped reports that a CAS applied.
	Swapped bool
	// Landed reports that the stored owner is the one a CAS proposed: it
	// swapped, or it failed against a value already carrying that owner —
	// the retry of a swap whose reply was lost, which must stay benign
	// (§4.3). It is what Acquire and Release callers want to know.
	Landed bool
	// Assumed is Landed without Swapped for a non-zero proposed owner.
	// Owner ids being unique per client, the client does hold the lock, but
	// which of its acquires took it is unknowable (a duplicate's CASFail can
	// overtake the original's OK; the head's verdict ring is finite).
	// History recorders must treat the call's effect as unknown.
	Assumed bool
}

// Outcome interprets rep as the answer to c. A lost CAS is a verdict, not
// an error; every other failure status comes back as its kv sentinel.
func (c Call) Outcome(rep Reply) (Outcome, error) {
	out := Outcome{Value: rep.Value, Version: rep.Version}
	switch {
	case rep.Status == kv.StatusOK:
		out.Swapped = c.Op == kv.OpCAS
		out.Landed = out.Swapped
	case rep.Status == kv.StatusCASFail && c.Op == kv.OpCAS:
		proposed := Owner(c.Value)
		out.Landed = Owner(rep.Value) == proposed
		out.Assumed = out.Landed && proposed != 0
	default:
		return Outcome{}, rep.Status.Err()
	}
	return out, nil
}

// Reply summarizes a response frame for the client API.
type Reply struct {
	QueryID uint64
	Status  kv.Status
	Value   kv.Value
	Version kv.Version
}

// ParseReply validates and extracts a reply frame addressed to the client.
func ParseReply(f *packet.Frame) (Reply, error) {
	if f.NC.Op != kv.OpReply {
		return Reply{}, fmt.Errorf("query: frame is %v, not a reply", f.NC.Op)
	}
	return Reply{
		QueryID: f.NC.QueryID,
		Status:  f.NC.Status,
		Value:   kv.Value(f.NC.Value).Clone(),
		Version: f.NC.Version(),
	}, nil
}
