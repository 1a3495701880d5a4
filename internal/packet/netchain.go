package packet

import (
	"encoding/binary"
	"fmt"

	"netchain/internal/kv"
)

// Port is the reserved UDP port that invokes NetChain processing in a
// switch (§3: "the processing logic of NetChain is invoked by a reserved
// UDP port"). 0x4e43 spells "NC".
const Port = 0x4e43

// Magic marks a NetChain header; it doubles as a sanity check when a
// datagram arrives on the reserved port by accident.
const Magic = 0x4e43

// VersionWire is the header format version emitted by this implementation.
const VersionWire = 2

// MaxChainHops bounds the chain IP list length (a chain of f+1 replicas
// plus slack for routing; Tofino parsers bound header stacks similarly).
const MaxChainHops = 16

// netchainFixedLen is the byte length of the fixed portion of the header:
// magic(2) version(1) op(1) status(1) sc(1) vlen(2) group(2) seq(8)
// session(4) queryID(8) key(16).
const netchainFixedLen = 46

// NetChain is the custom query header of Fig. 2(b). The chain IP list holds
// the hops *after* the current IP destination: a write to chain [S0,S1,S2]
// leaves the client with dst=S0 and Chain=[S1,S2]; each switch pops the
// next hop into the IP destination. Reads carry the reverse list and go
// straight to the tail; the list is consumed only by failover rules (§5.1).
type NetChain struct {
	Op      kv.Op
	Status  kv.Status
	Group   uint16 // virtual group of the key; matched by failover rules
	Seq     uint64
	Session uint32
	QueryID uint64 // client-chosen id matching replies to retries
	Key     kv.Key
	Value   []byte // decoded views alias the input buffer; copy to retain
	Chain   []Addr // remaining hops, nearest first

	// In-band telemetry extension (see traceext.go). Traced mirrors the
	// TraceFlag wire bit; Trace holds the raw hop records (a multiple of
	// TraceRecLen bytes). Decoded views alias the input buffer; hops are
	// appended via Frame.AppendTraceHop, which copies on first append.
	Traced bool
	Trace  []byte

	chainBuf [MaxChainHops]Addr // backing storage to keep decode alloc-free
}

// Version returns the write-ordering version pair carried by the packet.
func (h *NetChain) Version() kv.Version {
	return kv.Version{Session: h.Session, Seq: h.Seq}
}

// SetVersion stamps the write-ordering version pair onto the packet.
func (h *NetChain) SetVersion(v kv.Version) {
	h.Session, h.Seq = v.Session, v.Seq
}

// WireLen returns the serialized size of the header in bytes.
func (h *NetChain) WireLen() int {
	n := netchainFixedLen + len(h.Value) + 4*len(h.Chain)
	if h.Traced {
		n += 1 + len(h.Trace)
	}
	return n
}

// PopChain removes and returns the first remaining hop. ok is false when
// the list is empty (the current destination was the final hop).
func (h *NetChain) PopChain() (next Addr, ok bool) {
	if len(h.Chain) == 0 {
		return 0, false
	}
	next = h.Chain[0]
	h.Chain = h.Chain[1:]
	return next, true
}

// SetChain replaces the remaining-hop list. The hops are copied into the
// header's own storage so callers may reuse their slice.
func (h *NetChain) SetChain(hops []Addr) error {
	if len(hops) > MaxChainHops {
		return fmt.Errorf("packet: chain of %d hops exceeds max %d", len(hops), MaxChainHops)
	}
	n := copy(h.chainBuf[:], hops)
	h.Chain = h.chainBuf[:n]
	return nil
}

// Reset clears the header for reuse.
func (h *NetChain) Reset() {
	*h = NetChain{}
}

// DecodeFromBytes parses the header from data. The Value field aliases
// data; the chain list is copied into internal storage.
func (h *NetChain) DecodeFromBytes(data []byte) error {
	if len(data) < netchainFixedLen {
		return fmt.Errorf("packet: netchain header truncated: %d bytes", len(data))
	}
	if m := binary.BigEndian.Uint16(data[0:2]); m != Magic {
		return fmt.Errorf("packet: bad netchain magic %#04x", m)
	}
	if v := data[2]; v != VersionWire {
		return fmt.Errorf("packet: unsupported netchain version %d", v)
	}
	h.Op = kv.Op(data[3])
	if !h.Op.Valid() {
		return fmt.Errorf("packet: invalid op %d", data[3])
	}
	h.Status = kv.Status(data[4])
	scByte := data[5]
	h.Traced = scByte&TraceFlag != 0
	sc := int(scByte &^ TraceFlag)
	vlen := int(binary.BigEndian.Uint16(data[6:8]))
	h.Group = binary.BigEndian.Uint16(data[8:10])
	h.Seq = binary.BigEndian.Uint64(data[10:18])
	h.Session = binary.BigEndian.Uint32(data[18:22])
	h.QueryID = binary.BigEndian.Uint64(data[22:30])
	copy(h.Key[:], data[30:46])
	if sc > MaxChainHops {
		return fmt.Errorf("packet: chain count %d exceeds max %d", sc, MaxChainHops)
	}
	need := netchainFixedLen + vlen + 4*sc
	if len(data) < need {
		return fmt.Errorf("packet: netchain payload truncated: have %d, need %d", len(data), need)
	}
	h.Value = data[netchainFixedLen : netchainFixedLen+vlen]
	if vlen == 0 {
		h.Value = nil
	}
	off := netchainFixedLen + vlen
	for i := 0; i < sc; i++ {
		h.chainBuf[i] = Addr(binary.BigEndian.Uint32(data[off+4*i:]))
	}
	h.Chain = h.chainBuf[:sc]
	h.Trace = nil
	if h.Traced {
		if len(data) < need+1 {
			return fmt.Errorf("packet: trace extension truncated: missing hop count")
		}
		tn := int(data[need])
		if tn > MaxTraceHops {
			return fmt.Errorf("packet: trace hop count %d exceeds max %d", tn, MaxTraceHops)
		}
		tlen := tn * TraceRecLen
		if len(data) < need+1+tlen {
			return fmt.Errorf("packet: trace records truncated: have %d, need %d", len(data)-need-1, tlen)
		}
		if tlen > 0 {
			h.Trace = data[need+1 : need+1+tlen]
		}
	}
	return nil
}

// SerializeTo appends the wire form of the header to buf.
func (h *NetChain) SerializeTo(buf []byte) ([]byte, error) {
	if len(h.Chain) > MaxChainHops {
		return nil, fmt.Errorf("packet: chain of %d hops exceeds max %d", len(h.Chain), MaxChainHops)
	}
	if len(h.Value) > 0xffff {
		return nil, fmt.Errorf("packet: value of %d bytes exceeds field", len(h.Value))
	}
	scByte := byte(len(h.Chain))
	if h.Traced {
		if len(h.Trace)%TraceRecLen != 0 {
			return nil, fmt.Errorf("packet: trace length %d not a whole number of records", len(h.Trace))
		}
		if len(h.Trace)/TraceRecLen > MaxTraceHops {
			return nil, fmt.Errorf("packet: %d trace hops exceeds max %d", len(h.Trace)/TraceRecLen, MaxTraceHops)
		}
		scByte |= TraceFlag
	}
	buf = binary.BigEndian.AppendUint16(buf, Magic)
	buf = append(buf, VersionWire, byte(h.Op), byte(h.Status), scByte)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(h.Value)))
	buf = binary.BigEndian.AppendUint16(buf, h.Group)
	buf = binary.BigEndian.AppendUint64(buf, h.Seq)
	buf = binary.BigEndian.AppendUint32(buf, h.Session)
	buf = binary.BigEndian.AppendUint64(buf, h.QueryID)
	buf = append(buf, h.Key[:]...)
	buf = append(buf, h.Value...)
	for _, hop := range h.Chain {
		buf = binary.BigEndian.AppendUint32(buf, uint32(hop))
	}
	if h.Traced {
		buf = append(buf, byte(len(h.Trace)/TraceRecLen))
		buf = append(buf, h.Trace...)
	}
	return buf, nil
}

// Clone returns a deep copy of the header, detaching Value and Chain from
// any shared buffers. Simulated switches clone before mutating in place.
func (h *NetChain) Clone() *NetChain {
	c := &NetChain{}
	*c = *h
	if h.Value != nil {
		c.Value = append([]byte(nil), h.Value...)
	}
	if h.Trace != nil {
		c.Trace = append([]byte(nil), h.Trace...)
	}
	n := copy(c.chainBuf[:], h.Chain)
	c.Chain = c.chainBuf[:n]
	return c
}

func (h *NetChain) String() string {
	return fmt.Sprintf("netchain{%s %s key=%s v=%dB seq=%d.%d chain=%v q=%d}",
		h.Op, h.Status, h.Key, len(h.Value), h.Session, h.Seq, h.Chain, h.QueryID)
}
