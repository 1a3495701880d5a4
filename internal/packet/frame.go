package packet

import "netchain/internal/kv"

// Frame is a fully parsed NetChain frame: the carrier's virtual
// addressing (see carrier.go) plus the NetChain header. The real transport
// serializes frames to bytes; the simulator passes *Frame values directly
// (both run the same dataplane code).
type Frame struct {
	IP  IP
	UDP UDP
	NC  NetChain

	// valBuf is the frame's reusable value storage: reply values copied
	// out of switch registers and cloned query values land here instead
	// of fresh heap allocations. It survives Reset, so pooled frames stop
	// allocating once warmed to the workload's value size.
	valBuf []byte

	// traceBuf is the frame's reusable storage for in-band telemetry hop
	// records (see traceext.go). Like valBuf it survives Reset. traceOwned
	// tracks whether NC.Trace points into traceBuf (appendable in place)
	// or aliases a decode buffer (copy on first append).
	traceBuf   []byte
	traceOwned bool
}

// ValueScratch exposes the frame's reusable value buffer for zero-copy
// fills (the dataplane's seqlock read copies straight into it). The
// caller points NC.Value at the returned storage; the bytes are valid for
// the lifetime of the frame.
func (f *Frame) ValueScratch() *[]byte { return &f.valBuf }

// setValue copies v into the frame's value buffer and returns the stored
// slice (nil for empty v, matching wire semantics).
func (f *Frame) setValue(v []byte) []byte {
	if len(v) == 0 {
		return nil
	}
	if cap(f.valBuf) < len(v) {
		f.valBuf = make([]byte, len(v))
	}
	b := f.valBuf[:len(v)]
	copy(b, v)
	return b
}

// NewQuery builds a frame for a client query addressed to first, carrying
// the remaining chain hops.
func NewQuery(src, first Addr, srcPort uint16, nc *NetChain) *Frame {
	return NewQueryInto(&Frame{}, src, first, srcPort, nc)
}

// NewQueryInto is NewQuery writing into caller-provided storage (usually a
// pooled frame from GetFrame), keeping the encode path allocation-free.
func NewQueryInto(f *Frame, src, first Addr, srcPort uint16, nc *NetChain) *Frame {
	f.NC = *nc
	n := copy(f.NC.chainBuf[:], nc.Chain)
	f.NC.Chain = f.NC.chainBuf[:n]
	f.traceOwned = false // NC.Trace (if any) aliases the caller's header
	f.SetAddrs(src, first, srcPort, Port)
	return f
}

// SetAddrs fills the IP/UDP addressing fields.
func (f *Frame) SetAddrs(src, dst Addr, srcPort, dstPort uint16) {
	f.IP.Src, f.IP.Dst = src, dst
	f.UDP.SrcPort, f.UDP.DstPort = srcPort, dstPort
	f.IP.TTL = 64
}

// Retarget points the frame at a new IP destination (the next chain hop).
func (f *Frame) Retarget(dst Addr) { f.IP.Dst = dst }

// ToReply flips the frame into a reply to the original client: swaps
// src/dst addresses and ports, marks the op, and clears the chain list
// (matching Fig. 4's SC=0 reply packets).
func (f *Frame) ToReply(status kv.Status) {
	f.IP.Src, f.IP.Dst = f.IP.Dst, f.IP.Src
	f.UDP.SrcPort, f.UDP.DstPort = f.UDP.DstPort, f.UDP.SrcPort
	f.NC.Op = kv.OpReply
	f.NC.Status = status
	f.NC.Chain = f.NC.chainBuf[:0]
}

// WireLen returns the size of the serialized frame in bytes.
func (f *Frame) WireLen() int { return CarrierLen + f.NC.WireLen() }

// Decode parses a complete frame from data. The NC.Value field aliases
// data.
func (f *Frame) Decode(data []byte) error {
	_, err := f.decode(data)
	return err
}

// NextFrame decodes the first frame in data and returns the bytes that
// follow it. Transports concatenate whole frames back-to-back inside one
// datagram (DPDK-style burst batching); the carrier's length field
// delimits them, and a lone frame is simply a batch of one.
func NextFrame(f *Frame, data []byte) (rest []byte, err error) {
	n, err := f.decode(data)
	if err != nil {
		return nil, err
	}
	return data[n:], nil
}

// DecodeBatch parses the back-to-back frames of one datagram, invoking fn
// for each decoded frame. f is reused across calls and aliases data, so fn
// must finish with (or detach) the frame before returning. It returns the
// number of frames delivered and, when a torn or corrupt frame cut the
// batch short, the decode error: frame boundaries are only discoverable by
// parsing, so the bytes after the bad frame are undecodable — but every
// frame before the corruption has already been delivered, and the caller
// can account for the loss instead of silently discarding the tail.
func DecodeBatch(f *Frame, data []byte, fn func(*Frame)) (int, error) {
	n := 0
	for len(data) > 0 {
		rest, err := NextFrame(f, data)
		if err != nil {
			return n, err
		}
		data = rest
		fn(f)
		n++
	}
	return n, nil
}

// Clone deep-copies the frame.
func (f *Frame) Clone() *Frame {
	c := &Frame{}
	f.CloneTo(c)
	return c
}

// CloneTo deep-copies f into dst (usually a pooled frame from GetFrame),
// detaching Value and Chain from any buffers f aliases.
func (f *Frame) CloneTo(dst *Frame) {
	dst.IP, dst.UDP = f.IP, f.UDP
	vb, tb := dst.valBuf, dst.traceBuf // keep dst's grown-once storage
	dst.NC = f.NC
	dst.valBuf, dst.traceBuf = vb, tb
	if f.NC.Value != nil {
		dst.NC.Value = dst.setValue(f.NC.Value)
	}
	dst.NC.Trace = nil
	dst.traceOwned = false
	if f.NC.Traced {
		if cap(dst.traceBuf) < len(f.NC.Trace) {
			dst.traceBuf = make([]byte, len(f.NC.Trace), MaxTraceHops*TraceRecLen)
		}
		dst.traceBuf = dst.traceBuf[:len(f.NC.Trace)]
		copy(dst.traceBuf, f.NC.Trace)
		dst.NC.Trace = dst.traceBuf
		dst.traceOwned = true
	}
	n := copy(dst.NC.chainBuf[:], f.NC.Chain)
	dst.NC.Chain = dst.NC.chainBuf[:n]
}

// Reset zeroes the frame for reuse, retaining the value buffer's capacity
// so pooled frames stay allocation-free in steady state.
func (f *Frame) Reset() {
	vb, tb := f.valBuf, f.traceBuf
	*f = Frame{}
	if vb != nil {
		f.valBuf = vb[:0]
	}
	if tb != nil {
		f.traceBuf = tb[:0]
	}
}
