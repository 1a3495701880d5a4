package packet

import (
	"encoding/binary"
	"fmt"
)

// In-band telemetry extension (INT-style, §SIGCOMM INT spec in spirit):
// when a query is sampled for tracing, the client sets TraceFlag in the
// chain-count byte and every hop that touches the frame appends a fixed
// 24-byte record in place — per-hop visibility at zero extra RTTs. The
// extension rides after the chain hop list:
//
//	[hopCount:1] [hopCount × 24-byte records]
//
// Each record: switchID(4) stage(1) ingressNs(8) egressNs(8) queue(2)
// shard(1). Untraced frames carry no extension and serialize bit-identically
// to the pre-telemetry format.

// TraceFlag is the bit stolen from the chain-count byte that marks a frame
// as carrying the telemetry extension. Chain counts are bounded by
// MaxChainHops (16), so bits 5-7 of the SC byte were always zero before.
const TraceFlag = 0x80

// TraceRecLen is the wire size of one hop record.
const TraceRecLen = 24

// MaxTraceHops bounds the number of hop records a frame may accumulate
// (a chain traversal can log transit + local processing per switch, plus
// ingest and relay records; 32 leaves slack for the longest chains).
const MaxTraceHops = 32

// TraceStage identifies which processing step a hop record describes.
type TraceStage uint8

const (
	// StageTransit: the frame crossed a switch without local processing.
	StageTransit TraceStage = iota + 1
	// StageHead: head of the chain assigned the write version.
	StageHead
	// StageMid: a mid-chain replica applied the ordered write.
	StageMid
	// StageTail: the tail committed the mutation and generated the reply.
	StageTail
	// StageRead: the tail served a read from its register file.
	StageRead
	// StageIngest: a transport node's socket/dispatch layer handled the
	// frame (queueing between ingress and processing).
	StageIngest
	// StageRelay: the relay tier fanned the committed event out.
	StageRelay
)

func (s TraceStage) String() string {
	switch s {
	case StageTransit:
		return "transit"
	case StageHead:
		return "head"
	case StageMid:
		return "mid"
	case StageTail:
		return "tail"
	case StageRead:
		return "read"
	case StageIngest:
		return "ingest"
	case StageRelay:
		return "relay"
	default:
		return fmt.Sprintf("stage(%d)", uint8(s))
	}
}

// TraceHop is one decoded hop record.
type TraceHop struct {
	SwitchID  uint32
	Stage     TraceStage
	IngressNs int64
	EgressNs  int64
	Queue     uint16 // the hop's receive backlog when this frame arrived
	Shard     uint8  // ingest socket that handled the frame
}

func putTraceHop(b []byte, h *TraceHop) {
	binary.BigEndian.PutUint32(b[0:4], h.SwitchID)
	b[4] = byte(h.Stage)
	binary.BigEndian.PutUint64(b[5:13], uint64(h.IngressNs))
	binary.BigEndian.PutUint64(b[13:21], uint64(h.EgressNs))
	binary.BigEndian.PutUint16(b[21:23], h.Queue)
	b[23] = h.Shard
}

func decodeTraceHop(b []byte) TraceHop {
	return TraceHop{
		SwitchID:  binary.BigEndian.Uint32(b[0:4]),
		Stage:     TraceStage(b[4]),
		IngressNs: int64(binary.BigEndian.Uint64(b[5:13])),
		EgressNs:  int64(binary.BigEndian.Uint64(b[13:21])),
		Queue:     binary.BigEndian.Uint16(b[21:23]),
		Shard:     b[23],
	}
}

// TraceHopCount returns the number of hop records carried by the header.
func (h *NetChain) TraceHopCount() int { return len(h.Trace) / TraceRecLen }

// TraceHops decodes the hop records, appending them to into (pass a
// reusable slice to avoid allocation).
func (h *NetChain) TraceHops(into []TraceHop) []TraceHop {
	for off := 0; off+TraceRecLen <= len(h.Trace); off += TraceRecLen {
		into = append(into, decodeTraceHop(h.Trace[off:]))
	}
	return into
}

// EnableTrace marks the frame for in-band telemetry with an empty hop
// list. Clients call this on sampled queries after building the frame.
func (f *Frame) EnableTrace() {
	f.NC.Traced = true
	f.traceBuf = f.traceBuf[:0]
	f.NC.Trace = f.traceBuf
	f.traceOwned = true
}

// CopyTraceFrom marks f traced and copies src's hop records into f's own
// storage — how a derived frame (a push-watch event bred from a traced
// reply) inherits the query's telemetry. No-op when src is untraced.
func (f *Frame) CopyTraceFrom(src *Frame) {
	if !src.NC.Traced {
		return
	}
	f.NC.Traced = true
	n := len(src.NC.Trace)
	if cap(f.traceBuf) < n {
		f.traceBuf = make([]byte, n, MaxTraceHops*TraceRecLen)
	}
	f.traceBuf = f.traceBuf[:n]
	copy(f.traceBuf, src.NC.Trace)
	f.NC.Trace = f.traceBuf
	f.traceOwned = true
}

// AppendTraceHop appends one hop record to a traced frame. It is a no-op
// on untraced frames (the common case — a single branch on the fast path)
// and drops records beyond MaxTraceHops rather than failing the query.
// The record storage is the frame's own traceBuf, so decoded frames whose
// Trace aliases the receive buffer are copied-on-append, and pooled frames
// stop allocating once the buffer is warm.
func (f *Frame) AppendTraceHop(h TraceHop) bool {
	if !f.NC.Traced {
		return false
	}
	n := len(f.NC.Trace)
	if n/TraceRecLen >= MaxTraceHops {
		return false
	}
	if cap(f.traceBuf) < n+TraceRecLen {
		nb := make([]byte, n, MaxTraceHops*TraceRecLen)
		copy(nb, f.NC.Trace)
		f.traceBuf = nb
		f.traceOwned = true
	} else if !f.traceOwned {
		f.traceBuf = f.traceBuf[:n]
		copy(f.traceBuf, f.NC.Trace)
		f.traceOwned = true
	}
	f.traceBuf = f.traceBuf[:n+TraceRecLen]
	putTraceHop(f.traceBuf[n:], &h)
	f.NC.Trace = f.traceBuf
	return true
}
