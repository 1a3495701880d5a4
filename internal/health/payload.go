package health

import (
	"encoding/binary"
	"fmt"

	"netchain/internal/kv"
	"netchain/internal/packet"
)

// Payload is the quality report a switch agent carries in every heartbeat:
// cumulative local counters plus instantaneous ingest backlog. The
// detector differences consecutive payloads into rate EWMAs, so agents
// stay stateless — they just snapshot counters.
type Payload struct {
	// Queue is the ingest backlog at emission time (queued frames on the
	// real transport; microseconds of modelled backlog in the simulator).
	Queue uint32
	// Drops counts frames the switch discarded locally (loss, queue
	// overflow, gray-degradation loss) since boot.
	Drops uint64
	// Processed counts frames the switch admitted for processing.
	Processed uint64
	// Retries counts duplicate writes the dataplane replayed — client
	// retry pressure observed at the switch.
	Retries uint64
	// DecodeErrs counts datagrams whose bytes the switch could not decode
	// — torn or corrupt frames observed at the socket, the wire-corruption
	// signal the dataplane counters can never see.
	DecodeErrs uint64
	// RcvBuf is the kernel's effective SO_RCVBUF for the switch's socket,
	// in bytes; 0 when unknown. A value below the transport's request means
	// the host clamped it and ingest may drop under bursts.
	RcvBuf uint32
}

// payloadLen is the wire size: version(1) queue(4) drops(8) processed(8)
// retries(8) decodeErrs(8) rcvBuf(4).
const payloadLen = 41

// payloadVersion guards the encoding; every emitter in the tree writes it.
const payloadVersion = 2

// Encode appends the wire form of p to buf.
func (p Payload) Encode(buf []byte) []byte {
	buf = append(buf, payloadVersion)
	buf = binary.BigEndian.AppendUint32(buf, p.Queue)
	buf = binary.BigEndian.AppendUint64(buf, p.Drops)
	buf = binary.BigEndian.AppendUint64(buf, p.Processed)
	buf = binary.BigEndian.AppendUint64(buf, p.Retries)
	buf = binary.BigEndian.AppendUint64(buf, p.DecodeErrs)
	return binary.BigEndian.AppendUint32(buf, p.RcvBuf)
}

// DecodePayload parses a heartbeat value field.
func DecodePayload(b []byte) (Payload, error) {
	if len(b) < 1 {
		return Payload{}, fmt.Errorf("health: payload truncated: %d bytes", len(b))
	}
	if b[0] != payloadVersion {
		return Payload{}, fmt.Errorf("health: unsupported payload version %d", b[0])
	}
	if len(b) < payloadLen {
		return Payload{}, fmt.Errorf("health: payload truncated: %d bytes", len(b))
	}
	return Payload{
		Queue:      binary.BigEndian.Uint32(b[1:5]),
		Drops:      binary.BigEndian.Uint64(b[5:13]),
		Processed:  binary.BigEndian.Uint64(b[13:21]),
		Retries:    binary.BigEndian.Uint64(b[21:29]),
		DecodeErrs: binary.BigEndian.Uint64(b[29:37]),
		RcvBuf:     binary.BigEndian.Uint32(b[37:41]),
	}, nil
}

// ProbeKey is the reserved key health probes read. It is never inserted,
// so probes exercise the full match-lookup path and come back as
// StatusNotFound replies — any reply counts; only the round trip matters.
var ProbeKey = kv.KeyFromString("\x00netchain/health/probe\x00")

// NewHeartbeat fills f with a heartbeat frame from sw to the monitor. The
// payload is encoded into the frame's own value scratch, so pooled frames
// stay allocation-free once warmed.
func NewHeartbeat(f *packet.Frame, sw, monitor packet.Addr, seq uint64, p Payload) *packet.Frame {
	vs := f.ValueScratch()
	*vs = p.Encode((*vs)[:0])
	f.NC = packet.NetChain{Op: kv.OpHeartbeat, QueryID: seq, Value: *vs}
	return packet.NewQueryInto(f, sw, monitor, packet.Port, &f.NC)
}

// NewProbe fills f with a data-plane probe: a read for ProbeKey addressed
// directly at sw (no chain), which the switch answers itself. qid matches
// the echo back to this probe.
func NewProbe(f *packet.Frame, monitor, sw packet.Addr, qid uint64) *packet.Frame {
	f.NC = packet.NetChain{Op: kv.OpRead, QueryID: qid, Key: ProbeKey}
	return packet.NewQueryInto(f, monitor, sw, packet.Port, &f.NC)
}
