package packet

import (
	"bytes"
	"strings"
	"testing"

	"netchain/internal/kv"
)

// seedTracedFrame builds a valid traced frame carrying n hop records.
func seedTracedFrame(n int, val []byte, hops ...Addr) []byte {
	nc := &NetChain{Op: kv.OpWrite, Key: kv.KeyFromString("traced"), QueryID: 7, Value: val}
	if err := nc.SetChain(hops); err != nil {
		panic(err)
	}
	f := NewQuery(AddrFrom4(10, 1, 0, 1), AddrFrom4(10, 0, 0, 1), 4000, nc)
	f.EnableTrace()
	for i := 0; i < n; i++ {
		if !f.AppendTraceHop(TraceHop{
			SwitchID: uint32(i + 1), Stage: StageTransit,
			IngressNs: int64(1000 * i), EgressNs: int64(1000*i + 500),
			Queue: uint16(i), Shard: uint8(i),
		}) {
			panic("append failed")
		}
	}
	buf, err := f.Serialize(nil)
	if err != nil {
		panic(err)
	}
	return buf
}

func TestTraceRoundTrip(t *testing.T) {
	wire := seedTracedFrame(3, []byte("v"), AddrFrom4(10, 0, 0, 2))
	var f Frame
	if err := f.Decode(wire); err != nil {
		t.Fatal(err)
	}
	if !f.NC.Traced || f.NC.TraceHopCount() != 3 {
		t.Fatalf("traced=%v hops=%d", f.NC.Traced, f.NC.TraceHopCount())
	}
	hops := f.NC.TraceHops(nil)
	if len(hops) != 3 {
		t.Fatalf("parsed %d hops", len(hops))
	}
	for i, h := range hops {
		if h.SwitchID != uint32(i+1) || h.Stage != StageTransit ||
			h.IngressNs != int64(1000*i) || h.EgressNs != int64(1000*i+500) ||
			h.Queue != uint16(i) || h.Shard != uint8(i) {
			t.Fatalf("hop %d drifted: %+v", i, h)
		}
	}
	// Bit-exact re-encode.
	out, err := f.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, out) {
		t.Fatalf("traced wire image drifted:\n%x\n%x", wire, out)
	}
}

func TestTraceUntracedBitIdentical(t *testing.T) {
	// An untraced frame must carry a bare chain count in the SC byte and no
	// extension bytes — the exact pre-telemetry layout.
	wire := seedFrame(kv.OpWrite, []byte("hello"), AddrFrom4(10, 0, 0, 2))
	sc := wire[CarrierLen+5]
	if sc != 1 {
		t.Fatalf("untraced SC byte = %#02x, want chain count 1", sc)
	}
	var f Frame
	if err := f.Decode(wire); err != nil {
		t.Fatal(err)
	}
	if f.NC.Traced || f.NC.Trace != nil {
		t.Fatal("untraced frame decoded as traced")
	}
	if want := CarrierLen + netchainFixedLen + 5 + 4; len(wire) != want {
		t.Fatalf("untraced wire len %d, want %d", len(wire), want)
	}
}

func TestTraceAppendCopiesAliasedRecords(t *testing.T) {
	wire := seedTracedFrame(1, nil)
	orig := append([]byte(nil), wire...)
	var f Frame
	if err := f.Decode(wire); err != nil {
		t.Fatal(err)
	}
	// f.NC.Trace aliases wire; appending must copy out, not scribble on it.
	if !f.AppendTraceHop(TraceHop{SwitchID: 99, Stage: StageTail}) {
		t.Fatal("append rejected")
	}
	if !bytes.Equal(wire, orig) {
		t.Fatal("append mutated the receive buffer")
	}
	if f.NC.TraceHopCount() != 2 {
		t.Fatalf("hops = %d", f.NC.TraceHopCount())
	}
	hops := f.NC.TraceHops(nil)
	if hops[0].SwitchID != 1 || hops[1].SwitchID != 99 {
		t.Fatalf("hops drifted: %+v", hops)
	}
}

func TestTraceAppendBounds(t *testing.T) {
	var f Frame
	f.NC.Op = kv.OpRead
	// Untraced: append is a no-op.
	if f.AppendTraceHop(TraceHop{SwitchID: 1}) {
		t.Fatal("append on untraced frame must be a no-op")
	}
	f.EnableTrace()
	for i := 0; i < MaxTraceHops; i++ {
		if !f.AppendTraceHop(TraceHop{SwitchID: uint32(i)}) {
			t.Fatalf("append %d rejected", i)
		}
	}
	if f.AppendTraceHop(TraceHop{SwitchID: 999}) {
		t.Fatal("append beyond MaxTraceHops must be dropped")
	}
	if f.NC.TraceHopCount() != MaxTraceHops {
		t.Fatalf("hops = %d", f.NC.TraceHopCount())
	}
}

func TestTraceDecodeErrors(t *testing.T) {
	full := seedTracedFrame(2, nil)
	nc := full[CarrierLen:]

	// Flag set, hop-count byte missing.
	var h NetChain
	if err := h.DecodeFromBytes(nc[:netchainFixedLen]); err == nil ||
		!strings.Contains(err.Error(), "trace") {
		t.Fatalf("missing hop count: err = %v", err)
	}
	// Flag set, records truncated.
	if err := h.DecodeFromBytes(nc[:netchainFixedLen+1+TraceRecLen/2]); err == nil ||
		!strings.Contains(err.Error(), "trace") {
		t.Fatalf("truncated records: err = %v", err)
	}
	// Hop-count overflow.
	bad := append([]byte(nil), nc...)
	bad[netchainFixedLen] = MaxTraceHops + 1
	if err := h.DecodeFromBytes(bad); err == nil ||
		!strings.Contains(err.Error(), "exceeds max") {
		t.Fatalf("hop overflow: err = %v", err)
	}
	// Flag set with zero records is valid.
	zero := append([]byte(nil), nc[:netchainFixedLen]...)
	zero = append(zero, 0)
	if err := h.DecodeFromBytes(zero); err != nil {
		t.Fatalf("zero-record trace must decode: %v", err)
	}
	if !h.Traced || h.TraceHopCount() != 0 {
		t.Fatalf("traced=%v hops=%d", h.Traced, h.TraceHopCount())
	}
	// Reserved SC bits without the trace flag still error (chain count 32).
	res := append([]byte(nil), nc[:netchainFixedLen]...)
	res[5] = 0x20
	if err := h.DecodeFromBytes(res); err == nil {
		t.Fatal("reserved SC bits must be rejected")
	}
}

func TestTraceSurvivesReplyAndClone(t *testing.T) {
	wire := seedTracedFrame(2, []byte("payload"), AddrFrom4(10, 0, 0, 2))
	var f Frame
	if err := f.Decode(wire); err != nil {
		t.Fatal(err)
	}
	// CloneTo into a pooled frame detaches the trace from the buffer.
	cl := GetFrame()
	f.CloneTo(cl)
	for i := range wire {
		wire[i] = 0xff // scribble over the original
	}
	if cl.NC.TraceHopCount() != 2 || cl.NC.TraceHops(nil)[1].SwitchID != 2 {
		t.Fatalf("clone lost trace: %d hops", cl.NC.TraceHopCount())
	}
	// ToReply keeps the accumulated trace (the reply carries it home).
	cl.ToReply(kv.StatusOK)
	if !cl.NC.Traced || cl.NC.TraceHopCount() != 2 {
		t.Fatal("reply dropped trace")
	}
	out, err := cl.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	var back Frame
	if err := back.Decode(out); err != nil {
		t.Fatal(err)
	}
	if back.NC.TraceHopCount() != 2 {
		t.Fatal("reply round trip lost trace")
	}
	PutFrame(cl)
	// A recycled frame must come back untraced.
	clean := GetFrame()
	if clean.NC.Traced || clean.NC.Trace != nil {
		t.Fatalf("pooled frame kept trace state: %+v", clean.NC)
	}
	PutFrame(clean)
}

// FuzzDecodeTraceExt stresses the telemetry extension decoder: truncated
// hop records, hop-count overflow, the flag bit set with zero records —
// the decoder must never panic, and whatever it accepts must round-trip.
// Untraced corpus entries (shared with FuzzDecodeFrame's seeds) must
// round-trip bit-identically.
func FuzzDecodeTraceExt(f *testing.F) {
	f.Add(seedTracedFrame(0, nil))
	f.Add(seedTracedFrame(1, []byte("v")))
	f.Add(seedTracedFrame(MaxTraceHops, nil))
	f.Add(seedTracedFrame(3, []byte("hello"), AddrFrom4(10, 0, 0, 2), AddrFrom4(10, 0, 0, 3)))
	// The untraced corpus rides along: the flag-off path must stay stable.
	f.Add(seedFrame(kv.OpWrite, []byte("hello"), AddrFrom4(10, 0, 0, 2)))
	f.Add(seedFrame(kv.OpRead, nil))
	whole := seedTracedFrame(2, []byte("x"), AddrFrom4(10, 0, 0, 2))
	for cut := 0; cut < len(whole); cut += 5 {
		f.Add(whole[:cut])
	}
	for i := 0; i < len(whole); i += 2 {
		flip := append([]byte(nil), whole...)
		flip[i] ^= 0x80
		f.Add(flip)
	}
	// Hop-count overflow and count/record mismatches.
	over := append([]byte(nil), whole...)
	over[CarrierLen+netchainFixedLen] = 0xff
	f.Add(over)
	short := append([]byte(nil), whole...)
	short[CarrierLen+netchainFixedLen] = MaxTraceHops
	f.Add(short)

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		if err := fr.Decode(data); err != nil {
			return
		}
		if fr.NC.Traced {
			if fr.NC.TraceHopCount() > MaxTraceHops {
				t.Fatalf("accepted %d hops", fr.NC.TraceHopCount())
			}
			hops := fr.NC.TraceHops(nil)
			if len(hops) != fr.NC.TraceHopCount() {
				t.Fatalf("parse count %d != %d", len(hops), fr.NC.TraceHopCount())
			}
			// Appending to an accepted traced frame must always work below
			// the bound and keep the frame serializable.
			fr.AppendTraceHop(TraceHop{SwitchID: 1, Stage: StageIngest})
		}
		out, err := fr.Serialize(nil)
		if err != nil {
			t.Fatalf("accepted frame fails to serialize: %v", err)
		}
		var back Frame
		if err := back.Decode(out); err != nil {
			t.Fatalf("re-encoded frame fails to decode: %v", err)
		}
		if back.NC.Traced != fr.NC.Traced || back.NC.TraceHopCount() != fr.NC.TraceHopCount() {
			t.Fatalf("trace drifted: traced %v/%v hops %d/%d",
				back.NC.Traced, fr.NC.Traced, back.NC.TraceHopCount(), fr.NC.TraceHopCount())
		}
		// The canonical wire form must be a bit-identical fixed point:
		// decode(out) re-serializes to exactly out.
		out2, err := back.Serialize(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("canonical form not a fixed point:\n%x\n%x", out, out2)
		}
	})
}
