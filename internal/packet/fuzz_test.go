package packet

import (
	"bytes"
	"testing"

	"netchain/internal/kv"
)

// seedFrame builds a representative valid frame for the fuzz corpora.
func seedFrame(op kv.Op, val []byte, hops ...Addr) []byte {
	nc := &NetChain{Op: op, Key: kv.KeyFromString("seed"), QueryID: 42, Value: val}
	if err := nc.SetChain(hops); err != nil {
		panic(err)
	}
	f := NewQuery(AddrFrom4(10, 1, 0, 1), AddrFrom4(10, 0, 0, 1), 4000, nc)
	buf, err := f.Serialize(nil)
	if err != nil {
		panic(err)
	}
	return buf
}

// FuzzDecodeFrame feeds arbitrary bytes to the full-frame decoder (and the
// batched NextFrame walker): it must reject garbage with errors, never
// panic, and any frame it accepts must re-serialize to exactly the bytes
// it was decoded from.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(seedFrame(kv.OpWrite, []byte("hello"), AddrFrom4(10, 0, 0, 2), AddrFrom4(10, 0, 0, 3)))
	f.Add(seedFrame(kv.OpRead, nil))
	f.Add(seedFrame(kv.OpCAS, make([]byte, 16), AddrFrom4(10, 0, 0, 2)))
	// A batch of two frames back to back.
	f.Add(append(seedFrame(kv.OpRead, nil), seedFrame(kv.OpDelete, nil)...))
	// Truncations and bit flips of a valid frame.
	whole := seedFrame(kv.OpWrite, []byte("x"), AddrFrom4(10, 0, 0, 2))
	for cut := 0; cut < len(whole); cut += 5 {
		f.Add(whole[:cut])
	}
	for i := 0; i < len(whole); i += 5 {
		flip := append([]byte(nil), whole...)
		flip[i] ^= 0x80
		f.Add(flip)
	}
	// One frame for each check the carrier makes.
	for _, m := range malformedFrames() {
		f.Add(m.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		if n, err := fr.decode(data); err == nil {
			out, err := fr.Serialize(nil)
			if err != nil {
				t.Fatalf("accepted frame fails to serialize: %v", err)
			}
			if !bytes.Equal(out, data[:n]) {
				t.Fatalf("accepted frame does not re-serialize bit-exactly:\n%x\n%x", data[:n], out)
			}
		}
		// The batch walker must terminate and never panic either.
		rest := data
		for i := 0; i < 64 && len(rest) > 0; i++ {
			var bf Frame
			next, err := NextFrame(&bf, rest)
			if err != nil {
				break
			}
			if len(next) >= len(rest) {
				t.Fatalf("NextFrame did not consume input: %d -> %d", len(rest), len(next))
			}
			rest = next
		}
	})
}

// FuzzParseAddr covers the address parser the CLI flags feed: arbitrary
// text must produce an address or an error, never a panic (MustParseAddr,
// the panicking variant, is reserved for tests and static tables — nothing
// in the binaries calls it).
func FuzzParseAddr(f *testing.F) {
	f.Add("10.0.0.1")
	f.Add("256.1.2.3")
	f.Add("::1")
	f.Add("10.0.0.1:9000")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		a, err := ParseAddr(s)
		if err == nil {
			// Accepted addresses round-trip through their text form.
			back, err := ParseAddr(a.String())
			if err != nil || back != a {
				t.Fatalf("addr %q round trip: %v %v", s, back, err)
			}
		}
	})
}

// FuzzRoundTrip drives the encoder from arbitrary header fields through a
// pooled frame and requires a bit-exact wire round trip — the contract the
// zero-allocation transport hot path depends on.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(kv.OpWrite), uint8(0), uint16(7), uint64(3), uint32(1), uint64(99),
		[]byte("key-bytes"), []byte("value"), uint8(2))
	f.Add(uint8(kv.OpRead), uint8(1), uint16(0), uint64(0), uint32(0), uint64(1),
		[]byte(""), []byte(nil), uint8(0))
	f.Add(uint8(kv.OpCAS), uint8(2), uint16(65535), uint64(1<<60), uint32(1<<30), uint64(1<<50),
		[]byte("0123456789abcdef"), bytes.Repeat([]byte{0xee}, 128), uint8(16))

	f.Fuzz(func(t *testing.T, op, status uint8, group uint16, seq uint64, session uint32,
		qid uint64, keyBytes, value []byte, chainLen uint8) {
		if !kv.Op(op).Valid() || kv.Op(op) == kv.OpReply {
			return // replies carry no chain; covered by FuzzDecodeFrame
		}
		if len(value) > kv.MaxValueSize {
			value = value[:kv.MaxValueSize]
		}
		hops := make([]Addr, int(chainLen)%(MaxChainHops+1))
		for i := range hops {
			hops[i] = AddrFrom4(10, 0, byte(i), byte(i+1))
		}
		var key kv.Key
		copy(key[:], keyBytes)

		nc := &NetChain{
			Op: kv.Op(op), Status: kv.Status(status), Group: group,
			Seq: seq, Session: session, QueryID: qid, Key: key, Value: value,
		}
		if err := nc.SetChain(hops); err != nil {
			t.Fatal(err)
		}

		// Encode through a pooled frame and a pooled buffer, exactly like
		// the transport hot path.
		pf := GetFrame()
		NewQueryInto(pf, AddrFrom4(10, 1, 0, 9), AddrFrom4(10, 0, 0, 1), 5001, nc)
		bp := GetBuf()
		wire, err := pf.Serialize((*bp)[:0])
		if err != nil {
			t.Fatal(err)
		}
		*bp = wire

		var got Frame
		if err := got.Decode(wire); err != nil {
			t.Fatalf("decode of encoded frame: %v", err)
		}
		if got.NC.Op != nc.Op || got.NC.Status != nc.Status || got.NC.Group != group ||
			got.NC.Seq != seq || got.NC.Session != session || got.NC.QueryID != qid ||
			got.NC.Key != key {
			t.Fatalf("header drifted: %v != %v", &got.NC, nc)
		}
		if !bytes.Equal(got.NC.Value, value) && !(len(got.NC.Value) == 0 && len(value) == 0) {
			t.Fatalf("value drifted: %x != %x", got.NC.Value, value)
		}
		if len(got.NC.Chain) != len(hops) {
			t.Fatalf("chain length drifted: %d != %d", len(got.NC.Chain), len(hops))
		}
		for i := range hops {
			if got.NC.Chain[i] != hops[i] {
				t.Fatalf("chain[%d] drifted: %v != %v", i, got.NC.Chain[i], hops[i])
			}
		}
		// Bit-exact re-encode from the decoded form.
		wire2, err := got.Serialize(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire, wire2) {
			t.Fatalf("wire images differ:\n%x\n%x", wire, wire2)
		}
		// Recycle the pooled objects; a later Get must see zeroed state.
		PutFrame(pf)
		PutBuf(bp)
		clean := GetFrame()
		if clean.NC.Op != 0 || len(clean.NC.Chain) != 0 || clean.IP.Dst != 0 {
			t.Fatalf("pooled frame not reset: %+v", clean)
		}
		PutFrame(clean)
	})
}

// FuzzDecodeBatch covers the batched-datagram decoder the transports run
// on every received datagram: for arbitrary bytes it must never panic,
// must deliver exactly the frames that precede any corruption, and its
// count must match the number of callback invocations. Seeds include
// multi-frame datagrams with partially-truncated trailing frames — the
// torn-batch case whose tail used to be dropped without accounting.
func FuzzDecodeBatch(f *testing.F) {
	one := seedFrame(kv.OpRead, nil)
	two := append(seedFrame(kv.OpWrite, []byte("hello"), AddrFrom4(10, 0, 0, 2)),
		seedFrame(kv.OpDelete, nil)...)
	three := append(append([]byte(nil), two...), seedFrame(kv.OpRead, nil)...)
	f.Add(one)
	f.Add(two)
	f.Add(three)
	// Good frames followed by a partial trailing frame, cut at assorted
	// depths into the last frame.
	for cut := 1; cut < len(one); cut += 9 {
		f.Add(append(append([]byte(nil), two...), one[:cut]...))
	}
	// Mid-batch corruption: flip bits inside the second frame of three.
	for i := len(one); i < len(two); i += 11 {
		flip := append([]byte(nil), three...)
		flip[i] ^= 0x80
		f.Add(flip)
	}
	for _, m := range malformedFrames() {
		f.Add(m.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		calls := 0
		n, err := DecodeBatch(&fr, data, func(g *Frame) {
			if g != &fr {
				t.Fatal("callback frame is not the caller's frame")
			}
			calls++
		})
		if n != calls {
			t.Fatalf("DecodeBatch reported %d frames but delivered %d", n, calls)
		}
		if err == nil && len(data) > 0 && n == 0 {
			t.Fatalf("no frames and no error from %d bytes", len(data))
		}
		// Reference walk: DecodeBatch must agree with NextFrame exactly.
		refN := 0
		rest := data
		for len(rest) > 0 {
			var rf Frame
			next, rerr := NextFrame(&rf, rest)
			if rerr != nil {
				if err == nil {
					t.Fatalf("NextFrame errs (%v) where DecodeBatch did not", rerr)
				}
				break
			}
			refN++
			rest = next
		}
		if refN != n {
			t.Fatalf("DecodeBatch delivered %d frames, reference walk %d", n, refN)
		}
	})
}
