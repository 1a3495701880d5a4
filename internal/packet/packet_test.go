package packet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"netchain/internal/kv"
)

func TestAddrRoundTrip(t *testing.T) {
	a := AddrFrom4(10, 0, 1, 2)
	if a.String() != "10.0.1.2" {
		t.Fatalf("String() = %q", a.String())
	}
	b, err := ParseAddr("10.0.1.2")
	if err != nil || b != a {
		t.Fatalf("ParseAddr = %v, %v; want %v", b, err, a)
	}
	if _, err := ParseAddr("::1"); err == nil {
		t.Fatal("IPv6 must be rejected")
	}
	if _, err := ParseAddr("not-an-ip"); err == nil {
		t.Fatal("garbage must be rejected")
	}
	if !Addr(0).IsZero() || a.IsZero() {
		t.Fatal("IsZero misbehaves")
	}
}

func TestParseMapping(t *testing.T) {
	for _, c := range []struct {
		spec, host string
		addr       Addr
		ok         bool
	}{
		{"10.0.0.1=127.0.0.1:9001", "127.0.0.1:9001", AddrFrom4(10, 0, 0, 1), true},
		{"10.0.0.1=[::1]:9001", "[::1]:9001", AddrFrom4(10, 0, 0, 1), true},
		{"10.0.0.1", "", 0, false},              // no '='
		{"10.0.0.1:9001", "", 0, false},         // no '='
		{"10.0.0=127.0.0.1:9001", "", 0, false}, // bad virtual address
		{"::1=127.0.0.1:9001", "", 0, false},    // virtual address not IPv4
		{"=127.0.0.1:9001", "", 0, false},       // empty virtual address
		{"10.0.0.1=", "", 0, false},             // empty host:port
	} {
		a, host, err := ParseMapping(c.spec)
		if (err == nil) != c.ok || a != c.addr || host != c.host {
			t.Errorf("ParseMapping(%q) = %v, %q, %v; want %v, %q, ok=%v", c.spec, a, host, err, c.addr, c.host, c.ok)
		}
	}
}

func TestAddrParseProperty(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		back, err := ParseAddr(a.String())
		return err == nil && back == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func sampleHeader() *NetChain {
	h := &NetChain{
		Op:      kv.OpWrite,
		Status:  kv.StatusOK,
		Group:   17,
		Seq:     42,
		Session: 3,
		QueryID: 0xdeadbeef,
		Key:     kv.KeyFromString("foo"),
		Value:   []byte("the-value"),
	}
	h.SetChain([]Addr{AddrFrom4(10, 0, 0, 2), AddrFrom4(10, 0, 0, 3)})
	return h
}

func TestNetChainRoundTrip(t *testing.T) {
	h := sampleHeader()
	buf, err := h.SerializeTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != h.WireLen() {
		t.Fatalf("WireLen=%d but serialized %d", h.WireLen(), len(buf))
	}
	var d NetChain
	if err := d.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if d.Op != h.Op || d.Seq != h.Seq || d.Session != h.Session ||
		d.QueryID != h.QueryID || d.Key != h.Key || d.Group != h.Group {
		t.Fatalf("fixed fields mismatch: %+v", &d)
	}
	if !bytes.Equal(d.Value, h.Value) {
		t.Fatalf("value mismatch: %q", d.Value)
	}
	if len(d.Chain) != 2 || d.Chain[0] != h.Chain[0] || d.Chain[1] != h.Chain[1] {
		t.Fatalf("chain mismatch: %v", d.Chain)
	}
}

func TestNetChainDecodeErrors(t *testing.T) {
	h := sampleHeader()
	buf, _ := h.SerializeTo(nil)

	var d NetChain
	if err := d.DecodeFromBytes(buf[:10]); err == nil {
		t.Fatal("truncated fixed header must fail")
	}
	if err := d.DecodeFromBytes(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated chain list must fail")
	}
	bad := append([]byte(nil), buf...)
	bad[0] = 0
	if err := d.DecodeFromBytes(bad); err == nil {
		t.Fatal("bad magic must fail")
	}
	bad = append([]byte(nil), buf...)
	bad[2] = 9
	if err := d.DecodeFromBytes(bad); err == nil {
		t.Fatal("bad version must fail")
	}
	bad = append([]byte(nil), buf...)
	bad[3] = 0
	if err := d.DecodeFromBytes(bad); err == nil {
		t.Fatal("invalid op must fail")
	}
	bad = append([]byte(nil), buf...)
	bad[5] = MaxChainHops + 1
	if err := d.DecodeFromBytes(bad); err == nil {
		t.Fatal("oversized chain count must fail")
	}
}

func TestNetChainPopAndSetChain(t *testing.T) {
	h := &NetChain{}
	hops := []Addr{1, 2, 3}
	if err := h.SetChain(hops); err != nil {
		t.Fatal(err)
	}
	hops[0] = 99 // caller's slice must not alias
	next, ok := h.PopChain()
	if !ok || next != 1 {
		t.Fatalf("PopChain = %v, %v; want 1, true", next, ok)
	}
	if next, ok = h.PopChain(); !ok || next != 2 {
		t.Fatalf("PopChain = %v, %v; want 2, true", next, ok)
	}
	if next, ok = h.PopChain(); !ok || next != 3 {
		t.Fatalf("PopChain = %v, %v; want 3, true", next, ok)
	}
	if _, ok = h.PopChain(); ok {
		t.Fatal("empty chain must report ok=false")
	}
	long := make([]Addr, MaxChainHops+1)
	if err := h.SetChain(long); err == nil {
		t.Fatal("oversized chain must be rejected")
	}
}

func TestNetChainClone(t *testing.T) {
	h := sampleHeader()
	c := h.Clone()
	c.Value[0] = 'X'
	c.Chain[0] = 0
	if h.Value[0] == 'X' || h.Chain[0] == 0 {
		t.Fatal("Clone must not alias value or chain")
	}
}

func TestNetChainRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		h := &NetChain{
			Op:      kv.Op(1 + rng.Intn(7)),
			Status:  kv.Status(rng.Intn(6)),
			Group:   uint16(rng.Uint32()),
			Seq:     rng.Uint64(),
			Session: rng.Uint32(),
			QueryID: rng.Uint64(),
		}
		rng.Read(h.Key[:])
		if n := rng.Intn(kv.MaxValueSize + 1); n > 0 {
			h.Value = make([]byte, n)
			rng.Read(h.Value)
		}
		hops := make([]Addr, rng.Intn(MaxChainHops+1))
		for j := range hops {
			hops[j] = Addr(rng.Uint32())
		}
		h.SetChain(hops)

		buf, err := h.SerializeTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		var d NetChain
		if err := d.DecodeFromBytes(buf); err != nil {
			t.Fatalf("iter %d: %v (header %v)", i, err, h)
		}
		if d.Op != h.Op || d.Status != h.Status || d.Seq != h.Seq ||
			d.Group != h.Group ||
			d.Session != h.Session || d.QueryID != h.QueryID || d.Key != h.Key ||
			!bytes.Equal(d.Value, h.Value) || len(d.Chain) != len(h.Chain) {
			t.Fatalf("iter %d: round trip mismatch", i)
		}
		for j := range d.Chain {
			if d.Chain[j] != h.Chain[j] {
				t.Fatalf("iter %d: chain[%d] mismatch", i, j)
			}
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	nc := sampleHeader()
	f := NewQuery(AddrFrom4(10, 1, 0, 1), AddrFrom4(10, 0, 0, 1), 5555, nc)
	buf, err := f.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != f.WireLen() {
		t.Fatalf("WireLen=%d but serialized %d bytes", f.WireLen(), len(buf))
	}
	var d Frame
	if err := d.Decode(buf); err != nil {
		t.Fatal(err)
	}
	if d.IP.Src != f.IP.Src || d.IP.Dst != f.IP.Dst {
		t.Fatalf("IP mismatch: %+v", d.IP)
	}
	if d.UDP.SrcPort != 5555 || d.UDP.DstPort != Port {
		t.Fatalf("UDP mismatch: %+v", d.UDP)
	}
	if d.IP.TTL != 64 {
		t.Fatalf("TTL = %d, want 64", d.IP.TTL)
	}
	if d.NC.Key != nc.Key || !bytes.Equal(d.NC.Value, nc.Value) {
		t.Fatal("NetChain payload mismatch")
	}
}

func TestFrameToReply(t *testing.T) {
	nc := sampleHeader()
	client := AddrFrom4(10, 1, 0, 1)
	tail := AddrFrom4(10, 0, 0, 3)
	f := NewQuery(client, tail, 7777, nc)
	f.ToReply(kv.StatusOK)
	if f.IP.Dst != client || f.IP.Src != tail {
		t.Fatalf("reply addressing wrong: %+v", f.IP)
	}
	if f.UDP.DstPort != 7777 || f.UDP.SrcPort != Port {
		t.Fatalf("reply ports wrong: %+v", f.UDP)
	}
	if f.NC.Op != kv.OpReply || len(f.NC.Chain) != 0 {
		t.Fatalf("reply header wrong: %v", &f.NC)
	}
}

// setFrameLen returns a copy of data whose frame starting at off has its
// carrier length field (the carrier's last two bytes) set to n.
func setFrameLen(data []byte, off, n int) []byte {
	out := append([]byte(nil), data...)
	binary.BigEndian.PutUint16(out[off+CarrierLen-2:], uint16(n))
	return out
}

// malformedFrame is a datagram a batch walk rejects: it delivers good
// frames, then fails with an error containing err.
type malformedFrame struct {
	name string
	data []byte
	good int
	err  string
}

// malformedFrames covers every check the carrier makes on outside input.
func malformedFrames() []malformedFrame {
	one := seedFrame(kv.OpWrite, []byte("hello"), AddrFrom4(10, 0, 0, 2))
	two := append(append([]byte(nil), one...), seedFrame(kv.OpRead, nil)...)
	noPort := append([]byte(nil), one...)
	binary.BigEndian.PutUint16(noPort[10:], 9) // dport; sport is 4000
	return []malformedFrame{
		{"short carrier", one[:CarrierLen-1], 0, "carrier truncated"},
		{"no NetChain port", noPort, 0, "neither UDP port"},
		{"length past datagram", setFrameLen(one, 0, len(one)+1), 0, "outside datagram"},
		{"length below carrier", setFrameLen(one, 0, CarrierLen-1), 0, "outside datagram"},
		{"length disagrees with header", setFrameLen(append(one, 0), 0, len(one)+1), 0, "carrier length"},
		{"second frame lies about length", setFrameLen(two, len(one), len(two)-len(one)-1), 1, "truncated"},
	}
}

func TestFrameDecodeRejectsForeign(t *testing.T) {
	for _, tc := range malformedFrames() {
		t.Run(tc.name, func(t *testing.T) {
			var f Frame
			n, err := DecodeBatch(&f, tc.data, func(*Frame) {})
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("err = %v, want one containing %q", err, tc.err)
			}
			if n != tc.good {
				t.Fatalf("delivered %d frames before the error, want %d", n, tc.good)
			}
		})
	}
}

// TestSerializeRejectsOversizeFrame: a frame too long for the carrier's
// 16-bit length field must fail to serialize instead of writing a wrapped
// length that the decoder then misreads.
func TestSerializeRejectsOversizeFrame(t *testing.T) {
	nc := &NetChain{Op: kv.OpWrite, Key: kv.KeyFromString("big")}
	f := NewQuery(1, 2, 9, nc)
	f.NC.Value = make([]byte, maxFrameLen-CarrierLen-netchainFixedLen)
	if _, err := f.Serialize(nil); err != nil {
		t.Fatalf("largest frame must serialize: %v", err)
	}
	f.NC.Value = make([]byte, 65500)
	if out, err := f.Serialize(nil); err == nil {
		t.Fatalf("a %d-byte frame serialized without error", len(out))
	}
}

func TestFrameClone(t *testing.T) {
	nc := sampleHeader()
	f := NewQuery(1, 2, 9, nc)
	c := f.Clone()
	c.NC.Value[0] = 'Z'
	if f.NC.Value[0] == 'Z' {
		t.Fatal("Clone must not alias NC value")
	}
}

func TestNewQueryCopiesChain(t *testing.T) {
	nc := sampleHeader()
	f := NewQuery(1, 2, 9, nc)
	nc.Chain[0] = 0xffffffff
	if f.NC.Chain[0] == 0xffffffff {
		t.Fatal("NewQuery must copy the chain list")
	}
}

func BenchmarkNetChainSerialize(b *testing.B) {
	h := sampleHeader()
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		var err error
		buf, err = h.SerializeTo(buf)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetChainDecode(b *testing.B) {
	h := sampleHeader()
	buf, _ := h.SerializeTo(nil)
	var d NetChain
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := d.DecodeFromBytes(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameSerialize(b *testing.B) {
	f := NewQuery(AddrFrom4(10, 1, 0, 1), AddrFrom4(10, 0, 0, 1), 5555, sampleHeader())
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = f.Serialize(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameDecode(b *testing.B) {
	f := NewQuery(AddrFrom4(10, 1, 0, 1), AddrFrom4(10, 0, 0, 1), 5555, sampleHeader())
	buf, err := f.Serialize(nil)
	if err != nil {
		b.Fatal(err)
	}
	var d Frame
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := d.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPeekAddrsMatchesDecode: a partition matcher's peek at a
// serialized frame must read the source and destination the full decoder
// does — for a query, a reply, and the first frame of a batch.
func TestPeekAddrsMatchesDecode(t *testing.T) {
	client, head, tail := AddrFrom4(10, 1, 0, 1), AddrFrom4(10, 0, 0, 1), AddrFrom4(10, 0, 0, 2)
	nc := &NetChain{Op: kv.OpWrite, Key: kv.KeyFromString("peek"), Value: []byte("v")}
	if err := nc.SetChain([]Addr{tail}); err != nil {
		t.Fatal(err)
	}
	query, err := NewQuery(client, head, 5000, nc).Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	rf := NewQuery(client, tail, 5000, nc)
	rf.ToReply(kv.StatusOK)
	reply, err := rf.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		buf      []byte
		src, dst Addr
	}{
		{"query", query, client, head},
		{"reply", reply, tail, client},
		{"batch", append(append([]byte(nil), reply...), query...), tail, client},
	} {
		var f Frame
		if err := f.Decode(tc.buf); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		src, dst, ok := PeekAddrs(tc.buf)
		if !ok || src != f.IP.Src || dst != f.IP.Dst || src != tc.src || dst != tc.dst {
			t.Fatalf("%s: PeekAddrs = %v→%v ok=%v, Decode = %v→%v, want %v→%v",
				tc.name, src, dst, ok, f.IP.Src, f.IP.Dst, tc.src, tc.dst)
		}
	}
	if _, _, ok := PeekAddrs(query[:CarrierLen-1]); ok {
		t.Fatal("PeekAddrs accepted a buffer shorter than the carrier")
	}
}
