package swsim

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"netchain/internal/kv"
)

func smallCfg() Config {
	return Config{Stages: 4, SlotBytes: 8, SlotsPerStage: 16, PPS: 1e6}
}

func TestConfigDerived(t *testing.T) {
	c := Tofino()
	if c.LineRateValueBytes() != 128 {
		t.Fatalf("line-rate bytes = %d, want 128", c.LineRateValueBytes())
	}
	if c.StorageBytes() != 8*1024*1024 {
		t.Fatalf("storage = %d, want 8MB", c.StorageBytes())
	}
	if c.PassesFor(0) != 1 || c.PassesFor(128) != 1 {
		t.Fatal("values within one pass must cost 1 pass")
	}
	if c.PassesFor(129) != 2 || c.PassesFor(256) != 2 || c.PassesFor(257) != 3 {
		t.Fatal("recirculation pass count wrong")
	}
}

func TestMatchTable(t *testing.T) {
	mt := NewMatchTable(2)
	k1, k2, k3 := kv.KeyFromUint64(1), kv.KeyFromUint64(2), kv.KeyFromUint64(3)
	if err := mt.Install(k1, 10); err != nil {
		t.Fatal(err)
	}
	if err := mt.Install(k1, 11); err == nil {
		t.Fatal("duplicate install must fail")
	}
	if err := mt.Install(k2, 11); err != nil {
		t.Fatal(err)
	}
	if err := mt.Install(k3, 12); err != kv.ErrNoSpace {
		t.Fatalf("over-capacity install = %v, want ErrNoSpace", err)
	}
	if loc, ok := mt.Lookup(k1); !ok || loc != 10 {
		t.Fatal("lookup k1 failed")
	}
	if loc, ok := mt.Remove(k1); !ok || loc != 10 {
		t.Fatal("remove k1 failed")
	}
	if _, ok := mt.Lookup(k1); ok {
		t.Fatal("k1 still present after remove")
	}
	if _, ok := mt.Remove(k1); ok {
		t.Fatal("double remove must report absent")
	}
	if mt.Len() != 1 || len(mt.Keys()) != 1 {
		t.Fatal("table accounting wrong")
	}
}

func TestPipelineAllocFree(t *testing.T) {
	p, err := NewPipeline(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	locs := map[int]bool{}
	for i := 0; i < 16; i++ {
		loc, err := p.Alloc(kv.KeyFromUint64(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if locs[loc] {
			t.Fatalf("slot %d allocated twice", loc)
		}
		locs[loc] = true
	}
	if _, err := p.Alloc(kv.KeyFromUint64(99)); err != kv.ErrNoSpace {
		t.Fatalf("full pipeline Alloc = %v, want ErrNoSpace", err)
	}
	if p.FreeSlots() != 0 || p.ItemCount() != 16 {
		t.Fatal("accounting wrong at full")
	}
	if err := p.Free(kv.KeyFromUint64(3)); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(kv.KeyFromUint64(3)); err != kv.ErrNotFound {
		t.Fatalf("double free = %v, want ErrNotFound", err)
	}
	if p.FreeSlots() != 1 {
		t.Fatal("freed slot not returned")
	}
	if _, err := p.Alloc(kv.KeyFromUint64(99)); err != nil {
		t.Fatal("slot reuse failed")
	}
}

func TestPipelineValueRoundTrip(t *testing.T) {
	p, _ := NewPipeline(smallCfg()) // 4 stages x 8B = 32B/pass, max 256B
	loc, _ := p.Alloc(kv.KeyFromUint64(7))

	if _, ok := p.ReadValue(loc); ok {
		t.Fatal("unwritten slot must read as absent")
	}
	for _, n := range []int{0, 1, 7, 8, 9, 31, 32, 33, 64, 255, 256} {
		v := make(kv.Value, n)
		for i := range v {
			v[i] = byte(i*7 + n)
		}
		if err := p.WriteValue(loc, v); err != nil {
			t.Fatalf("write %dB: %v", n, err)
		}
		got, ok := p.ReadValue(loc)
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("read back %dB mismatch (ok=%v)", n, ok)
		}
		buf := make([]byte, 256)
		m, ok := p.ReadValueInto(buf, loc)
		if !ok || !bytes.Equal(buf[:m], v) {
			t.Fatalf("ReadValueInto %dB mismatch", n)
		}
	}
	if err := p.WriteValue(loc, make(kv.Value, 257)); err != kv.ErrTooLarge {
		t.Fatalf("oversized write = %v, want ErrTooLarge", err)
	}
}

func TestPipelineShorterRewriteClearsOldBytes(t *testing.T) {
	p, _ := NewPipeline(smallCfg())
	loc, _ := p.Alloc(kv.KeyFromUint64(1))
	long := bytes.Repeat([]byte{0xff}, 64)
	p.WriteValue(loc, long)
	p.WriteValue(loc, []byte("ab"))
	got, ok := p.ReadValue(loc)
	if !ok || string(got) != "ab" {
		t.Fatalf("got %q after shrink", got)
	}
}

func TestPipelineTombstone(t *testing.T) {
	p, _ := NewPipeline(smallCfg())
	loc, _ := p.Alloc(kv.KeyFromUint64(1))
	p.WriteValue(loc, []byte("x"))
	p.Tombstone(loc)
	if _, ok := p.ReadValue(loc); ok {
		t.Fatal("tombstoned slot must read as absent")
	}
	// A later write resurrects the slot (new insert reusing the entry).
	p.WriteValue(loc, []byte("y"))
	if v, ok := p.ReadValue(loc); !ok || string(v) != "y" {
		t.Fatal("write after tombstone failed")
	}
}

func TestPipelineVersion(t *testing.T) {
	p, _ := NewPipeline(smallCfg())
	loc, _ := p.Alloc(kv.KeyFromUint64(1))
	if !p.Version(loc).IsZero() {
		t.Fatal("fresh slot version must be zero")
	}
	v := kv.Version{Session: 2, Seq: 9}
	p.SetVersion(loc, v)
	if p.Version(loc) != v {
		t.Fatal("version round trip failed")
	}
}

func TestPipelinePacketAccounting(t *testing.T) {
	p, _ := NewPipeline(smallCfg()) // 32B per pass
	if n := p.CountPacket(16); n != 1 {
		t.Fatalf("passes = %d, want 1", n)
	}
	if n := p.CountPacket(33); n != 2 {
		t.Fatalf("passes = %d, want 2", n)
	}
	pk, ps := p.Stats()
	if pk != 2 || ps != 3 {
		t.Fatalf("stats = %d pkts %d passes, want 2, 3", pk, ps)
	}
}

func TestPipelineMemoryAccounting(t *testing.T) {
	p, _ := NewPipeline(smallCfg())
	loc1, _ := p.Alloc(kv.KeyFromUint64(1))
	loc2, _ := p.Alloc(kv.KeyFromUint64(2))
	p.WriteValue(loc1, make(kv.Value, 1))  // rounds to one 8B slot
	p.WriteValue(loc2, make(kv.Value, 20)) // rounds to three 8B slots
	if m := p.MemoryBytes(); m != 8+24 {
		t.Fatalf("memory = %d, want 32", m)
	}
	p.Tombstone(loc2)
	if m := p.MemoryBytes(); m != 8 {
		t.Fatalf("memory after tombstone = %d, want 8", m)
	}
}

func TestPipelineValuePropertyRoundTrip(t *testing.T) {
	p, _ := NewPipeline(smallCfg())
	loc, _ := p.Alloc(kv.KeyFromUint64(1))
	f := func(raw []byte) bool {
		if len(raw) > 256 {
			raw = raw[:256]
		}
		if err := p.WriteValue(loc, raw); err != nil {
			return false
		}
		got, ok := p.ReadValue(loc)
		return ok && bytes.Equal(got, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPipelineValidation(t *testing.T) {
	if _, err := NewPipeline(Config{}); err == nil {
		t.Fatal("zero config must be rejected")
	}
}

func BenchmarkPipelineWrite64(b *testing.B) {
	p, _ := NewPipeline(Tofino())
	loc, _ := p.Alloc(kv.KeyFromUint64(1))
	v := make(kv.Value, 64)
	rand.New(rand.NewSource(1)).Read(v)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.WriteValue(loc, v)
	}
}

func BenchmarkPipelineReadInto64(b *testing.B) {
	p, _ := NewPipeline(Tofino())
	loc, _ := p.Alloc(kv.KeyFromUint64(1))
	p.WriteValue(loc, make(kv.Value, 64))
	buf := make([]byte, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.ReadValueInto(buf, loc)
	}
}
