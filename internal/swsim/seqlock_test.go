package swsim

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"netchain/internal/kv"
)

// fillPattern builds a value of n bytes deterministically derived from a
// write id: every byte is a function of (id, index), so any mix of two
// writes is detectable.
func fillPattern(dst []byte, id uint64) {
	for i := range dst {
		dst[i] = byte(id*131 + uint64(i)*7 + 13)
	}
}

// TestSeqlockNoTornReads hammers one slot with concurrent committers and
// lock-free readers under -race: every snapshot a reader observes must be
// the exact byte image and version of a single committed write — a torn
// read (bytes from two writes, or value/version mismatch) fails.
func TestSeqlockNoTornReads(t *testing.T) {
	p, err := NewPipeline(Config{Stages: 4, SlotBytes: 8, SlotsPerStage: 8, PPS: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	loc, err := p.Alloc(kv.KeyFromUint64(1))
	if err != nil {
		t.Fatal(err)
	}
	// Value sizes straddle the line-rate boundary (32 B here) so both the
	// flat words and the overflow slab are exercised. Each write id is
	// recoverable from the version's Seq field, and the first 8 bytes of
	// the value carry it redundantly.
	const (
		writers   = 4
		readers   = 4
		perWriter = 3000
		valLen    = 48
	)
	var stop atomic.Bool
	var wg sync.WaitGroup
	write := func(w int) {
		defer wg.Done()
		buf := make([]byte, valLen)
		for i := 0; i < perWriter; i++ {
			id := uint64(w)*perWriter + uint64(i) + 1
			fillPattern(buf, id)
			binary.BigEndian.PutUint64(buf[:8], id)
			if err := p.Commit(loc, buf, kv.Version{Session: 1, Seq: id}, false); err != nil {
				t.Error(err)
				return
			}
		}
	}
	var torn atomic.Int64
	read := func() {
		defer wg.Done()
		var scratch []byte
		want := make([]byte, valLen)
		for !stop.Load() {
			val, ver, live := p.ReadLatest(loc, &scratch)
			if !live {
				continue // before the first commit
			}
			if len(val) != valLen {
				t.Errorf("snapshot length %d, want %d", len(val), valLen)
				torn.Add(1)
				return
			}
			id := binary.BigEndian.Uint64(val[:8])
			if ver.Seq != id {
				t.Errorf("version %v does not match value id %d", ver, id)
				torn.Add(1)
				return
			}
			fillPattern(want, id)
			binary.BigEndian.PutUint64(want[:8], id)
			if !bytes.Equal(val, want) {
				t.Errorf("torn read: value bytes do not match any single write (id %d)", id)
				torn.Add(1)
				return
			}
		}
	}
	var writersWG sync.WaitGroup
	writersWG.Add(writers)
	wg.Add(writers + readers)
	for w := 0; w < writers; w++ {
		go func(w int) { defer writersWG.Done(); write(w) }(w)
	}
	for r := 0; r < readers; r++ {
		go read()
	}
	writersWG.Wait() // readers overlap the entire write phase
	stop.Store(true)
	wg.Wait()
	if n := torn.Load(); n > 0 {
		t.Fatalf("%d torn reads observed", n)
	}
}

// TestSeqlockReadersDuringTombstone interleaves tombstones and rewrites
// with readers: a snapshot must be either a complete committed value or a
// clean miss, never a live-but-stale-length mix.
func TestSeqlockReadersDuringTombstone(t *testing.T) {
	p, _ := NewPipeline(Config{Stages: 2, SlotBytes: 8, SlotsPerStage: 4, PPS: 1e6})
	loc, _ := p.Alloc(kv.KeyFromUint64(9))
	const rounds = 2000
	var wg sync.WaitGroup
	var stop atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		val := make([]byte, 16)
		for i := 1; i <= rounds; i++ {
			id := uint64(i)
			fillPattern(val, id)
			binary.BigEndian.PutUint64(val[:8], id)
			p.Commit(loc, val, kv.Version{Session: 1, Seq: id}, false)
			p.Commit(loc, nil, kv.Version{Session: 1, Seq: id}, true)
		}
		stop.Store(true)
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch []byte
			want := make([]byte, 16)
			for !stop.Load() {
				val, ver, live := p.ReadLatest(loc, &scratch)
				if !live {
					continue
				}
				if len(val) != 16 {
					t.Errorf("live snapshot with length %d", len(val))
					return
				}
				id := binary.BigEndian.Uint64(val[:8])
				if ver.Seq != id {
					t.Errorf("version %v vs value id %d", ver, id)
					return
				}
				fillPattern(want, id)
				binary.BigEndian.PutUint64(want[:8], id)
				if !bytes.Equal(val, want) {
					t.Errorf("torn read at id %d", id)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestReadLatestZeroAlloc pins the zero-allocation property of the read
// fast path once the scratch buffer has grown to the value size.
func TestReadLatestZeroAlloc(t *testing.T) {
	p, _ := NewPipeline(Tofino())
	loc, _ := p.Alloc(kv.KeyFromUint64(1))
	val := make([]byte, 64)
	fillPattern(val, 42)
	if err := p.Commit(loc, val, kv.Version{Session: 1, Seq: 1}, false); err != nil {
		t.Fatal(err)
	}
	var scratch []byte
	allocs := testing.AllocsPerRun(1000, func() {
		v, _, live := p.ReadLatest(loc, &scratch)
		if !live || len(v) != 64 {
			t.Fatal("read failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadLatest allocates %.1f objects/op, want 0", allocs)
	}
}

// TestReadLatestForDetectsSlotReuse pins the GC race fix: a reader that
// resolved a key to a slot before the control plane freed it and reused
// the slot for another key must observe a miss or the original key's
// committed value — never the new tenant's bytes.
func TestReadLatestForDetectsSlotReuse(t *testing.T) {
	p, _ := NewPipeline(Config{Stages: 2, SlotBytes: 8, SlotsPerStage: 1, PPS: 1e6})
	oldKey, newKey := kv.KeyFromUint64(1), kv.KeyFromUint64(2)
	loc, err := p.Alloc(oldKey)
	if err != nil {
		t.Fatal(err)
	}
	oldVal := []byte("old-tenant")
	if err := p.Commit(loc, oldVal, kv.Version{Session: 1, Seq: 1}, false); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var scratch []byte
		for !stop.Load() {
			val, _, live := p.ReadLatestFor(oldKey, loc, &scratch)
			if live && !bytes.Equal(val, oldVal) {
				t.Errorf("read of old key returned new tenant's bytes %q", val)
				return
			}
		}
	}()
	for i := 0; i < 500; i++ {
		if err := p.Free(oldKey); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Alloc(newKey); err != nil {
			t.Fatal(err)
		}
		p.Commit(loc, []byte("NEW-tenant"), kv.Version{Session: 9, Seq: uint64(i)}, false)
		if err := p.Free(newKey); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Alloc(oldKey); err != nil {
			t.Fatal(err)
		}
		p.Commit(loc, oldVal, kv.Version{Session: 1, Seq: uint64(i)}, false)
	}
	stop.Store(true)
	wg.Wait()
}

// TestPagingReadersDuringMaterialise is the paging race proof (run it under
// -race): lock-free readers work the slots just behind the allocation
// frontier while the control plane keeps installing keys — materialising
// page p+1 while page p is being read — and, a page behind the frontier,
// frees keys and re-lets their slots to new tenants, so freed slots are
// reused across page boundaries. Nobody may fault on a missing page; a
// reader must never see a torn value or another tenant's bytes under its
// key; a key that is never freed must never read as absent.
func TestPagingReadersDuringMaterialise(t *testing.T) {
	const (
		pages      = 48
		readers    = 3
		valLen     = 24 // line rate is 16 B here: the overflow slab is exercised too
		tenantBase = uint64(1) << 32
	)
	p, err := NewPipeline(Config{Stages: 2, SlotBytes: 8, SlotsPerStage: pages * pageSlots, PPS: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	// Every fifth id is churned: freed once the frontier is a page past it.
	churned := func(id uint64) bool { return id%5 == 0 }
	install := func(id uint64, buf []byte) {
		loc, err := p.Alloc(kv.KeyFromUint64(id))
		if err != nil {
			t.Error(err)
			return
		}
		fillPattern(buf, id)
		binary.BigEndian.PutUint64(buf[:8], id)
		if err := p.Commit(loc, buf, kv.Version{Session: 1, Seq: id}, false); err != nil {
			t.Error(err)
		}
	}
	var frontier atomic.Uint64 // ids 1..frontier are installed and committed
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var scratch []byte
			want := make([]byte, valLen)
			for !stop.Load() {
				hw := frontier.Load()
				if hw == 0 {
					continue
				}
				id := hw - uint64(rng.Int63n(int64(min(hw, 2*pageSlots))))
				k := kv.KeyFromUint64(id)
				loc, ok := p.Lookup(k)
				var val []byte
				var ver kv.Version
				if ok {
					val, ver, ok = p.ReadLatestFor(k, loc, &scratch)
				}
				if !ok {
					if !churned(id) {
						t.Errorf("key %d is installed, committed and never freed, but reads as absent", id)
						return
					}
					continue
				}
				fillPattern(want, id)
				binary.BigEndian.PutUint64(want[:8], id)
				if ver.Seq != id || !bytes.Equal(val, want) {
					t.Errorf("key %d read version %v and bytes of id %d: torn, or another tenant's", id, ver, binary.BigEndian.Uint64(val[:8]))
					return
				}
			}
		}(int64(r + 1))
	}
	// A dataplane writer commits into the key being installed the instant
	// Lookup can see it: were the match entry published before the page, this
	// is the nil dereference. It writes what install writes, into keys that
	// are never freed, so it changes nothing a reader checks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, valLen)
		for !stop.Load() {
			id := frontier.Load() + 1
			if churned(id) {
				continue
			}
			if loc, ok := p.Lookup(kv.KeyFromUint64(id)); ok {
				fillPattern(buf, id)
				binary.BigEndian.PutUint64(buf[:8], id)
				if err := p.Commit(loc, buf, kv.Version{Session: 1, Seq: id}, false); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	buf := make([]byte, valLen)
	for id := uint64(1); id <= pages*pageSlots && !t.Failed(); id++ {
		install(id, buf)
		frontier.Store(id)
		if old := id - pageSlots - 3; id > pageSlots+3 && churned(old) {
			if err := p.Free(kv.KeyFromUint64(old)); err != nil {
				t.Fatal(err)
			}
			install(tenantBase+old, buf) // lands in old's slot, a page behind the frontier
		}
	}
	stop.Store(true)
	wg.Wait()
	if got := int(p.npages.Load()); got != pages {
		t.Fatalf("%d pages materialised, want %d", got, pages)
	}
	if p.FreeSlots() != 0 {
		t.Fatalf("FreeSlots = %d after filling the pipeline", p.FreeSlots())
	}
}
