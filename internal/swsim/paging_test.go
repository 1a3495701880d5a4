package swsim

import (
	"errors"
	"strings"
	"testing"

	"netchain/internal/kv"
)

// TestAllocSlotNumbering pins the order slots are handed out in — ascending,
// freed slots reused last-in-first-out before a fresh one — which is what
// the flat pre-filled free list did and what the chaos fingerprints rest
// on (slot numbers pick write-lock stripes and iteration orders).
func TestAllocSlotNumbering(t *testing.T) {
	p, err := NewPipeline(Config{Stages: 2, SlotBytes: 8, SlotsPerStage: 3 * pageSlots, PPS: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) kv.Key { return kv.KeyFromUint64(uint64(i)) }
	alloc := func(i, want int) {
		t.Helper()
		loc, err := p.Alloc(key(i))
		if err != nil {
			t.Fatal(err)
		}
		if loc != want {
			t.Fatalf("Alloc(key %d) = slot %d, want %d", i, loc, want)
		}
	}
	free := func(i int) {
		t.Helper()
		if err := p.Free(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	n := pageSlots + 2 // crosses the first page boundary
	for i := 0; i < n; i++ {
		alloc(i, i)
	}
	free(3)
	free(pageSlots) // second page
	free(7)
	alloc(1000, 7) // last freed, first reused
	alloc(1001, pageSlots)
	free(1000)
	alloc(1002, 7)
	alloc(1003, 3)
	alloc(1004, n) // free list drained: the bump pointer resumes
	alloc(1005, n+1)
	if got, want := p.FreeSlots(), 3*pageSlots-(n+2); got != want {
		t.Fatalf("FreeSlots = %d, want %d", got, want)
	}
}

// TestAllocDuplicateOnFullSwitch: installing a key twice is "already
// installed" whether or not the switch has room. The capacity check used
// to run first, so on a full switch the operator was told to add capacity.
func TestAllocDuplicateOnFullSwitch(t *testing.T) {
	p, _ := NewPipeline(Config{Stages: 2, SlotBytes: 8, SlotsPerStage: 8, PPS: 1e6})
	for i := 0; i < 8; i++ {
		if _, err := p.Alloc(kv.KeyFromUint64(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	_, err := p.Alloc(kv.KeyFromUint64(1))
	if err == nil || errors.Is(err, kv.ErrNoSpace) || !strings.Contains(err.Error(), "already installed") {
		t.Fatalf("duplicate Alloc on a full switch = %v, want \"already installed\"", err)
	}
	if _, err := p.Alloc(kv.KeyFromUint64(99)); err != kv.ErrNoSpace {
		t.Fatalf("new key on a full switch = %v, want ErrNoSpace", err)
	}
}

// TestCapacityNotPageMultiple: the configured SlotsPerStage is the limit,
// to the slot, even when it ends mid-page.
func TestCapacityNotPageMultiple(t *testing.T) {
	const slots = pageSlots + 44
	p, _ := NewPipeline(Config{Stages: 2, SlotBytes: 8, SlotsPerStage: slots, PPS: 1e6})
	if got := p.FreeSlots(); got != slots {
		t.Fatalf("FreeSlots on an empty pipeline = %d, want %d", got, slots)
	}
	for i := 0; i < slots; i++ {
		loc, err := p.Alloc(kv.KeyFromUint64(uint64(i)))
		if err != nil || loc != i {
			t.Fatalf("Alloc #%d = (%d, %v)", i, loc, err)
		}
		if got := p.FreeSlots(); got != slots-i-1 {
			t.Fatalf("FreeSlots after %d allocs = %d, want %d", i+1, got, slots-i-1)
		}
	}
	if _, err := p.Alloc(kv.KeyFromUint64(slots)); err != kv.ErrNoSpace {
		t.Fatalf("Alloc #%d = %v, want ErrNoSpace", slots, err)
	}
	if err := p.Free(kv.KeyFromUint64(slots - 1)); err != nil {
		t.Fatal(err)
	}
	if loc, err := p.Alloc(kv.KeyFromUint64(slots)); err != nil || loc != slots-1 {
		t.Fatalf("Alloc after Free = (%d, %v), want slot %d", loc, err, slots-1)
	}
	if p.FreeSlots() != 0 || p.ItemCount() != slots {
		t.Fatalf("FreeSlots=%d ItemCount=%d at full", p.FreeSlots(), p.ItemCount())
	}
}

// TestResidentBytesFollowsKeys: the register file's memory is the pages
// the installed keys touch plus the directory, whatever SlotsPerStage says;
// a failed Alloc materialises nothing, Free releases nothing.
func TestResidentBytesFollowsKeys(t *testing.T) {
	p, _ := NewPipeline(Tofino())
	dir := p.ResidentBytes()
	if want := Tofino().SlotsPerStage / pageSlots * 8; dir != want {
		t.Fatalf("empty pipeline holds %d B, want the %d B directory", dir, want)
	}
	n := 0
	install := func(upTo int) {
		for ; n < upTo; n++ {
			if _, err := p.Alloc(kv.KeyFromUint64(uint64(n))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, upTo := range []int{1, pageSlots, pageSlots + 1, 3*pageSlots - 1, 3 * pageSlots} {
		install(upTo)
		pages := (n + pageSlots - 1) / pageSlots
		if got, want := p.ResidentBytes(), dir+pages*p.pageBytes(); got != want {
			t.Fatalf("%d keys: ResidentBytes = %d, want %d (%d pages)", n, got, want, pages)
		}
	}
	if _, err := p.Alloc(kv.KeyFromUint64(0)); err == nil { // duplicate, at a page boundary
		t.Fatal("duplicate Alloc succeeded")
	}
	for i := 0; i < n; i++ {
		if err := p.Free(kv.KeyFromUint64(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := p.ResidentBytes(), dir+3*p.pageBytes(); got != want {
		t.Fatalf("after the failed Alloc and freeing everything: %d B, want %d (pages are kept, none added)", got, want)
	}
	if p.MemoryBytes() != 0 {
		t.Fatalf("MemoryBytes = %d with nothing live", p.MemoryBytes())
	}
}

// TestUnmaterialisedSlotReadsEmpty: a slot whose page nobody ever touched
// reads exactly as a never-allocated slot of a materialised page does.
func TestUnmaterialisedSlotReadsEmpty(t *testing.T) {
	p, _ := NewPipeline(Config{Stages: 2, SlotBytes: 8, SlotsPerStage: 2 * pageSlots, PPS: 1e6})
	if _, err := p.Alloc(kv.KeyFromUint64(1)); err != nil { // materialises page 0 only
		t.Fatal(err)
	}
	for _, loc := range []int{5, pageSlots + 5} {
		var scratch []byte
		if v, ver, live := p.ReadLatest(loc, &scratch); live || v != nil || !ver.IsZero() {
			t.Fatalf("slot %d: ReadLatest = (%v, %v, %v)", loc, v, ver, live)
		}
		if _, _, live := p.ReadLatestFor(kv.KeyFromUint64(1), loc, &scratch); live {
			t.Fatalf("slot %d: ReadLatestFor is live", loc)
		}
		if _, ok := p.ReadValue(loc); ok {
			t.Fatalf("slot %d: ReadValue ok", loc)
		}
		if n, ok := p.ReadValueInto(make([]byte, 16), loc); ok || n != 0 {
			t.Fatalf("slot %d: ReadValueInto = (%d, %v)", loc, n, ok)
		}
		if !p.Version(loc).IsZero() {
			t.Fatalf("slot %d: Version = %v", loc, p.Version(loc))
		}
	}
}
