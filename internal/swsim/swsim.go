// Package swsim models the programmable switch ASIC substrate NetChain
// runs on (§4.1, §6, §7): exact-match tables that map keys to indexes, and
// per-stage register arrays that hold values, with the resource limits of a
// real pipeline — k stages that can each read or write n bytes per pass,
// a bounded number of slots per stage, and packet recirculation when a
// value exceeds k·n bytes (which costs extra pipeline passes and therefore
// divides effective throughput, §6).
//
// The paper's prototype: 16-byte keys, 8 value stages × 64K slots × 16
// bytes = 8 MB of value storage per switch, values up to 128 B at line
// rate, and a Tofino budget of ~4 billion packets per second.
//
// Concurrency model: a hardware pipeline serves reads at line rate with no
// coordination at all — every packet flows through the register stages
// unobstructed. To mirror that in software, each slot is guarded by a
// seqlock: a per-slot version counter (even = stable, odd = write in
// flight) over word arrays accessed atomically. Readers copy the
// value with plain atomic loads and retry on a torn snapshot; writers
// serialize per slot on striped write locks and bump the counter around
// the store. Reads never block, never allocate, and scale across cores;
// the match table is a sync.Map — since Go 1.24 a concurrent hash-trie
// (internal/sync.HashTrieMap) whose lookups take no lock.
//
// Memory model: the configured SlotsPerStage is the switch's SRAM budget,
// not what the process holds. The register file is demand-paged: slots
// live in pages of pageSlots entries reached through a directory of atomic
// page pointers, and a page is allocated the first time Alloc hands out one
// of its slots. Slots are handed out in ascending order (freed slots
// first, last-in-first-out), so a switch storing N keys holds
// ⌈N/pageSlots⌉ pages however many slots it was configured with, and a
// switch that stores nothing — a transit switch, a spare — holds only the
// directory. Alloc publishes the page BEFORE the match-table entry that
// makes the slot reachable, and the dataplane only ever learns a slot
// number from Lookup, so a reader never finds a missing page; it pays one
// extra atomic pointer load per operation for the indirection (the page is
// loaded once per call, not once per field; BenchmarkPipelineReadInto64
// reads 23.2 ns flat and 22.8 ns paged, inside run-to-run noise). Pages are
// never released while the pipeline lives: a lock-free reader may still
// hold the pointer, and freed slots are reused before fresh ones, so a
// page that emptied is the next one to fill.
package swsim

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"netchain/internal/kv"
)

// Config fixes the pipeline resources of one switch.
type Config struct {
	Stages        int     // value stages traversable per pass (paper: 8)
	SlotBytes     int     // bytes a stage reads/writes per packet (paper: 16)
	SlotsPerStage int     // register-array entries per stage (paper: 64K)
	PPS           float64 // line-rate packet budget per second (paper: 4e9)
}

// Tofino returns the paper's prototype configuration (§7).
func Tofino() Config {
	return Config{Stages: 8, SlotBytes: 16, SlotsPerStage: 64 * 1024, PPS: 4e9}
}

// MaxValueBytes is the largest value storable in this pipeline, including
// recirculation passes: every pass exposes Stages×SlotBytes fresh bytes and
// the parser bounds total value size at 8 passes' worth.
func (c Config) MaxValueBytes() int { return 8 * c.Stages * c.SlotBytes }

// LineRateValueBytes is the largest value processable in a single pass —
// the paper's "k·n = 192 bytes at line rate" bound (§6).
func (c Config) LineRateValueBytes() int { return c.Stages * c.SlotBytes }

// StorageBytes is the total on-chip value storage (paper: 8 MB).
func (c Config) StorageBytes() int { return c.Stages * c.SlotBytes * c.SlotsPerStage }

// PassesFor returns how many pipeline passes a value of n bytes needs:
// one, plus one recirculation per additional k·n chunk (§6). Effective
// switch throughput divides by this number.
func (c Config) PassesFor(valueLen int) int {
	if valueLen <= 0 {
		return 1
	}
	per := c.LineRateValueBytes()
	return (valueLen + per - 1) / per
}

func (c Config) validate() error {
	if c.Stages < 1 || c.SlotBytes < 1 || c.SlotsPerStage < 1 {
		return fmt.Errorf("swsim: non-positive pipeline dimension %+v", c)
	}
	return nil
}

// RegisterArray is one stage's register file: SlotsPerStage entries of
// SlotBytes each, stored flat. Reads return views; writes copy in. It
// models a single stage in isolation (not safe for concurrent use); the
// Pipeline below flattens all stages of a slot into one word array so the
// seqlock read path touches contiguous memory.
type RegisterArray struct {
	slotBytes int
	data      []byte
}

// NewRegisterArray allocates a zeroed array.
func NewRegisterArray(slots, slotBytes int) *RegisterArray {
	return &RegisterArray{slotBytes: slotBytes, data: make([]byte, slots*slotBytes)}
}

// Slots returns the entry count.
func (r *RegisterArray) Slots() int { return len(r.data) / r.slotBytes }

// Read returns a read-only view of slot i.
func (r *RegisterArray) Read(i int) []byte {
	return r.data[i*r.slotBytes : (i+1)*r.slotBytes]
}

// Write copies at most SlotBytes from v into slot i and zero-fills the
// remainder, mirroring a register write of the full word.
func (r *RegisterArray) Write(i int, v []byte) {
	dst := r.data[i*r.slotBytes : (i+1)*r.slotBytes]
	n := copy(dst, v)
	for j := n; j < len(dst); j++ {
		dst[j] = 0
	}
}

// MatchTable is an exact-match table from key to register index — the
// "Match-Action Table" of Fig. 3. Entries are installed by the control
// plane (Insert) and removed by garbage collection (Delete). Lookup is
// safe for concurrent use with Install/Remove and never takes a lock:
// sync.Map is a concurrent hash-trie (internal/sync.HashTrieMap since
// Go 1.24), so the dataplane match is a walk of atomic loads down the
// trie. Each entry costs about 120 B of heap (trie nodes plus the boxed
// slot index).
type MatchTable struct {
	capacity int
	mu       sync.Mutex // serializes Install/Remove (capacity accounting)
	n        atomic.Int64
	index    sync.Map // kv.Key -> int
}

// NewMatchTable builds a table bounded at capacity entries.
func NewMatchTable(capacity int) *MatchTable {
	return &MatchTable{capacity: capacity}
}

// Lookup is the dataplane match: key → register index.
func (t *MatchTable) Lookup(k kv.Key) (int, bool) {
	v, ok := t.index.Load(k)
	if !ok {
		return 0, false
	}
	return v.(int), true
}

// Install adds an entry (control-plane operation).
func (t *MatchTable) Install(k kv.Key, loc int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.index.Load(k); dup {
		return errInstalled(k)
	}
	if int(t.n.Load()) >= t.capacity {
		return kv.ErrNoSpace
	}
	t.index.Store(k, loc)
	t.n.Add(1)
	return nil
}

func errInstalled(k kv.Key) error {
	return fmt.Errorf("swsim: key %v already installed", k)
}

// Remove deletes an entry (control-plane garbage collection).
func (t *MatchTable) Remove(k kv.Key) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.index.Load(k)
	if !ok {
		return 0, false
	}
	t.index.Delete(k)
	t.n.Add(-1)
	return v.(int), true
}

// Len returns the number of installed entries.
func (t *MatchTable) Len() int { return int(t.n.Load()) }

// Keys enumerates installed keys (control-plane use: state sync).
func (t *MatchTable) Keys() []kv.Key {
	out := make([]kv.Key, 0, t.Len())
	t.index.Range(func(k, _ any) bool {
		out = append(out, k.(kv.Key))
		return true
	})
	return out
}

// Per-slot metadata is packed into two atomic words so a snapshot is a
// pair of loads inside the seqlock window:
//
//	word 0: live(1 bit) | valueLen(31 bits) | version.Session(32 bits)
//	word 1: version.Seq(64 bits)
const (
	metaLive     = uint64(1) << 63
	metaLenShift = 32
	metaLenMask  = uint64(1)<<31 - 1
)

// writeStripes is the number of independent write locks slots stripe onto;
// a power of two so loc&(writeStripes-1) picks a stripe. Writers to
// different slots almost never contend; readers never touch these locks.
const writeStripes = 128

// overflowSlab holds the words beyond one pipeline pass's budget for a
// slot. A real switch dedicates further register slots reached by
// recirculation (§6); the memory accounting charges for them identically.
// Slabs are allocated at full recirculation size on first use and replaced
// wholesale on Free, so readers chasing a stale pointer still land on
// validly-sized storage and the seqlock recheck discards the bytes.
type overflowSlab struct {
	words []atomic.Uint64
}

// The register file is paged: pageSlots slots per page, a power of two so
// a slot number splits into (page, index) with a shift and a mask. At the
// paper's 8 × 16 B stages a page is 44 KB.
const (
	pageShift = 8
	pageSlots = 1 << pageShift
	pageMask  = pageSlots - 1
)

// slotHdr is everything a slot holds besides its line-rate value words,
// kept together so the metadata a read touches is contiguous.
type slotHdr struct {
	seq      atomic.Uint32    // seqlock counter
	meta     [2]atomic.Uint64 // packed as above
	keyw     [2]atomic.Uint64 // the owning key, for lock-free tenant checks
	overflow atomic.Pointer[overflowSlab]
}

// page is pageSlots consecutive slots of the register file.
type page struct {
	hdr   [pageSlots]slotHdr
	words []atomic.Uint64 // pageSlots × slotWords value words
}

// value returns the line-rate value words of the page's i-th slot.
func (pg *page) value(i, slotWords int) []atomic.Uint64 {
	return pg.words[i*slotWords : (i+1)*slotWords]
}

// Pipeline is the full on-chip key-value engine of one switch: a match
// table plus the paged register file holding every slot's value words and
// metadata. Reads (ReadLatest, ReadValue, ReadValueInto, Version) are
// lock-free and safe to call from any number of goroutines; writes
// serialize per slot on striped locks. Callers that need a
// read-modify-write (version check then commit) must provide their own
// serialization across the writers of that slot — the core dataplane uses
// per-virtual-group locks for exactly this.
//
// Every slot number passed in must come from Alloc or Lookup. A read of an
// in-range slot whose page was never materialised reports an empty,
// not-live slot — what a never-allocated slot always read as; a write to
// one is a caller bug and panics, as an out-of-range slot does.
type Pipeline struct {
	cfg           Config
	lineRateBytes int
	slotWords     int // words per slot covering the line-rate region

	table   *MatchTable
	dir     []atomic.Pointer[page] // ⌈SlotsPerStage/pageSlots⌉ entries, nil until first use
	npages  atomic.Int64           // materialised pages
	stripes [writeStripes]sync.Mutex

	// Slot allocator, guarded by ctl: slots [0, next) have been handed out
	// at least once; freed holds the ones given back, reused last-in-
	// first-out before next advances.
	ctl   sync.Mutex
	next  int
	freed []int

	packets atomic.Uint64
	passes  atomic.Uint64
}

// NewPipeline allocates the pipeline for cfg.
func NewPipeline(cfg Config) (*Pipeline, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	lr := cfg.LineRateValueBytes()
	p := &Pipeline{
		cfg:           cfg,
		lineRateBytes: lr,
		slotWords:     (lr + 7) / 8,
		table:         NewMatchTable(cfg.SlotsPerStage),
		dir:           make([]atomic.Pointer[page], (cfg.SlotsPerStage+pageSlots-1)/pageSlots),
	}
	return p, nil
}

// Config returns the pipeline's resource configuration.
func (p *Pipeline) Config() Config { return p.cfg }

func (p *Pipeline) stripe(loc int) *sync.Mutex {
	return &p.stripes[loc&(writeStripes-1)]
}

// slot resolves a slot number to its page and index within it: the one
// extra atomic load paging costs an operation. pg is nil when no slot of
// that page was ever allocated.
func (p *Pipeline) slot(loc int) (pg *page, i int) {
	return p.dir[loc>>pageShift].Load(), loc & pageMask
}

// materialise makes sure loc's page exists. Caller holds ctl, so pages are
// created by one goroutine at a time; the atomic store is what publishes
// the zeroed page to lock-free readers.
func (p *Pipeline) materialise(loc int) {
	d := &p.dir[loc>>pageShift]
	if d.Load() != nil {
		return
	}
	d.Store(&page{words: make([]atomic.Uint64, pageSlots*p.slotWords)})
	p.npages.Add(1)
}

// Alloc installs key k and reserves a register slot for it. Control-plane
// path (§4.1: "Insert queries require the control plane to set up entries
// in switch tables"). Slots are handed out in ascending order, freed slots
// first (last freed, first reused).
func (p *Pipeline) Alloc(k kv.Key) (int, error) {
	p.ctl.Lock()
	defer p.ctl.Unlock()
	// The duplicate check comes first: on a full switch "already installed"
	// is the real error, not ErrNoSpace, and a failing Alloc must not
	// materialise a page. ctl serializes every Install, so the answer holds.
	if _, dup := p.table.Lookup(k); dup {
		return 0, errInstalled(k)
	}
	loc, reuse := p.next, len(p.freed) > 0
	if reuse {
		loc = p.freed[len(p.freed)-1]
	} else if p.next == p.cfg.SlotsPerStage {
		return 0, kv.ErrNoSpace
	}
	// Page, then reset, then the match-table install that publishes the
	// slot: the moment Lookup can see k, a dataplane reader dereferences
	// loc's page and a concurrent dataplane write may commit into loc — a
	// missing page would be a nil dereference, and a reset after the
	// install would silently wipe an acknowledged write. If Install fails
	// the slot stays free; the next Alloc resets it again.
	p.materialise(loc)
	p.resetSlot(loc, k)
	if err := p.table.Install(k, loc); err != nil {
		return 0, err
	}
	if reuse {
		p.freed = p.freed[:len(p.freed)-1]
	} else {
		p.next++
	}
	return loc, nil
}

// Free removes key k's match entry and returns its slot to the free list
// (control-plane garbage collection after Delete, §4.1). The slot's page
// stays: a reader may be inside it, and the slot is the next one reused.
func (p *Pipeline) Free(k kv.Key) error {
	p.ctl.Lock()
	defer p.ctl.Unlock()
	loc, ok := p.table.Remove(k)
	if !ok {
		return kv.ErrNotFound
	}
	p.resetSlot(loc, kv.Key{})
	p.freed = append(p.freed, loc)
	return nil
}

// resetSlot zeroes a slot's metadata and records its (new) owning key
// under the seqlock, so an in-flight reader of the old tenant can never
// observe a torn mix — and, via the key words, can detect that the slot
// changed hands entirely (ReadLatestFor).
func (p *Pipeline) resetSlot(loc int, k kv.Key) {
	pg, i := p.slot(loc)
	h := &pg.hdr[i]
	mu := p.stripe(loc)
	mu.Lock()
	h.seq.Add(1)
	h.meta[0].Store(0)
	h.meta[1].Store(0)
	h.keyw[0].Store(binary.LittleEndian.Uint64(k[:8]))
	h.keyw[1].Store(binary.LittleEndian.Uint64(k[8:]))
	h.overflow.Store(nil)
	h.seq.Add(1)
	mu.Unlock()
}

// Lookup is the dataplane match stage (lock-free).
func (p *Pipeline) Lookup(k kv.Key) (int, bool) { return p.table.Lookup(k) }

// emptyValue is the non-nil zero-length value returned for live slots with
// an empty value, so the read path allocates nothing for them.
var emptyValue = make([]byte, 0)

// ReadLatestFor is ReadLatest with a tenant check: inside the same
// seqlock window it verifies the slot still belongs to key k, so a
// lock-free reader racing control-plane garbage collection (Free followed
// by an Alloc that reuses the slot for another key) observes a clean miss
// instead of the new tenant's value. This is the read the dataplane must
// use: the match lookup and the value snapshot are not atomic, and the
// key words are what re-links them.
func (p *Pipeline) ReadLatestFor(k kv.Key, loc int, scratch *[]byte) (val []byte, ver kv.Version, live bool) {
	return p.readLatest(loc, scratch, binary.LittleEndian.Uint64(k[:8]), binary.LittleEndian.Uint64(k[8:]), true)
}

// ReadLatest copies a consistent (value, version, liveness) snapshot of
// slot loc without taking any lock: it reads the seqlock counter, copies
// the words with atomic loads, and retries if a concurrent writer moved
// the counter. The value is returned in *scratch, which is grown once to
// the slot's value size and reused on subsequent calls — the dataplane
// hot path performs zero allocations in steady state. Callers that hold
// no lock excluding slot reuse should prefer ReadLatestFor.
func (p *Pipeline) ReadLatest(loc int, scratch *[]byte) (val []byte, ver kv.Version, live bool) {
	return p.readLatest(loc, scratch, 0, 0, false)
}

func (p *Pipeline) readLatest(loc int, scratch *[]byte, k0, k1 uint64, checkKey bool) (val []byte, ver kv.Version, live bool) {
	pg, i := p.slot(loc)
	if pg == nil {
		return nil, kv.Version{}, false
	}
	h := &pg.hdr[i]
	for spins := 0; ; spins++ {
		s1 := h.seq.Load()
		if s1&1 != 0 {
			// Write in flight; yield occasionally so a single-core
			// scheduler lets the writer finish.
			if spins&63 == 63 {
				runtime.Gosched()
			}
			continue
		}
		if checkKey && (h.keyw[0].Load() != k0 || h.keyw[1].Load() != k1) {
			// The slot changed tenants after the match lookup: only a
			// stable observation counts, so recheck the seqlock before
			// reporting the miss.
			if h.seq.Load() == s1 {
				return nil, kv.Version{}, false
			}
			continue
		}
		w0 := h.meta[0].Load()
		wseq := h.meta[1].Load()
		live = w0&metaLive != 0
		vlen := int((w0 >> metaLenShift) & metaLenMask)
		ver = kv.Version{Session: uint32(w0), Seq: wseq}
		var out []byte
		if live {
			if vlen == 0 {
				out = emptyValue
			} else {
				if cap(*scratch) < vlen {
					*scratch = make([]byte, vlen)
				}
				out = (*scratch)[:vlen]
				if !p.copyOut(out, pg, i) {
					continue // overflow slab raced with a writer; retry
				}
			}
		}
		if h.seq.Load() == s1 {
			return out, ver, live
		}
	}
}

// ReadValue copies the value at loc out of the stage registers; ok is
// false for a tombstoned slot. It allocates a fresh value — control-plane
// and adjudication paths that retain the bytes use this; the dataplane
// read path uses ReadLatest with a reused buffer.
func (p *Pipeline) ReadValue(loc int) (kv.Value, bool) {
	var buf []byte
	val, _, live := p.ReadLatest(loc, &buf)
	if !live {
		return nil, false
	}
	return val, true
}

// ReadValueInto copies the value at loc into dst and returns the number
// of bytes, avoiding allocation on the hot path. ok is false for a
// tombstoned slot — or when the committed value no longer fits dst (a
// concurrent writer may grow a value after the caller sized its buffer;
// callers that must never miss should size dst at Config().MaxValueBytes).
func (p *Pipeline) ReadValueInto(dst []byte, loc int) (int, bool) {
	pg, i := p.slot(loc)
	if pg == nil {
		return 0, false
	}
	h := &pg.hdr[i]
	for spins := 0; ; spins++ {
		s1 := h.seq.Load()
		if s1&1 != 0 {
			if spins&63 == 63 {
				runtime.Gosched()
			}
			continue
		}
		w0 := h.meta[0].Load()
		live := w0&metaLive != 0
		vlen := int((w0 >> metaLenShift) & metaLenMask)
		if !live || vlen > len(dst) {
			if h.seq.Load() == s1 {
				return 0, false
			}
			continue
		}
		if vlen > 0 && !p.copyOut(dst[:vlen], pg, i) {
			continue
		}
		if h.seq.Load() == s1 {
			return vlen, true
		}
	}
}

// copyOut copies len(dst) value bytes of the page's i-th slot from the word
// arrays using atomic loads. It reports false when the overflow slab is
// missing or too short — a sign the snapshot raced with a writer and must
// retry.
func (p *Pipeline) copyOut(dst []byte, pg *page, i int) bool {
	n := len(dst)
	lr := p.lineRateBytes
	head := n
	if head > lr {
		head = lr
	}
	copyWordsOut(dst[:head], pg.value(i, p.slotWords))
	if n > lr {
		slab := pg.hdr[i].overflow.Load()
		need := (n - lr + 7) / 8
		if slab == nil || len(slab.words) < need {
			return false
		}
		copyWordsOut(dst[lr:], slab.words)
	}
	return true
}

// copyWordsOut unpacks words into dst with atomic loads, little-endian.
func copyWordsOut(dst []byte, src []atomic.Uint64) {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], src[i/8].Load())
	}
	if i < len(dst) {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], src[i/8].Load())
		copy(dst[i:], tmp[:])
	}
}

// copyWordsIn packs src bytes into dst words with atomic stores.
func copyWordsIn(dst []atomic.Uint64, src []byte) {
	i := 0
	for ; i+8 <= len(src); i += 8 {
		dst[i/8].Store(binary.LittleEndian.Uint64(src[i:]))
	}
	if i < len(src) {
		var tmp [8]byte
		copy(tmp[:], src[i:])
		dst[i/8].Store(binary.LittleEndian.Uint64(tmp[:]))
	}
}

// storeValue writes v's bytes into the word arrays of the page's i-th
// slot. Caller holds the stripe lock and has the seqlock counter odd.
func (p *Pipeline) storeValue(pg *page, i int, v []byte) {
	head := len(v)
	if head > p.lineRateBytes {
		head = p.lineRateBytes
	}
	copyWordsIn(pg.value(i, p.slotWords), v[:head])
	if len(v) > p.lineRateBytes {
		h := &pg.hdr[i]
		slab := h.overflow.Load()
		if slab == nil {
			maxWords := (p.cfg.MaxValueBytes() - p.lineRateBytes + 7) / 8
			slab = &overflowSlab{words: make([]atomic.Uint64, maxWords)}
			h.overflow.Store(slab)
		}
		copyWordsIn(slab.words, v[p.lineRateBytes:])
	}
}

// Commit atomically installs value, version and liveness for slot loc in
// one seqlock critical section — the primitive behind dataplane apply and
// state sync. tombstone invalidates the value while still advancing the
// version (Delete is an ordered write, §4.1).
func (p *Pipeline) Commit(loc int, v kv.Value, ver kv.Version, tombstone bool) error {
	if len(v) > p.cfg.MaxValueBytes() {
		return kv.ErrTooLarge
	}
	pg, i := p.slot(loc)
	h := &pg.hdr[i]
	mu := p.stripe(loc)
	mu.Lock()
	h.seq.Add(1)
	w0 := uint64(ver.Session)
	if !tombstone {
		p.storeValue(pg, i, v)
		w0 |= metaLive | uint64(len(v))<<metaLenShift
	}
	h.meta[0].Store(w0)
	h.meta[1].Store(ver.Seq)
	h.seq.Add(1)
	mu.Unlock()
	return nil
}

// WriteValue spreads v across the stage registers at loc, keeping the
// stored version. Values beyond one pipeline pass's budget land in the
// overflow bank that models the extra register slots recirculation passes
// reach (§6).
func (p *Pipeline) WriteValue(loc int, v kv.Value) error {
	if len(v) > p.cfg.MaxValueBytes() {
		return kv.ErrTooLarge
	}
	pg, i := p.slot(loc)
	h := &pg.hdr[i]
	mu := p.stripe(loc)
	mu.Lock()
	w1 := h.meta[1].Load()
	session := uint32(h.meta[0].Load())
	h.seq.Add(1)
	p.storeValue(pg, i, v)
	h.meta[0].Store(uint64(session) | metaLive | uint64(len(v))<<metaLenShift)
	h.meta[1].Store(w1)
	h.seq.Add(1)
	mu.Unlock()
	return nil
}

// Tombstone invalidates the slot in the dataplane (Delete, §4.1), keeping
// the stored version.
func (p *Pipeline) Tombstone(loc int) {
	pg, i := p.slot(loc)
	h := &pg.hdr[i]
	mu := p.stripe(loc)
	mu.Lock()
	session := uint32(h.meta[0].Load())
	h.seq.Add(1)
	h.meta[0].Store(uint64(session))
	h.seq.Add(1)
	mu.Unlock()
}

// Version returns the ordering version stored for loc (a consistent
// snapshot; lock-free).
func (p *Pipeline) Version(loc int) kv.Version {
	pg, i := p.slot(loc)
	if pg == nil {
		return kv.Version{}
	}
	h := &pg.hdr[i]
	for spins := 0; ; spins++ {
		s1 := h.seq.Load()
		if s1&1 != 0 {
			if spins&63 == 63 {
				runtime.Gosched()
			}
			continue
		}
		w0 := h.meta[0].Load()
		w1 := h.meta[1].Load()
		if h.seq.Load() == s1 {
			return kv.Version{Session: uint32(w0), Seq: w1}
		}
	}
}

// SetVersion stores the ordering version for loc, keeping value bytes and
// liveness.
func (p *Pipeline) SetVersion(loc int, v kv.Version) {
	pg, i := p.slot(loc)
	h := &pg.hdr[i]
	mu := p.stripe(loc)
	mu.Lock()
	w0 := h.meta[0].Load()
	h.seq.Add(1)
	h.meta[0].Store(w0>>32<<32 | uint64(v.Session))
	h.meta[1].Store(v.Seq)
	h.seq.Add(1)
	mu.Unlock()
}

// CountPacket records that one packet consulted the pipeline, carrying a
// value of valueLen bytes (for recirculation accounting). Returns the
// number of passes the packet consumed.
func (p *Pipeline) CountPacket(valueLen int) int {
	n := p.cfg.PassesFor(valueLen)
	p.packets.Add(1)
	p.passes.Add(uint64(n))
	return n
}

// Stats reports packets processed and pipeline passes consumed; the ratio
// is the recirculation overhead factor.
func (p *Pipeline) Stats() (packets, passes uint64) {
	return p.packets.Load(), p.passes.Load()
}

// ItemCount returns the number of installed keys.
func (p *Pipeline) ItemCount() int { return p.table.Len() }

// FreeSlots returns the number of unallocated slots.
func (p *Pipeline) FreeSlots() int {
	p.ctl.Lock()
	defer p.ctl.Unlock()
	return p.cfg.SlotsPerStage - p.next + len(p.freed)
}

// Keys enumerates installed keys for control-plane state sync.
func (p *Pipeline) Keys() []kv.Key { return p.table.Keys() }

// MemoryBytes reports the value storage consumed by live items, as a real
// controller would account against the on-chip SRAM budget (§6). Only a
// materialised page can hold a live item, so only those are walked.
func (p *Pipeline) MemoryBytes() int {
	total := 0
	for d := range p.dir {
		pg := p.dir[d].Load()
		if pg == nil {
			continue
		}
		for i := range pg.hdr {
			w0 := pg.hdr[i].meta[0].Load()
			if w0&metaLive != 0 {
				// A slot pins SlotBytes in every stage it touches.
				vlen := int((w0 >> metaLenShift) & metaLenMask)
				n := (vlen + p.cfg.SlotBytes - 1) / p.cfg.SlotBytes
				if n == 0 {
					n = 1
				}
				total += n * p.cfg.SlotBytes
			}
		}
	}
	return total
}

// pageBytes is what one materialised page holds: its slot headers plus the
// line-rate value words of every slot.
func (p *Pipeline) pageBytes() int {
	return int(unsafe.Sizeof(page{})) + pageSlots*p.slotWords*8
}

// ResidentBytes reports the process memory the register file occupies —
// materialised pages plus the page directory — as opposed to MemoryBytes,
// the modelled SRAM that live items consume. It follows the keys stored,
// not SlotsPerStage. Overflow slabs (values past one pipeline pass) come
// on top.
func (p *Pipeline) ResidentBytes() int {
	return int(p.npages.Load())*p.pageBytes() + len(p.dir)*int(unsafe.Sizeof(p.dir[0]))
}
