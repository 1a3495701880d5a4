package core

import (
	"bytes"
	"testing"

	"netchain/internal/kv"
	"netchain/internal/packet"
)

// refTag and tagRing are the head's duplicate-adjudication state as it was
// kept before per-class rings: 80-byte tags carrying their stored value,
// writeTagDepth applied plus writeTagDepth no-effect verdicts interleaved
// newest first in one ring per key. They exist only as the reference
// FuzzTagRingMatchesReference holds keyTags to.
type refTag struct {
	src       packet.Addr
	port      uint16
	qid       uint64
	op        kv.Op
	valHash   uint64
	verdict   tagVerdict
	ver       kv.Version
	storedVal kv.Value
}

type tagRing struct {
	tags [2 * writeTagDepth]refTag
	n    int
}

// push prepends tag, evicting the oldest entry of the same verdict class
// when that class is at capacity.
func (r *tagRing) push(tag refTag) {
	applied := tag.verdict == tagApplied
	count := 0
	for i := 0; i < r.n; i++ {
		if (r.tags[i].verdict == tagApplied) == applied {
			count++
		}
	}
	if count >= writeTagDepth {
		for i := r.n - 1; i >= 0; i-- {
			if (r.tags[i].verdict == tagApplied) == applied {
				copy(r.tags[i:], r.tags[i+1:r.n])
				r.n--
				break
			}
		}
	}
	copy(r.tags[1:r.n+1], r.tags[:r.n])
	r.tags[0] = tag
	r.n++
}

// lookup is the head's scan over the ring: newest first, the first tag
// with the query's identity wins.
func (r *tagRing) lookup(src packet.Addr, port uint16, qid uint64, op kv.Op, valHash uint64) (refTag, bool) {
	for _, tag := range r.tags[:r.n] {
		if tag.src == src && tag.port == port && tag.qid == qid && tag.op == op && tag.valHash == valHash {
			return tag, true
		}
	}
	return refTag{}, false
}

// failedCASScript is TestFailedCASDoesNotEvictAppliedTags as a fuzz
// script (two bytes a step, decoded by FuzzTagRingMatchesReference): one
// client's lock acquire and release are applied, writeTagDepth acquires
// with a wrong expected owner fail, then the acquire is re-delivered —
// and once more as a bare lookup.
var failedCASScript = []byte{
	0x01, 0x11, // applied: qid 1, hash 0, CAS
	0x11, 0x12, // applied: qid 2, hash 1, CAS
	0x12, 0x13, // CAS failure: qid 3, hash 1
	0x12, 0x14, // CAS failure: qid 4
	0x12, 0x15, // CAS failure: qid 5
	0x12, 0x16, // CAS failure: qid 6
	0x01, 0x11, // the acquire again: must replay as applied
	0x00, 0x11, // lookup only
}

// FuzzTagRingMatchesReference holds the per-class rings to the interleaved
// ring they replaced: the same adjudications, drawn from a small identity
// alphabet (2 sources × 2 ports × 8 query ids × 3 ops × 2 value hashes)
// over all three verdicts, must find the same tags — found or not,
// verdict, stamped version and stored value. Pushes follow the head's
// discipline: a query is recorded only when neither ring already holds
// it.
//
// Each step is two bytes. a&3 is the action (0: look up only; 1–3:
// adjudicate with verdict a&3-1), a>>2&1 the source, a>>3&1 the port,
// a>>4&1 the value hash; b&7 is the query id and b>>3%3 the op.
func FuzzTagRingMatchesReference(f *testing.F) {
	f.Add(failedCASScript)
	// Cycle the three verdicts through distinct queries until both classes
	// wrap, looking each query up again one and six queries later.
	query := func(i byte) (a, b byte) { return 1 + i%3 | i&4<<2, i * 5 }
	var wrap []byte
	for i := byte(0); i < 32; i++ {
		a, b := query(i)
		wrap = append(wrap, a, b)
		for _, back := range []byte{1, 6} {
			if i >= back {
				a, b := query(i - back)
				wrap = append(wrap, a&^3, b)
			}
		}
	}
	f.Add(wrap)

	srcs := [2]packet.Addr{packet.AddrFrom4(10, 1, 0, 1), packet.AddrFrom4(10, 1, 0, 2)}
	ops := [3]kv.Op{kv.OpWrite, kv.OpDelete, kv.OpCAS}
	f.Fuzz(func(t *testing.T, script []byte) {
		var kt keyTags
		var ref tagRing
		for step := 0; step+1 < len(script); step += 2 {
			a, b := script[step], script[step+1]
			src, port := srcs[a>>2&1], 5000+uint16(a>>3&1)
			valHash, qid, op := uint64(a>>4&1), uint64(b&7), ops[b>>3%3]

			want, wantOK := ref.lookup(src, port, qid, op, valHash)
			got, stored, gotOK := kt.find(tagIdentity(src, port, op), qid, valHash)
			if gotOK != wantOK {
				t.Fatalf("step %d: found %v, reference found %v", step/2, gotOK, wantOK)
			}
			if wantOK && (got.verdict() != want.verdict || got.ver != want.ver || !bytes.Equal(stored, want.storedVal)) {
				t.Fatalf("step %d: got verdict %d ver %v stored %x, reference verdict %d ver %v stored %x",
					step/2, got.verdict(), got.ver, stored, want.verdict, want.ver, want.storedVal)
			}
			if a&3 == 0 || wantOK {
				continue
			}
			verdict := tagVerdict(a&3 - 1)
			var ver kv.Version
			var val kv.Value
			switch verdict {
			case tagApplied:
				ver = kv.Version{Session: uint32(b >> 6), Seq: uint64(step)}
			case tagCASFail:
				val = kv.Value{byte(step), byte(step >> 8)}
			}
			ref.push(refTag{src: src, port: port, qid: qid, op: op, valHash: valHash,
				verdict: verdict, ver: ver, storedVal: val})
			kt.push(writeTag{id: tagIdentity(src, port, op) | uint64(verdict), qid: qid, valHash: valHash, ver: ver}, val)
		}
	})
}

// TestHeadWriteZeroAllocAfterFirst pins the promise keyTags makes: once a
// key has tags, the head adjudicates later writes to it — a fresh write
// stamped and recorded, a duplicate replayed from its tag — without
// allocating.
func TestHeadWriteZeroAllocAfterFirst(t *testing.T) {
	sw := testSwitch(t, s0)
	key := kv.KeyFromString("k")
	if err := sw.InstallKey(key); err != nil {
		t.Fatal(err)
	}
	f := &packet.Frame{}
	nc := &packet.NetChain{Op: kv.OpWrite, Key: key, QueryID: 1, Value: []byte("value")}
	write := func() {
		packet.NewQueryInto(f, client, s0, 5000, nc)
		if d, _ := sw.ProcessLocal(f); d != Forward || f.NC.Status != kv.StatusOK {
			t.Fatalf("write = %v (disp %v)", &f.NC, d)
		}
	}
	write() // the key's first tag: its one allocation

	const runs = 100
	fresh := testing.AllocsPerRun(runs, func() {
		nc.QueryID++
		write()
	})
	if got := sw.Stats().WritesHead; got != runs+2 {
		t.Fatalf("WritesHead = %d, want %d fresh stamps", got, runs+2)
	}
	if fresh != 0 {
		t.Fatalf("fresh head write allocates %.2f objects/op, want 0", fresh)
	}

	stamped := f.NC.Version()
	dup := testing.AllocsPerRun(runs, write) // same query id: a duplicate
	if got := sw.Stats().WritesReplayed; got != runs+1 {
		t.Fatalf("WritesReplayed = %d, want %d", got, runs+1)
	}
	if f.NC.Version() != stamped {
		t.Fatalf("replay carried %v, want the original stamp %v", f.NC.Version(), stamped)
	}
	if dup != 0 {
		t.Fatalf("replayed duplicate allocates %.2f objects/op, want 0", dup)
	}
}
