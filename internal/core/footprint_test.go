package core

import (
	"runtime"
	"testing"

	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/swsim"
)

// liveHeap is the heap still reachable once collections stop moving it —
// no wall clock, no RSS: what the process would keep however long it ran.
// Measure under oneP.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	for {
		prev := m.HeapAlloc
		runtime.GC()
		runtime.ReadMemStats(&m)
		if m.HeapAlloc == prev {
			return prev
		}
	}
}

// oneP runs the rest of the test on a single P. Every stop-the-world (each
// collection, each ReadMemStats) ends by waking an idle P, and when no idle
// thread is free to run it — the common case on a loaded host — the runtime
// starts a thread whose M stays on the heap for good, about 5 KB of it, that
// liveHeap would charge to the code under test. With one P none is idle.
func oneP(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestIdleSwitchFootprint: a switch configured with the paper's 64K slots
// per stage holds next to nothing until keys are installed — the register
// file is paged in by Alloc, so transit switches and spares cost a page
// directory, not 11 MB of zeroed slots each.
func TestIdleSwitchFootprint(t *testing.T) {
	const n = 16
	const perSwitch = 64 << 10
	oneP(t)
	before := liveHeap()
	sws := make([]*Switch, n)
	for i := range sws {
		sw, err := NewSwitch(packet.AddrFrom4(10, 0, 0, byte(i+1)), swsim.Tofino())
		if err != nil {
			t.Fatal(err)
		}
		sws[i] = sw
	}
	after := liveHeap()
	if got := int64(after) - int64(before); got > n*perSwitch {
		t.Fatalf("%d idle Tofino switches retain %d B of heap (%d B each), want ≤ %d B each", n, got, got/n, perSwitch)
	}
	sw := sws[0]
	idle := sw.ResidentBytes()
	if idle > perSwitch {
		t.Fatalf("idle switch reports %d resident register bytes, want ≤ %d", idle, perSwitch)
	}
	// The gauge moves with the keys, a page at a time: one key costs one
	// page, and the keys that share it cost nothing more.
	if err := sw.InstallKey(kv.KeyFromUint64(1)); err != nil {
		t.Fatal(err)
	}
	one := sw.ResidentBytes()
	if one <= idle || one-idle > perSwitch {
		t.Fatalf("first key moved resident bytes %d → %d, want one page (≤ %d B)", idle, one, perSwitch)
	}
	for k := uint64(2); k <= 100; k++ {
		if err := sw.InstallKey(kv.KeyFromUint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	if got := sw.ResidentBytes(); got != one {
		t.Fatalf("100 keys hold %d B, 1 key held %d: they share a page", got, one)
	}
	runtime.KeepAlive(sws)
}

// TestDedupFootprintPerKey: the head's duplicate-adjudication state for a
// written key — its tags and its entry in the shard's map — fits in 256 B,
// and the tags later writes add land in storage the key already holds.
func TestDedupFootprintPerKey(t *testing.T) {
	const n = 4096
	const maxPerKey = 256
	sw, err := NewSwitch(s0, swsim.Tofino())
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]kv.Key, n)
	for i := range keys {
		keys[i] = kv.KeyFromUint64(uint64(i))
		if err := sw.InstallKey(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	f := &packet.Frame{}
	nc := &packet.NetChain{Op: kv.OpWrite, Value: []byte("value")}
	oneP(t)
	writeAll := func() {
		for i, k := range keys {
			nc.Key, nc.Group = k, uint16(i%256)
			nc.QueryID++
			packet.NewQueryInto(f, client, s0, 5000, nc)
			if d, _ := sw.ProcessLocal(f); d != Forward || f.NC.Status != kv.StatusOK {
				t.Fatalf("write %d = %v (disp %v)", i, &f.NC, d)
			}
		}
	}

	before := liveHeap()
	writeAll()
	first := liveHeap()
	writeAll()
	second := liveHeap()
	perKey := float64(int64(first)-int64(before)) / n
	t.Logf("%.1f B of live heap per written key", perKey)
	if perKey > maxPerKey {
		t.Fatalf("one write to each of %d keys retains %.1f B per key, want ≤ %d", n, perKey, maxPerKey)
	}
	if second > first {
		t.Fatalf("a second round of fresh writes to the same keys added %d B, want 0", second-first)
	}
	runtime.KeepAlive(sw)
}
