package faultconn

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"netchain/internal/event"
	"netchain/internal/netsim"
	"netchain/internal/packet"
)

var (
	testFrom = packet.AddrFrom4(10, 0, 0, 1)
	testTo   = packet.AddrFrom4(10, 0, 0, 2)
)

func testEndpoint() *net.UDPAddr {
	return &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 40123}
}

// collectTrace pumps n frames through a fresh injector's egress for one
// directed link under flt and returns the decision stream.
func collectTrace(seed int64, flt netsim.LinkFault, n int) []netsim.FaultDecision {
	var trace []netsim.FaultDecision
	inj := New(seed, WithDecisionTrace(func(_, _ packet.Addr, dec netsim.FaultDecision) {
		trace = append(trace, dec)
	}))
	defer inj.Stop()
	ep := testEndpoint()
	inj.RegisterEndpoint(testTo, ep)
	_ = inj.Inject(netsim.LinkChaos{A: testFrom, B: testTo, F: flt}) // the wire takes any link
	pipe := inj.Pipe(testFrom)
	buf := make([]byte, 64)
	sink := func([]byte, *net.UDPAddr) {}
	for i := 0; i < n; i++ {
		pipe.Egress(buf, ep, sink)
	}
	return trace
}

// TestInjectorDeterminism: the decision stream for a direction is a pure
// function of (seed, frame order) — two injectors with the same seed
// agree decision for decision; a different seed diverges.
func TestInjectorDeterminism(t *testing.T) {
	flt := netsim.LinkFault{
		Drop: 0.2, Dup: 0.1, DupDelay: event.Time(50 * time.Microsecond),
		Jitter: event.Time(20 * time.Microsecond), Reorder: 0.15,
	}
	const n = 400
	a := collectTrace(7, flt, n)
	b := collectTrace(7, flt, n)
	if len(a) != n || len(b) != n {
		t.Fatalf("trace lengths = %d, %d, want %d", len(a), len(b), n)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged under one seed: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := collectTrace(8, flt, n)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical decision streams")
	}
}

// TestInjectorStatsDeterminism: the aggregate counters reproduce too.
func TestInjectorStatsDeterminism(t *testing.T) {
	run := func(seed int64) Stats {
		inj := New(seed)
		defer inj.Stop()
		ep := testEndpoint()
		inj.RegisterEndpoint(testTo, ep)
		flt := netsim.LinkFault{Drop: 0.3, Dup: 0.1, Reorder: 0.2}
		if err := inj.Inject(netsim.LinkChaos{A: testFrom, B: testTo, F: flt}); err != nil {
			t.Fatal(err)
		}
		pipe := inj.Pipe(testFrom)
		buf := make([]byte, 64)
		for i := 0; i < 500; i++ {
			pipe.Egress(buf, ep, func([]byte, *net.UDPAddr) {})
		}
		return inj.Stats()
	}
	a, b := run(11), run(11)
	if a != b {
		t.Fatalf("stats diverged under one seed: %+v vs %+v", a, b)
	}
	if a.ChaosDrops == 0 || a.DupCopies == 0 {
		t.Fatalf("fault stream inert: %+v", a)
	}
}

func testSchedule(p float64) netsim.Schedule {
	return netsim.Schedule{
		{Name: "mangle", At: 0, Fault: netsim.ClusterChaos{F: netsim.LinkFault{
			Dup: 0.02, Reorder: p, Jitter: event.Time(2 * time.Microsecond)}}},
		{Name: "cut", At: event.Time(5 * time.Millisecond), For: event.Time(3 * time.Millisecond),
			Fault: netsim.LinkChaos{A: testFrom, B: testTo, F: netsim.LinkFault{Drop: 1}}},
		{Name: "gray", At: event.Time(10 * time.Millisecond), For: event.Time(15 * time.Millisecond),
			Fault: netsim.GraySwitch{Addr: testTo, G: netsim.Gray{SlowFactor: 2e4, Loss: 0.03}}},
	}
}

// TestFingerprint: equal (seed, schedule) ⇒ equal digest; any change to
// the seed, a probability, or a step time changes it.
func TestFingerprint(t *testing.T) {
	base := Fingerprint(1, testSchedule(0.08))
	if base != Fingerprint(1, testSchedule(0.08)) {
		t.Fatal("fingerprint not stable for one (seed, schedule)")
	}
	if Fingerprint(2, testSchedule(0.08)) == base {
		t.Fatal("seed change did not move the fingerprint")
	}
	if Fingerprint(1, testSchedule(0.09)) == base {
		t.Fatal("probability change did not move the fingerprint")
	}
	shifted := testSchedule(0.08)
	shifted[1].At += event.Time(time.Millisecond)
	if Fingerprint(1, shifted) == base {
		t.Fatal("step-time change did not move the fingerprint")
	}
}

// TestOverlapParity runs one scripted sequence of injects and heals
// against a simulated ring and against the wire injector. At every step
// boundary both substrates' Faults must answer Link, Cut and Gray alike for
// every pair of nodes, and the probes must show the grammar's overlap
// rules: last inject wins, and a heal removes only what its own step
// installed.
func TestOverlapParity(t *testing.T) {
	fb, err := netsim.NewFabric(event.New(), netsim.PaperProfile(1000), 1, netsim.TopoSpec{Kind: "ring"}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	inj := New(1)
	defer inj.Stop()
	h0, h1, s0, s1 := fb.Hosts[0], fb.Hosts[1], fb.Switches[0], fb.Switches[1]

	slow := netsim.LinkFault{Jitter: 5000}
	lossy := netsim.LinkFault{Drop: 0.2}
	dup := netsim.LinkFault{Dup: 0.1}
	linkA := netsim.LinkChaos{A: h0, B: s0, Sym: true, F: slow}
	linkB := netsim.LinkChaos{A: h0, B: s0, F: lossy}
	mangle := netsim.ClusterChaos{F: dup}
	calm := netsim.ClusterChaos{} // inactive: clears the cluster-wide fault
	grayA := netsim.GraySwitch{Addr: s1, G: netsim.Gray{Loss: 0.1}}
	grayB := netsim.GraySwitch{Addr: s1, G: netsim.Gray{ExtraDelay: 1000}}
	cutA := &netsim.AsymPartition{From: []packet.Addr{h0}, To: []packet.Addr{h1}}
	cutB := &netsim.AsymPartition{From: []packet.Addr{h0}, To: []packet.Addr{h1}}

	// view is what the probes see: Link(h0,s0), Link(s0,h0), Link(h1,s1),
	// Cut(h0,h1) and Gray(s1).
	type view struct {
		fwd, rev, other netsim.LinkFault
		cut             bool
		gray            netsim.Gray
	}
	look := func(fs *netsim.Faults) view {
		var v view
		v.fwd, _ = fs.Link(h0, s0)
		v.rev, _ = fs.Link(s0, h0)
		v.other, _ = fs.Link(h1, s1)
		v.cut = fs.Cut(h0, h1)
		v.gray, _ = fs.Gray(s1)
		return v
	}
	script := []struct {
		inject bool
		f      netsim.Fault
		want   view
	}{
		{true, linkA, view{fwd: slow, rev: slow}},
		{true, linkB, view{fwd: lossy, rev: slow}},
		{false, linkA, view{fwd: lossy}},
		{false, linkB, view{}},
		{true, mangle, view{fwd: dup, rev: dup, other: dup}},
		{true, calm, view{}},
		{false, mangle, view{}},
		{false, calm, view{}},
		{true, grayA, view{gray: grayA.G}},
		{true, grayB, view{gray: grayB.G}},
		{false, grayA, view{gray: grayB.G}},
		{false, grayB, view{}},
		{true, cutA, view{cut: true}},
		{true, cutB, view{cut: true}},
		{false, cutA, view{cut: true}},
		{false, cutB, view{}},
		{true, cutA, view{cut: true}},
		{true, cutB, view{cut: true}},
		{false, cutB, view{cut: true}},
		{false, cutA, view{}},
	}
	nodes := append(append([]packet.Addr(nil), fb.Hosts...), fb.Switches...)
	for k, st := range script {
		simApply, wireApply := netsim.Fault.Heal, inj.Heal
		if st.inject {
			simApply, wireApply = netsim.Fault.Inject, inj.Inject
		}
		if err := simApply(st.f, fb.Net); err != nil {
			t.Fatalf("step %d (%s) on the sim: %v", k, st.f, err)
		}
		if err := wireApply(st.f); err != nil {
			t.Fatalf("step %d (%s) on the wire: %v", k, st.f, err)
		}
		sim, wire := fb.Net.Faults(), &inj.faults
		for _, a := range nodes {
			for _, b := range nodes {
				sf, sok := sim.Link(a, b)
				wf, wok := wire.Link(a, b)
				if sf != wf || sok != wok || sim.Cut(a, b) != wire.Cut(a, b) {
					t.Fatalf("step %d (%s): %v→%v sim link %+v/%v cut %v, wire link %+v/%v cut %v",
						k, st.f, a, b, sf, sok, sim.Cut(a, b), wf, wok, wire.Cut(a, b))
				}
			}
			sg, sok := sim.Gray(a)
			wg, wok := wire.Gray(a)
			if sg != wg || sok != wok {
				t.Fatalf("step %d (%s): gray %v sim %+v/%v, wire %+v/%v", k, st.f, a, sg, sok, wg, wok)
			}
		}
		if got := look(sim); got != st.want {
			t.Fatalf("step %d (inject=%v %s): probes %+v, want %+v", k, st.inject, st.f, got, st.want)
		}
	}
}

// FuzzScheduleWire pins sim/wire parity at the decision core: for any
// (seed, link-fault parameters), the decisions the wire egress path emits
// frame by frame must equal the reference stream produced by feeding a
// fresh per-direction rng straight through netsim.LinkFault.Decide — the
// exact function the simulator's transmit path uses. Divergence means the
// wire applier reordered draws or consumed extra entropy, i.e. the same
// seeded schedule would no longer describe the same chaos on both
// substrates. Burst windows are excluded: they are clock-driven (no rng)
// and pinned by Fingerprint instead.
func FuzzScheduleWire(f *testing.F) {
	f.Add(int64(1), byte(20), byte(10), byte(15), byte(5), byte(100))
	f.Add(int64(42), byte(0), byte(0), byte(0), byte(0), byte(1))
	f.Add(int64(-7), byte(99), byte(99), byte(99), byte(99), byte(255))
	f.Fuzz(func(t *testing.T, seed int64, drop, dup, reorder, jitter, nFrames byte) {
		flt := netsim.LinkFault{
			Drop:     float64(drop%100) / 100,
			Dup:      float64(dup%100) / 100,
			DupDelay: event.Time(uint64(dup) * 100),
			Reorder:  float64(reorder%100) / 100,
			Jitter:   event.Time(uint64(jitter) * 50),
		}
		n := int(nFrames)%200 + 1
		trace := collectTrace(seed, flt, n)
		if !flt.Active() {
			if len(trace) != 0 {
				t.Fatalf("inactive fault produced %d decisions", len(trace))
			}
			return
		}
		if len(trace) != n {
			t.Fatalf("wire emitted %d decisions for %d frames", len(trace), n)
		}
		rng := rand.New(rand.NewSource(dirSeed(seed, testFrom, testTo)))
		lat := event.Time(10 * time.Microsecond) // the injector's default base latency
		for i := 0; i < n; i++ {
			ref := flt.Decide(rng, 0, lat)
			if trace[i] != ref {
				t.Fatalf("frame %d: wire %+v != sim %+v (seed=%d flt=%+v)",
					i, trace[i], ref, seed, flt)
			}
		}
	})
}
