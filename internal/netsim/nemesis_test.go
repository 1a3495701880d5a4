package netsim_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"netchain/internal/event"
	"netchain/internal/netsim"
	"netchain/internal/packet"
)

// rawFrame builds a plain (non-NetChain) UDP frame; switches transit it,
// the destination host delivers it. The source port doubles as a frame ID.
func rawFrame(src, dst packet.Addr, id uint16) *packet.Frame {
	f := &packet.Frame{}
	f.SetAddrs(src, dst, id, 9999)
	return f
}

func us(n int) event.Time { return event.Duration(time.Duration(n) * time.Microsecond) }

// chaosRun replays a fixed traffic pattern through a schedule exercising
// every nemesis knob and returns the delivery transcript plus counters.
func chaosRun(t *testing.T, seed int64) (string, netsim.Stats) {
	t.Helper()
	sim := event.New()
	tb, err := netsim.NewFabric(sim, netsim.PaperProfile(1000), seed, netsim.TopoSpec{Kind: "ring"}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	record := func(f *packet.Frame) {
		fmt.Fprintf(&log, "%d@%d ", f.UDP.SrcPort, sim.Now())
	}
	for _, h := range []packet.Addr{tb.Hosts[2], tb.Hosts[3]} {
		if err := tb.Net.HostRecv(h, record); err != nil {
			t.Fatal(err)
		}
	}
	sch := netsim.Schedule{
		{Name: "cluster", At: 0, Fault: netsim.ClusterChaos{F: netsim.LinkFault{
			Drop: 0.05, Dup: 0.08, Jitter: us(2), Reorder: 0.15}}},
		{Name: "gray-s1", At: us(20), For: us(100), Fault: netsim.GraySwitch{
			Addr: tb.Switches[1], G: netsim.Gray{SlowFactor: 4, Loss: 0.1, ExtraDelay: us(5)}}},
		{Name: "part", At: us(50), For: us(80), Fault: &netsim.AsymPartition{
			From: []packet.Addr{tb.Hosts[1]}, To: []packet.Addr{tb.Hosts[3]}}},
	}
	nm := netsim.RunSchedule(tb.Net, sch)
	for i := 0; i < 400; i++ {
		src, dst := tb.Hosts[0], tb.Hosts[2]
		if i%3 == 0 {
			src, dst = tb.Hosts[1], tb.Hosts[3]
		}
		id := uint16(1000 + i)
		sim.At(event.Time(i)*500, func() { tb.Net.Inject(src, rawFrame(src, dst, id)) })
	}
	sim.Run()
	if err := nm.Err(); err != nil {
		t.Fatal(err)
	}
	return log.String(), tb.Net.Stats()
}

// TestNemesisDeterminism mirrors internal/workload/determinism_test.go for
// the fault knobs: the bench and chaos suites compare results across PRs
// and across CI reruns, which is only meaningful if the same seed replays
// the exact same adversity — byte-identical counters and delivery order.
func TestNemesisDeterminism(t *testing.T) {
	logA, statsA := chaosRun(t, 7)
	logB, statsB := chaosRun(t, 7)
	if logA != logB {
		t.Fatalf("same seed produced different delivery order:\nA: %.200s\nB: %.200s", logA, logB)
	}
	if statsA != statsB {
		t.Fatalf("same seed produced different counters:\nA: %+v\nB: %+v", statsA, statsB)
	}
	// Every knob must actually have fired, or the pin is vacuous.
	if statsA.ChaosDrops == 0 || statsA.DupCopies == 0 || statsA.Reordered == 0 ||
		statsA.PartitionDrops == 0 || statsA.GrayDrops == 0 {
		t.Fatalf("schedule did not exercise every knob: %+v", statsA)
	}
	logC, statsC := chaosRun(t, 8)
	if logA == logC && statsA == statsC {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestAsymPartitionOneDirection checks that a partition cuts exactly the
// src→dst direction: H0→H2 frames die, H2→H0 frames arrive.
func TestAsymPartitionOneDirection(t *testing.T) {
	sim := event.New()
	tb, err := netsim.NewFabric(sim, netsim.PaperProfile(1000), 1, netsim.TopoSpec{Kind: "ring"}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := map[packet.Addr]int{}
	for _, h := range []packet.Addr{tb.Hosts[0], tb.Hosts[2]} {
		h := h
		if err := tb.Net.HostRecv(h, func(*packet.Frame) { got[h]++ }); err != nil {
			t.Fatal(err)
		}
	}
	p := &netsim.AsymPartition{From: []packet.Addr{tb.Hosts[0]}, To: []packet.Addr{tb.Hosts[2]}}
	if err := p.Inject(tb.Net); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tb.Net.Inject(tb.Hosts[0], rawFrame(tb.Hosts[0], tb.Hosts[2], uint16(100+i)))
		tb.Net.Inject(tb.Hosts[2], rawFrame(tb.Hosts[2], tb.Hosts[0], uint16(200+i)))
	}
	sim.Run()
	if got[tb.Hosts[2]] != 0 {
		t.Fatalf("H0→H2 should be cut, H2 received %d", got[tb.Hosts[2]])
	}
	if got[tb.Hosts[0]] != 10 {
		t.Fatalf("H2→H0 should be clear, H0 received %d of 10", got[tb.Hosts[0]])
	}
	if s := tb.Net.Stats(); s.PartitionDrops != 10 {
		t.Fatalf("PartitionDrops = %d, want 10", s.PartitionDrops)
	}
	// Healing restores the cut direction.
	if err := p.Heal(tb.Net); err != nil {
		t.Fatal(err)
	}
	tb.Net.Inject(tb.Hosts[0], rawFrame(tb.Hosts[0], tb.Hosts[2], 300))
	sim.Run()
	if got[tb.Hosts[2]] != 1 {
		t.Fatalf("after heal H2 received %d, want 1", got[tb.Hosts[2]])
	}
}

// TestDuplicationDelivers checks Dup=1 delivers every frame twice, as
// deep copies.
func TestDuplicationDelivers(t *testing.T) {
	sim := event.New()
	tb, err := netsim.NewFabric(sim, netsim.PaperProfile(1000), 1, netsim.TopoSpec{Kind: "ring"}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var frames []*packet.Frame
	if err := tb.Net.HostRecv(tb.Hosts[2], func(f *packet.Frame) {
		frames = append(frames, f)
	}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Net.SetLinkFault(tb.Hosts[0], tb.Switches[0], netsim.LinkFault{Dup: 1}); err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		tb.Net.Inject(tb.Hosts[0], rawFrame(tb.Hosts[0], tb.Hosts[2], uint16(100+i)))
	}
	sim.Run()
	if len(frames) != 2*n {
		t.Fatalf("delivered %d frames, want %d", len(frames), 2*n)
	}
	if s := tb.Net.Stats(); s.DupCopies != n {
		t.Fatalf("DupCopies = %d, want %d", s.DupCopies, n)
	}
	// The duplicate must be a distinct Frame value (the dataplane rewrites
	// frames in place; an aliased copy would corrupt both).
	seen := map[*packet.Frame]bool{}
	for _, f := range frames {
		if seen[f] {
			t.Fatal("duplicate delivered the same *Frame pointer twice")
		}
		seen[f] = true
	}
}

// TestReorderHoldback checks a held-back frame is overtaken by a later
// healthy one.
func TestReorderHoldback(t *testing.T) {
	sim := event.New()
	tb, err := netsim.NewFabric(sim, netsim.PaperProfile(1000), 1, netsim.TopoSpec{Kind: "ring"}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var order []uint16
	if err := tb.Net.HostRecv(tb.Hosts[2], func(f *packet.Frame) {
		order = append(order, f.UDP.SrcPort)
	}); err != nil {
		t.Fatal(err)
	}
	hold := netsim.LinkChaos{A: tb.Hosts[0], B: tb.Switches[0],
		F: netsim.LinkFault{Reorder: 1, ReorderDelay: us(50)}}
	if err := hold.Inject(tb.Net); err != nil {
		t.Fatal(err)
	}
	tb.Net.Inject(tb.Hosts[0], rawFrame(tb.Hosts[0], tb.Hosts[2], 1))
	sim.At(us(1), func() {
		if err := hold.Heal(tb.Net); err != nil {
			t.Error(err)
		}
		tb.Net.Inject(tb.Hosts[0], rawFrame(tb.Hosts[0], tb.Hosts[2], 2))
	})
	sim.Run()
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("delivery order %v, want [2 1]", order)
	}
	if s := tb.Net.Stats(); s.Reordered != 1 {
		t.Fatalf("Reordered = %d, want 1", s.Reordered)
	}
}

// TestGrayDegradation checks a gray switch stays alive and routed-through
// but adds latency, and that gray loss is counted separately.
func TestGrayDegradation(t *testing.T) {
	sim := event.New()
	tb, err := netsim.NewFabric(sim, netsim.PaperProfile(1000), 1, netsim.TopoSpec{Kind: "ring"}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var deliveredAt []event.Time
	if err := tb.Net.HostRecv(tb.Hosts[2], func(*packet.Frame) {
		deliveredAt = append(deliveredAt, sim.Now())
	}); err != nil {
		t.Fatal(err)
	}
	// Healthy baseline: H0 → S0 → S1 → S2 → H2.
	start := sim.Now()
	tb.Net.Inject(tb.Hosts[0], rawFrame(tb.Hosts[0], tb.Hosts[2], 1))
	sim.Run()
	if len(deliveredAt) != 1 {
		t.Fatalf("baseline frame not delivered")
	}
	healthy := deliveredAt[0] - start

	if err := tb.Net.SetGray(tb.Switches[1], netsim.Gray{ExtraDelay: us(50)}); err != nil {
		t.Fatal(err)
	}
	if tb.Net.Failed(tb.Switches[1]) {
		t.Fatal("gray switch must not be failed")
	}
	if _, ok := tb.Net.Faults().Gray(tb.Switches[1]); !ok {
		t.Fatal("gray degradation not reported")
	}
	start = sim.Now()
	tb.Net.Inject(tb.Hosts[0], rawFrame(tb.Hosts[0], tb.Hosts[2], 2))
	sim.Run()
	if len(deliveredAt) != 2 {
		t.Fatal("frame through gray switch must still be delivered")
	}
	grayLat := deliveredAt[1] - start
	if grayLat < healthy+us(50) {
		t.Fatalf("gray latency %v, want >= healthy %v + 50µs", grayLat, healthy)
	}

	// Gray loss drops frames without marking the switch failed.
	lossy := netsim.GraySwitch{Addr: tb.Switches[1], G: netsim.Gray{Loss: 1}}
	if err := lossy.Inject(tb.Net); err != nil {
		t.Fatal(err)
	}
	tb.Net.Inject(tb.Hosts[0], rawFrame(tb.Hosts[0], tb.Hosts[2], 3))
	sim.Run()
	if len(deliveredAt) != 2 {
		t.Fatal("fully lossy gray switch should have dropped the frame")
	}
	if s := tb.Net.Stats(); s.GrayDrops != 1 {
		t.Fatalf("GrayDrops = %d, want 1", s.GrayDrops)
	}
	if err := lossy.Heal(tb.Net); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.Net.Faults().Gray(tb.Switches[1]); ok {
		t.Fatal("GraySwitch.Heal did not heal")
	}
}

// TestScheduleDrivesTwoNetworks runs one Schedule value against two
// networks with interleaved clocks: a partition step's installed instance
// lives in each target's Faults, not on the step, so healing it on one
// network neither heals nor strands the other.
func TestScheduleDrivesTwoNetworks(t *testing.T) {
	var h0, h2 packet.Addr
	boot := func() (*event.Sim, *netsim.Network) {
		sim := event.New()
		fb, err := netsim.NewFabric(sim, netsim.PaperProfile(1000), 1, netsim.TopoSpec{Kind: "ring"}, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		h0, h2 = fb.Hosts[0], fb.Hosts[2]
		return sim, fb.Net
	}
	simA, netA := boot()
	simB, netB := boot()
	sch := netsim.Schedule{{Name: "part", At: us(10), For: us(20), Fault: &netsim.AsymPartition{
		From: []packet.Addr{h0}, To: []packet.Addr{h2}}}}
	nmA, nmB := netsim.RunSchedule(netA, sch), netsim.RunSchedule(netB, sch)
	cut := func() [2]bool { return [2]bool{netA.Faults().Cut(h0, h2), netB.Faults().Cut(h0, h2)} }

	simA.RunUntil(us(15)) // A injected
	simB.RunUntil(us(15)) // B injected over the same step
	if got := cut(); got != [2]bool{true, true} {
		t.Fatalf("after both injects cut = %v, want both", got)
	}
	simA.RunUntil(us(40)) // A healed
	if got := cut(); got != [2]bool{false, true} {
		t.Fatalf("after A's heal cut = %v, want B only", got)
	}
	simB.RunUntil(us(40)) // B healed
	if got := cut(); got != [2]bool{false, false} {
		t.Fatalf("after both heals cut = %v, want neither", got)
	}
	for _, nm := range []*netsim.Nemesis{nmA, nmB} {
		if err := nm.Err(); err != nil {
			t.Fatal(err)
		}
	}
}
