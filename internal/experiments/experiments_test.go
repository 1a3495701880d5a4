package experiments

import (
	"strings"
	"testing"
	"time"

	"netchain/internal/netsim"
)

// fastOpts shrinks windows and store for test speed while preserving the
// capacity ratios that drive every shape.
func fastOpts() ThroughputOpts {
	return ThroughputOpts{
		StoreSize: 1500,
		Window:    20 * time.Millisecond,
		ZKWindow:  150 * time.Millisecond,
	}
}

func TestNetChainThroughputScalesWithClients(t *testing.T) {
	o := fastOpts()
	o.WriteRatio = 0.01
	q1, max1, err := netchainThroughput(o, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	q4, _, err := netchainThroughput(o, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: NetChain(k) ≈ k × 20.5 MQPS; 4 servers ≈ 82 MQPS.
	if q1 < 15e6 || q1 > 25e6 {
		t.Fatalf("NetChain(1) = %.1f MQPS, want ~20.5", q1/1e6)
	}
	if q4 < 65e6 || q4 > 95e6 {
		t.Fatalf("NetChain(4) = %.1f MQPS, want ~82", q4/1e6)
	}
	// NetChain(max) ≈ 2 BQPS for the 3-switch chain (§8.1).
	if max1 < 1.2e9 || max1 > 4e9 {
		t.Fatalf("NetChain(max) = %.2f BQPS, want ~2", max1/1e9)
	}
}

// TestThroughputRowOnFabric runs the scenario behind NetChain(k) on a
// fattree:4 fabric, changing only its FabricOpts: the client-bound §8.1
// shape, NetChain(4) ≈ 4 × NetChain(1), holds there as on the ring.
func TestThroughputRowOnFabric(t *testing.T) {
	qps := func(servers int) float64 {
		sc := throughputScenario(fastOpts(), servers, 0)
		sc.fabric.Spec = netsim.TopoSpec{Kind: "fattree", K: 4}
		q, _, err := chainThroughput(sc)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	q1, q4 := qps(1), qps(4)
	t.Logf("fattree:4 NetChain(1) %.1f MQPS, NetChain(4) %.1f MQPS", q1/1e6, q4/1e6)
	if q1 < 15e6 || q1 > 25e6 {
		t.Fatalf("NetChain(1) on fattree:4 = %.1f MQPS, want ~20.5", q1/1e6)
	}
	if ratio := q4 / q1; ratio < 3.6 || ratio > 4.4 {
		t.Fatalf("NetChain(4)/NetChain(1) on fattree:4 = %.2f (%.1f / %.1f MQPS), want ~4",
			ratio, q4/1e6, q1/1e6)
	}
}

func TestFig9cShape(t *testing.T) {
	o := fastOpts()
	// NetChain flat across write ratio.
	o.WriteRatio = 0
	ro, _, err := netchainThroughput(o, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	o.WriteRatio = 1
	wo, _, err := netchainThroughput(o, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := wo / ro; ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("NetChain write/read throughput ratio = %.2f, want ~1 (flat)", ratio)
	}
	// Baseline collapses with writes.
	zr, _, _, err := zkRun(100, 0, o.ZKWindow, 0)
	if err != nil {
		t.Fatal(err)
	}
	zw, _, _, err := zkRun(100, 1, o.ZKWindow, 0)
	if err != nil {
		t.Fatal(err)
	}
	if zw*3 > zr {
		t.Fatalf("baseline should collapse with writes: read-only=%.0f write-only=%.0f", zr, zw)
	}
	// Orders-of-magnitude gap.
	if wo < 100*zr {
		t.Fatalf("NetChain (%.0f) should beat baseline (%.0f) by >100x", wo, zr)
	}
}

func TestFig9dShape(t *testing.T) {
	o := fastOpts()
	o.WriteRatio = 0.01
	clean, _, err := netchainThroughput(o, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	lossy, _, err := netchainThroughput(o, 4, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 82 → 48 MQPS at 10% loss (~0.58×); UDP degrades gracefully.
	if frac := lossy / clean; frac < 0.40 || frac > 0.75 {
		t.Fatalf("NetChain @10%% loss = %.2f of clean, want ~0.55", frac)
	}
	// Baseline falls off a cliff at 1% loss.
	zclean, _, _, err := zkRun(100, 0.01, o.ZKWindow, 0)
	if err != nil {
		t.Fatal(err)
	}
	zlossy, _, _, err := zkRun(100, 0.01, o.ZKWindow, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if zlossy*2 > zclean {
		t.Fatalf("baseline @1%% loss = %.0f vs clean %.0f: no collapse", zlossy, zclean)
	}
}

func TestFig9eLatencyAnchors(t *testing.T) {
	o := fastOpts()
	fig, err := Fig9e(o)
	if err != nil {
		t.Fatal(err)
	}
	// NetChain points: ~9.7 µs, flat across load.
	var ncLats []float64
	for _, p := range fig.Points {
		if p.Series == "NetChain (read/write)" {
			ncLats = append(ncLats, p.Y)
		}
	}
	if len(ncLats) == 0 {
		t.Fatal("no NetChain points")
	}
	for _, l := range ncLats {
		if l < 7 || l > 14 {
			t.Fatalf("NetChain latency = %.1f µs, want ~9.7", l)
		}
	}
	// Baseline anchors at low load.
	zkRead, ok := firstPoint(fig, "ZooKeeper (read)")
	if !ok || zkRead < 120 || zkRead > 260 {
		t.Fatalf("ZK read latency = %.0f µs, want ~170", zkRead)
	}
	zkWrite, ok := firstPoint(fig, "ZooKeeper (write)")
	if !ok || zkWrite < 1800 || zkWrite > 3000 {
		t.Fatalf("ZK write latency = %.0f µs, want ~2350", zkWrite)
	}
}

func firstPoint(f *Figure, series string) (float64, bool) {
	for _, p := range f.Points {
		if p.Series == series {
			return p.Y, true
		}
	}
	return 0, false
}

func TestFig9fLinearScalability(t *testing.T) {
	fig, err := Fig9f(Fig9fOpts{Leaves: []int{4, 16, 64}, Samples: 1500})
	if err != nil {
		t.Fatal(err)
	}
	r6, _ := fig.Get("NetChain (read)", 6)
	r24, _ := fig.Get("NetChain (read)", 24)
	r96, _ := fig.Get("NetChain (read)", 96)
	w96, _ := fig.Get("NetChain (write)", 96)
	if r6 <= 0 || r96 <= 0 {
		t.Fatalf("missing points: %v", fig.Points)
	}
	// Linear growth: 16x switches → ~16x throughput (±25%).
	if ratio := r96 / r6 / 16; ratio < 0.75 || ratio > 1.25 {
		t.Fatalf("scaling 6→96 = %.1fx of linear", ratio)
	}
	if ratio := r24 / r6 / 4; ratio < 0.75 || ratio > 1.25 {
		t.Fatalf("scaling 6→24 = %.1fx of linear", ratio)
	}
	// Writes traverse more switches: strictly lower.
	if w96 >= r96 {
		t.Fatalf("write throughput (%.2g) must be below read (%.2g)", w96, r96)
	}
	// Order of magnitude sanity: tens of BQPS at 96 switches (paper shows
	// up to ~80 BQPS read).
	if r96 < 10e9 || r96 > 200e9 {
		t.Fatalf("read @96 switches = %.1f BQPS, want tens of BQPS", r96/1e9)
	}
}

func TestFig9fAnalyticMatchesSimulation(t *testing.T) {
	analytic, measured, err := Fig9fValidate()
	if err != nil {
		t.Fatal(err)
	}
	if analytic <= 0 || measured <= 0 {
		t.Fatalf("degenerate traversals: %v %v", analytic, measured)
	}
	if ratio := measured / analytic; ratio < 0.75 || ratio > 1.25 {
		t.Fatalf("hop model mismatch: analytic=%.2f measured=%.2f", analytic, measured)
	}
}

func fastFig10(vgroups int) Fig10Opts {
	return Fig10Opts{
		VGroups:   vgroups,
		Scale:     20000,
		StoreSize: 400,
		Duration:  15 * time.Second,
		FailAt:    3 * time.Second,
		DetectLag: 500 * time.Millisecond,
		RecoverAt: 6 * time.Second,
		Bucket:    500 * time.Millisecond,
	}
}

func TestFig10SingleGroupRecoveryBlocksWrites(t *testing.T) {
	res, err := Fig10(fastFig10(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.FailoverDone == 0 || res.RecoveryDone == 0 {
		t.Fatalf("milestones missing: %+v", res)
	}
	// The ring carries 3 single-vnode groups (every chain spans all three
	// switches); only one holds the workload's keys — the other two are
	// empty and recover instantly.
	if res.GroupsRecovered != 3 {
		t.Fatalf("groups recovered = %d, want 3", res.GroupsRecovered)
	}
	// 50% writes all blocked during the sync → rate dips to ~half.
	frac := res.MinRateDuringRecovery / res.BaselineRate
	if frac > 0.70 || frac < 0.30 {
		t.Fatalf("recovery dip = %.2f of baseline, want ~0.5", frac)
	}
	// Throughput restored at the end.
	rates := res.Series.Rates()
	last := rates[len(rates)-2]
	if last < 0.85*res.BaselineRate/20000 {
		t.Fatalf("throughput not restored: %.0f vs baseline %.0f", last, res.BaselineRate/20000)
	}
}

func TestFig10ManyGroupsRecoveryBarelyDips(t *testing.T) {
	res, err := Fig10(fastFig10(30))
	if err != nil {
		t.Fatal(err)
	}
	if res.GroupsRecovered < 20 {
		t.Fatalf("groups recovered = %d, want ~30", res.GroupsRecovered)
	}
	frac := res.MinRateDuringRecovery / res.BaselineRate
	// Paper: 0.5% drop with 100 groups; with 30 groups expect a few
	// percent at worst, far above the single-group half-rate dip.
	if frac < 0.85 {
		t.Fatalf("recovery dip = %.2f of baseline, want > 0.85", frac)
	}
}

func TestFig10PreSyncShrinksDowntime(t *testing.T) {
	off, err := Fig10(fastFig10(1))
	if err != nil {
		t.Fatal(err)
	}
	opts := fastFig10(1)
	opts.PreSync = true
	on, err := Fig10(opts)
	if err != nil {
		t.Fatal(err)
	}
	fracOff := off.MinRateDuringRecovery / off.BaselineRate
	fracOn := on.MinRateDuringRecovery / on.BaselineRate
	if fracOn < fracOff+0.2 {
		t.Fatalf("pre-sync should shrink the dip: off=%.2f on=%.2f", fracOff, fracOn)
	}
}

func TestFig11Shape(t *testing.T) {
	fig, err := Fig11(Fig11Opts{
		ContentionIndexes: []float64{0.01, 1},
		Clients:           []int{1, 8},
		ColdKeys:          300,
		NetChainWindow:    8 * time.Millisecond,
		ZKWindow:          400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	nc1, _ := fig.Get("NetChain (1 clients)", 0.01)
	nc8lo, _ := fig.Get("NetChain (8 clients)", 0.01)
	nc8hi, _ := fig.Get("NetChain (8 clients)", 1)
	zk8, _ := fig.Get("ZooKeeper (8 clients)", 0.01)
	if nc1 <= 0 || nc8lo <= 0 || zk8 <= 0 {
		t.Fatalf("missing figure points: %+v", fig.Points)
	}
	// More clients → more throughput at low contention.
	if nc8lo < 3*nc1 {
		t.Fatalf("8 clients (%.0f) should beat 1 client (%.0f) at low contention", nc8lo, nc1)
	}
	// Contention kills parallelism.
	if nc8hi >= nc8lo/2 {
		t.Fatalf("contention=1 (%.0f) should collapse vs 0.01 (%.0f)", nc8hi, nc8lo)
	}
	// Orders-of-magnitude gap vs baseline.
	if nc8lo < 20*zk8 {
		t.Fatalf("NetChain (%.0f) should dwarf baseline (%.0f)", nc8lo, zk8)
	}
}

// TestChainMessagesPerWrite: one write on the ring costs n+1 = 4 protocol
// messages; the underlay's two transits are not among them.
func TestChainMessagesPerWrite(t *testing.T) {
	c, err := chainWrite()
	if err != nil {
		t.Fatal(err)
	}
	if c.processed != 3 || c.replies != 1 || c.transits != 2 {
		t.Fatalf("processed %d, replies %d, transits %d; want 3, 1, 2", c.processed, c.replies, c.transits)
	}
	if msgs, err := ChainMessagesPerWrite(); err != nil || msgs != 4 {
		t.Fatalf("ChainMessagesPerWrite = %v, %v; want 4", msgs, err)
	}
}

func TestTable1(t *testing.T) {
	tab, err := MeasureTable1(50 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if tab.SoftwarePPS <= 0 || tab.SoftwareDelayNS <= 0 {
		t.Fatalf("software measurement empty: %+v", tab)
	}
	// The whole premise: hardware switch >> software. Our Go dataplane
	// should land in the commodity-server ballpark, far below 4 BQPS.
	if tab.SoftwarePPS >= tab.SwitchPPS {
		t.Fatal("software dataplane cannot beat the ASIC budget")
	}
	out := tab.Format()
	for _, want := range []string{"Packets per second", "Tofino", "This repo"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}

func TestFigureFormatting(t *testing.T) {
	f := &Figure{ID: "x", Title: "t", XLabel: "x", YLabel: "y", PaperNote: "note"}
	f.Add("a", 1, 2.5e6)
	f.Add("b", 1, 3e9)
	f.Add("a", 2, 900)
	out := f.Format()
	for _, want := range []string{"2.50M", "3.00B", "900.00", "note", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
	if len(f.Series()) != 2 {
		t.Fatal("series detection wrong")
	}
}
