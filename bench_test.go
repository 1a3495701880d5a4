// Benchmarks regenerating the paper's evaluation: one bench per table and
// figure (§8), reporting the headline quantities as custom metrics, plus
// ablation benches for the design choices called out in DESIGN.md.
// Absolute values come from the scaled simulation substrate — the shapes
// (who wins, by what factor, where crossovers fall) are what reproduce the
// paper; EXPERIMENTS.md records the side-by-side comparison.
package netchain

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netchain/internal/core"
	"netchain/internal/experiments"
	"netchain/internal/kv"
	"netchain/internal/mc"
	"netchain/internal/packet"
	"netchain/internal/swsim"
	"netchain/internal/zkkv"
)

func quickOpts() experiments.ThroughputOpts {
	return experiments.ThroughputOpts{
		StoreSize: 2000,
		Window:    25 * time.Millisecond,
		ZKWindow:  200 * time.Millisecond,
	}
}

// benchReadSwitch builds a one-key switch warmed with a 64 B value.
func benchReadSwitch(b *testing.B) (*core.Switch, kv.Key) {
	b.Helper()
	sw, err := core.NewSwitch(packet.AddrFrom4(10, 0, 0, 1), swsim.Tofino())
	if err != nil {
		b.Fatal(err)
	}
	key := kv.KeyFromString("bench")
	sw.InstallKey(key)
	seed := &packet.NetChain{Op: kv.OpWrite, Key: key, Value: make([]byte, 64), QueryID: 1}
	wf := packet.NewQuery(packet.AddrFrom4(10, 1, 0, 1), sw.Addr(), 4000, seed)
	sw.ProcessLocal(wf)
	return sw, key
}

// BenchmarkTable1SoftwareDataplane measures this repo's dataplane ns/op —
// the "This repo (software)" column of Table 1 (the paper compares 30 Mpps
// NetBricks servers against 4 Bpps Tofino ASICs). The frame is reused the
// way the transport's pooled frames are, so the number is the dataplane's
// own cost: the seqlock read path runs lock- and allocation-free.
func BenchmarkTable1SoftwareDataplane(b *testing.B) {
	sw, key := benchReadSwitch(b)
	f := &packet.Frame{}
	nc := &packet.NetChain{Op: kv.OpRead, Key: key, QueryID: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packet.NewQueryInto(f, packet.AddrFrom4(10, 1, 0, 1), sw.Addr(), 4000, nc)
		sw.ProcessLocal(f)
	}
	b.StopTimer()
	pps := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(pps/1e6, "Mpps/core")
}

// BenchmarkReadDataplaneParallel drives the same hot read from every
// core at once: with the seqlock fast path there is no shared lock to
// convoy on, so Mpps should scale with GOMAXPROCS (on a single-core
// machine it matches the serial number).
func BenchmarkReadDataplaneParallel(b *testing.B) {
	sw, key := benchReadSwitch(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		f := &packet.Frame{}
		nc := &packet.NetChain{Op: kv.OpRead, Key: key, QueryID: 3}
		for pb.Next() {
			packet.NewQueryInto(f, packet.AddrFrom4(10, 1, 0, 2), sw.Addr(), 4001, nc)
			sw.ProcessLocal(f)
		}
	})
	b.StopTimer()
	pps := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(pps/1e6, "Mpps")
}

func reportSeries(b *testing.B, f *experiments.Figure, series string, x float64, unit string, div float64) {
	if y, ok := f.Get(series, x); ok {
		b.ReportMetric(y/div, unit)
	}
}

// BenchmarkFig9a: throughput vs value size.
func BenchmarkFig9a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig9a(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, f, "NetChain(4)", 64, "NetChain4_MQPS", 1e6)
		reportSeries(b, f, "NetChain(max)", 64, "NetChainMax_BQPS", 1e9)
		reportSeries(b, f, "ZooKeeper", 64, "ZooKeeper_KQPS", 1e3)
	}
}

// BenchmarkFig9b: throughput vs store size.
func BenchmarkFig9b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig9b(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, f, "NetChain(4)", 20000, "NetChain4_MQPS@20K", 1e6)
		reportSeries(b, f, "NetChain(4)", 40000, "NetChain4_MQPS@40K", 1e6)
	}
}

// BenchmarkFig9c: throughput vs write ratio.
func BenchmarkFig9c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig9c(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, f, "NetChain(4)", 0, "NetChain4_MQPS@0w", 1e6)
		reportSeries(b, f, "NetChain(4)", 100, "NetChain4_MQPS@100w", 1e6)
		reportSeries(b, f, "ZooKeeper", 0, "ZK_KQPS@0w", 1e3)
		reportSeries(b, f, "ZooKeeper", 100, "ZK_KQPS@100w", 1e3)
	}
}

// BenchmarkFig9d: throughput vs loss rate.
func BenchmarkFig9d(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig9d(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, f, "NetChain(4)", 10, "NetChain4_MQPS@10%loss", 1e6)
		reportSeries(b, f, "ZooKeeper", 1, "ZK_KQPS@1%loss", 1e3)
	}
}

// BenchmarkFig9e: latency vs throughput.
func BenchmarkFig9e(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig9e(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		var ncLat float64
		n := 0.0
		for _, p := range f.Points {
			if p.Series == "NetChain (read/write)" {
				ncLat += p.Y
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(ncLat/n, "NetChain_µs")
		}
		if y, ok := firstPointOf(f, "ZooKeeper (read)"); ok {
			b.ReportMetric(y, "ZKread_µs")
		}
		if y, ok := firstPointOf(f, "ZooKeeper (write)"); ok {
			b.ReportMetric(y, "ZKwrite_µs")
		}
	}
}

// BenchmarkFig9eWindow sweeps the client's outstanding-query window at a
// fixed offered load on the simulated substrate: window=1 is the
// serialized closed loop (throughput ≈ 1/RTT); window=16 pipelines the
// same client into the open-loop regime Fig. 9(e) is measured in, and
// must deliver ≥2× the ops/sec at equal or better tail latency.
func BenchmarkFig9eWindow(b *testing.B) {
	for _, w := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("window=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts, err := experiments.Fig9eWindows(quickOpts(), []int{w})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(pts[0].QPS/1e6, "MQPS")
				b.ReportMetric(pts[0].P50us, "p50_µs")
				b.ReportMetric(pts[0].P99us, "p99_µs")
			}
		})
	}
}

func firstPointOf(f *experiments.Figure, series string) (float64, bool) {
	for _, p := range f.Points {
		if p.Series == series {
			return p.Y, true
		}
	}
	return 0, false
}

// BenchmarkFig9f: spine-leaf scalability.
func BenchmarkFig9f(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig9f(experiments.Fig9fOpts{Samples: 2000})
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, f, "NetChain (read)", 96, "read_BQPS@96sw", 1e9)
		reportSeries(b, f, "NetChain (write)", 96, "write_BQPS@96sw", 1e9)
		reportSeries(b, f, "NetChain (read)", 6, "read_BQPS@6sw", 1e9)
	}
}

func fig10Quick(vgroups int, presync bool) experiments.Fig10Opts {
	return experiments.Fig10Opts{
		VGroups:   vgroups,
		Scale:     20000,
		StoreSize: 1000,
		Duration:  40 * time.Second,
		FailAt:    8 * time.Second,
		RecoverAt: 15 * time.Second,
		Bucket:    time.Second,
		PreSync:   presync,
	}
}

// BenchmarkFig10a: failure handling, single virtual group.
func BenchmarkFig10a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(fig10Quick(1, false))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.MinRateDuringRecovery/res.BaselineRate, "min%ofBaseline")
		b.ReportMetric(res.RecoveryDone.Seconds(), "recoveryDone_s")
	}
}

// BenchmarkFig10b: failure handling, many virtual groups.
func BenchmarkFig10b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(fig10Quick(60, false))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.MinRateDuringRecovery/res.BaselineRate, "min%ofBaseline")
		b.ReportMetric(float64(res.GroupsRecovered), "groupsRecovered")
	}
}

// BenchmarkResize: elastic scale-out + scale-in via live virtual-group
// migration — read availability and groups moved while the ring grows by
// S4 and drains S1 (the scale-free half of the paper's title, Fig. 8
// testbed).
func BenchmarkResize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunResize(experiments.ResizeOpts{
			Scale:     50000,
			VNodes:    4,
			StoreSize: 300,
			Duration:  12 * time.Second,
			AddAt:     2 * time.Second,
			RemoveAt:  7 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.MinReadRateDuring/res.BaselineReadRate, "minRead%ofBaseline")
		b.ReportMetric(float64(res.GroupsMigratedOut+res.GroupsMigratedIn), "groupsMigrated")
		b.ReportMetric(float64(res.WritesUnavailable), "writesBounced")
	}
}

// BenchmarkFig11: transaction throughput vs contention.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig11(experiments.Fig11Opts{
			ContentionIndexes: []float64{0.01, 1},
			Clients:           []int{1, 10},
			ColdKeys:          500,
			NetChainWindow:    10 * time.Millisecond,
			ZKWindow:          500 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, f, "NetChain (10 clients)", 0.01, "NetChain10_txn/s", 1)
		reportSeries(b, f, "NetChain (10 clients)", 1, "NetChain10_txn/s@ci1", 1)
		reportSeries(b, f, "ZooKeeper (10 clients)", 0.01, "ZK10_txn/s", 1)
	}
}

// BenchmarkTLAModelCheck: state-exploration rate of the appendix model.
func BenchmarkTLAModelCheck(b *testing.B) {
	states := 0
	for i := 0; i < b.N; i++ {
		ck, err := mc.New(mc.DefaultBounds())
		if err != nil {
			b.Fatal(err)
		}
		res := ck.Run()
		if res.Violation != nil {
			b.Fatalf("unexpected violation: %s", res.Reason)
		}
		states = res.States
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkAblationRecirculation: values beyond one pipeline pass halve
// the switch budget (§6) — NetChain(max) drops while client-bound
// delivered throughput stays flat. Write-only so every query carries the
// oversized value through the chain (read requests are empty on the wire;
// the recirculation cost rides on value-bearing packets).
func BenchmarkAblationRecirculation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		small := quickOpts()
		small.ValueSize = 128
		small.WriteRatio = 1
		big := quickOpts()
		big.ValueSize = 256
		big.WriteRatio = 1
		fa, err := experiments.Fig9aPoint(small, 4)
		if err != nil {
			b.Fatal(err)
		}
		fb, err := experiments.Fig9aPoint(big, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fa.MaxQPS/1e9, "max_BQPS@128B")
		b.ReportMetric(fb.MaxQPS/1e9, "max_BQPS@256B")
	}
}

// BenchmarkAblationPreSync: Algorithm 3 Step 1 (pre-sync before the stop
// window) shrinks the recovery dip.
func BenchmarkAblationPreSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		off, err := experiments.Fig10(fig10Quick(1, false))
		if err != nil {
			b.Fatal(err)
		}
		on, err := experiments.Fig10(fig10Quick(1, true))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*off.MinRateDuringRecovery/off.BaselineRate, "dip%_noPreSync")
		b.ReportMetric(100*on.MinRateDuringRecovery/on.BaselineRate, "dip%_preSync")
	}
}

// BenchmarkAblationChainVsPB: chain replication needs n+1 messages per
// write against classical primary-backup's 2n (§2.2); measured switch
// traversals per write on the testbed versus the PB bound.
func BenchmarkAblationChainVsPB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		msgs, err := experiments.ChainMessagesPerWrite()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(msgs, "chainMsgs/write")
		b.ReportMetric(float64(2*3), "pbMsgs/write") // 2n for n=3 replicas
	}
}

// BenchmarkRealUDPWriteLatency: one write round trip through the real
// three-switch software chain on loopback.
func BenchmarkRealUDPWriteLatency(b *testing.B) {
	cl, err := StartLocalCluster(ClusterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	c, err := cl.NewClient(0)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	k := KeyFromString("bench")
	if err := cl.Insert(k); err != nil {
		b.Fatal(err)
	}
	v := Value("0123456789abcdef")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Write(k, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealUDPWritePipelined: b.N writes through one client and the
// real three-switch software chain with the given in-flight window.
// window=1 issues serially (the pre-pipelining closed loop); larger
// windows keep the pipe full through WriteAsync with the transport's own
// backpressure pacing submission. Per-op latency is measured submit→reply.
func BenchmarkRealUDPWritePipelined(b *testing.B) {
	for _, w := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("window=%d", w), func(b *testing.B) {
			cl, err := StartLocalCluster(ClusterConfig{ClientWindow: w})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			c, err := cl.NewClient(0)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			k := KeyFromString("bench")
			if err := cl.Insert(k); err != nil {
				b.Fatal(err)
			}
			v := Value("0123456789abcdef")
			if _, err := c.Write(k, v); err != nil { // warm the chain
				b.Fatal(err)
			}
			lat := make([]time.Duration, b.N)
			var fails atomic.Uint64
			var wg sync.WaitGroup
			b.ResetTimer()
			wg.Add(b.N)
			for i := 0; i < b.N; i++ {
				i := i
				start := time.Now()
				c.WriteAsync(k, v, func(_ Version, err error) {
					lat[i] = time.Since(start)
					if err != nil {
						fails.Add(1)
					}
					wg.Done()
				})
			}
			wg.Wait()
			b.StopTimer()
			if n := fails.Load(); n > 0 {
				b.Fatalf("%d of %d writes failed", n, b.N)
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
			b.ReportMetric(float64(lat[len(lat)*50/100].Microseconds()), "p50_µs")
			b.ReportMetric(float64(lat[len(lat)*99/100].Microseconds()), "p99_µs")
		})
	}
}

// BenchmarkLocalClusterInsert: one Cluster.Insert on the default
// four-switch loopback cluster, which installs the key on each of its
// three chain members in turn, tail first (§4.1), through their in-process
// agents: ~2.5–4.5 µs/insert at -benchtime 4096x on 2 vCPUs, where three
// loopback agent round trips cost 28–35 µs. A fresh cluster, outside the
// timer, takes over every insertBlock keys so switch slots never run out.
func BenchmarkLocalClusterInsert(b *testing.B) {
	const insertBlock = 4096
	var cl *Cluster
	closeCluster := func() {
		if cl != nil {
			cl.Close()
		}
	}
	defer closeCluster()
	for i := 0; i < b.N; i++ {
		if i%insertBlock == 0 {
			b.StopTimer()
			closeCluster()
			var err error
			if cl, err = StartLocalCluster(ClusterConfig{}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := cl.Insert(KeyFromUint64(uint64(i % insertBlock))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/insert")
}

// BenchmarkLocalClusterSeedWrites prices the seeding half of a workload
// set-up: on a fresh four-switch loopback cluster with one ingest socket
// per switch, 1 024 keys are inserted outside the timer, then one write
// per key is timed, issued with WriteAsync through two clients with at
// most 32 in flight. Each write crosses head → replica → tail, so the
// number is the switch nodes' per-mutation hand-off and egress cost.
func BenchmarkLocalClusterSeedWrites(b *testing.B) {
	const keys, window = 1024, 32
	val := Value("0123456789abcdef")
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cl, err := StartLocalCluster(ClusterConfig{Switches: 4, Replicas: 3, IngestSockets: 1})
		if err != nil {
			b.Fatal(err)
		}
		var clients [2]*Client
		for c := range clients {
			if clients[c], err = cl.NewClient(c); err != nil {
				b.Fatal(err)
			}
		}
		for k := 0; k < keys; k++ {
			if err := cl.Insert(KeyFromUint64(uint64(k))); err != nil {
				b.Fatal(err)
			}
		}
		var fails atomic.Uint64
		slots := make(chan struct{}, window)
		b.StartTimer()
		for k := 0; k < keys; k++ {
			slots <- struct{}{}
			clients[k%2].WriteAsync(KeyFromUint64(uint64(k)), val, func(_ Version, err error) {
				if err != nil {
					fails.Add(1)
				}
				<-slots
			})
		}
		for j := 0; j < window; j++ {
			slots <- struct{}{}
		}
		b.StopTimer()
		for _, c := range clients {
			c.Close()
		}
		cl.Close()
		if n := fails.Load(); n > 0 {
			b.Fatalf("%d of %d writes failed", n, keys)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*keys), "µs/write")
}

// BenchmarkZKKVWriteLatency: one quorum write through the real TCP
// baseline ensemble on loopback — compare with BenchmarkRealUDPWriteLatency.
func BenchmarkZKKVWriteLatency(b *testing.B) {
	addrs, stop, err := zkkv.StartEnsemble(3)
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
	c, err := zkkv.Dial(addrs[0], addrs[1:]...)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	k := kv.KeyFromString("bench")
	v := kv.Value("0123456789abcdef")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Write(k, v); err != nil {
			b.Fatal(err)
		}
	}
}
