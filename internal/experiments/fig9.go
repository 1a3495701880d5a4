package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/stats"
	"netchain/internal/workload"
	"netchain/internal/zab"
)

// ThroughputOpts parameterizes the Fig. 9(a)–(d) family. Zero values take
// the paper's defaults: 64-byte values, 20K store, 1% writes, no loss. Rates
// run at FabricOpts' default scale, 1/1000.
type ThroughputOpts struct {
	StoreSize  int           // number of keys (default 20000)
	ValueSize  int           // bytes (default 64)
	WriteRatio float64       // default 0.01
	Window     time.Duration // measurement window (default 100 ms simulated)
	ZKWindow   time.Duration // baseline window (default 400 ms simulated)
	// ClientWindow caps each generator's outstanding queries (0 = unbounded
	// open loop, the paper's DPDK source); sweep it to reproduce the
	// pipelining crossover of Fig. 9(e).
	ClientWindow int
}

// zkClients is the baseline's closed-loop session count.
const zkClients = 100

func (o *ThroughputOpts) defaults() {
	if o.StoreSize == 0 {
		o.StoreSize = 20000
	}
	if o.ValueSize == 0 {
		o.ValueSize = 64
	}
	if o.Window == 0 {
		o.Window = 100 * time.Millisecond
	}
	if o.ZKWindow == 0 {
		o.ZKWindow = 400 * time.Millisecond
	}
	if o.WriteRatio == 0 {
		o.WriteRatio = 0.01
	}
}

// throughputScenario is the NetChain side of Fig. 9(a)–(d): the store on
// a 10-vnode ring, every switch dropping lossRate of its frames, and one
// open-loop generator on each of the first servers client hosts for the
// window.
func throughputScenario(o ThroughputOpts, servers int, lossRate float64) scenario {
	return scenario{
		fabric: FabricOpts{VNodes: 10},
		store: func(d *Deployment) (func(int) []kv.Key, error) {
			keys, err := d.LoadStore(o.StoreSize, o.ValueSize)
			if err != nil {
				return nil, err
			}
			for _, s := range d.SwitchAddrs() {
				if err := d.Net.LossRateSet(s, lossRate); err != nil {
					return nil, err
				}
			}
			return func(mux int) []kv.Key {
				if mux < servers {
					return keys
				}
				return nil
			}, nil
		},
		loads: []load{{mux: everyMux, writeRatio: o.WriteRatio, valueSize: o.ValueSize, window: o.ClientWindow}},
		stop:  o.Window,
	}
}

// netchainThroughput measures delivered QPS with the given number of
// client servers on a fresh deployment, plus the theoretical chain
// maximum derived from switch budgets and measured traversals
// (NetChain(max) in Fig. 9).
func netchainThroughput(o ThroughputOpts, servers int, lossRate float64) (qps, maxQPS float64, err error) {
	return chainThroughput(throughputScenario(o, servers, lossRate))
}

// chainThroughput runs sc and returns its delivered QPS and NetChain(max).
func chainThroughput(sc scenario) (qps, maxQPS float64, err error) {
	r, err := sc.run()
	if err != nil {
		return 0, 0, err
	}
	// NetChain(max): the chain saturates when its busiest switch exhausts
	// its packet budget; traversals-per-query comes from the measured run.
	var sent uint64
	for _, g := range r.gens {
		sent += g.Sent
	}
	if sent > 0 {
		worst := 0.0
		for _, sa := range r.SwitchAddrs() {
			sw, _ := r.Net.Switch(sa)
			// Pipeline passes, not packets: recirculated big values consume
			// multiple slots of the switch budget (§6).
			_, passes := sw.PipelinePasses()
			worst = max(worst, float64(passes+sw.Stats().Transits)/float64(sent))
		}
		if worst > 0 {
			maxQPS = r.Profile.SwitchPPS / worst
		}
	}
	return r.okQPS(), maxQPS, nil
}

// zkRun drives a closed-loop mixed workload against the baseline and
// returns delivered QPS plus latency histograms split by op.
func zkRun(clients int, writeRatio float64, window time.Duration, lossRate float64) (qps float64, readLat, writeLat *stats.Histogram, err error) {
	sim := event.New()
	cfg := zab.DefaultConfig()
	cfg.LossRate = lossRate
	cfg.Seed = figSeed
	cl, err := zab.NewCluster(sim, cfg)
	if err != nil {
		return 0, nil, nil, err
	}
	keys := workload.KeySpace(64)
	for _, k := range keys {
		cl.Write(k, kv.Value("init"), func(error) {})
	}
	sim.Run()

	readLat = stats.NewLatencyHistogram()
	writeLat = stats.NewLatencyHistogram()
	done := uint64(0)
	deadline := sim.Now() + event.Duration(window)
	rng := rand.New(rand.NewSource(figSeed))

	var loop func(i int)
	loop = func(i int) {
		if sim.Now() >= deadline {
			return
		}
		k := keys[rng.Intn(len(keys))]
		start := sim.Now()
		if rng.Float64() < writeRatio {
			cl.Write(k, kv.Value("v"), func(error) {
				writeLat.Observe(float64(sim.Now() - start))
				done++
				loop(i)
			})
		} else {
			cl.Read(k, func(kv.Value, error) {
				readLat.Observe(float64(sim.Now() - start))
				done++
				loop(i)
			})
		}
	}
	for i := 0; i < clients; i++ {
		loop(i)
	}
	sim.RunUntil(deadline)
	qps = float64(done) / window.Seconds()
	return qps, readLat, writeLat, nil
}

// fig9Sweep fills f with the Fig. 9(a)–(c) series: for every x value,
// apply sets the swept field on a copy of o, then NetChain(k) runs with
// 1–4 client servers (plus NetChain(max) at 4) and the baseline once.
func fig9Sweep(f *Figure, o ThroughputOpts, xs []float64, apply func(o *ThroughputOpts, x float64)) (*Figure, error) {
	o.defaults()
	for _, x := range xs {
		oo := o
		apply(&oo, x)
		for servers := 1; servers <= 4; servers++ {
			qps, maxQPS, err := netchainThroughput(oo, servers, 0)
			if err != nil {
				return nil, err
			}
			f.Add(fmt.Sprintf("NetChain(%d)", servers), x, qps)
			if servers == 4 {
				f.Add("NetChain(max)", x, maxQPS)
			}
		}
		qps, _, _, err := zkRun(zkClients, oo.WriteRatio, oo.ZKWindow, 0)
		if err != nil {
			return nil, err
		}
		f.Add("ZooKeeper", x, qps)
	}
	return f, nil
}

// Fig9a: throughput vs value size — NetChain flat at the client budget,
// orders above the baseline (§8.1).
func Fig9a(o ThroughputOpts) (*Figure, error) {
	return fig9Sweep(&Figure{
		ID: "fig9a", Title: "Throughput vs value size",
		XLabel: "value(B)", YLabel: "QPS",
		PaperNote: "NetChain(4)=82 MQPS flat 0–128 B; ZooKeeper≈0.14 MQPS flat",
	}, o, []float64{0, 32, 64, 96, 128},
		func(o *ThroughputOpts, x float64) { o.ValueSize = int(x) })
}

// Fig9b: throughput vs store size — flat for both systems (§8.1).
func Fig9b(o ThroughputOpts) (*Figure, error) {
	return fig9Sweep(&Figure{
		ID: "fig9b", Title: "Throughput vs store size",
		XLabel: "store", YLabel: "QPS",
		PaperNote: "both systems flat 0–100K items; NetChain(4)=82 MQPS",
	}, o, []float64{1000, 20000, 40000},
		func(o *ThroughputOpts, x float64) { o.StoreSize = int(x) })
}

// Fig9c: throughput vs write ratio — NetChain flat; the baseline collapses
// from 230 KQPS read-only to 27 KQPS write-only (§8.1).
func Fig9c(o ThroughputOpts) (*Figure, error) {
	return fig9Sweep(&Figure{
		ID: "fig9c", Title: "Throughput vs write ratio",
		XLabel: "write%", YLabel: "QPS",
		PaperNote: "NetChain(4) flat 82 MQPS; ZooKeeper 230K→140K@1%→27K@100%",
	}, o, []float64{0, 1, 25, 50, 75, 100},
		func(o *ThroughputOpts, x float64) { o.WriteRatio = x / 100 })
}

// Fig9d: throughput vs packet loss rate — NetChain's UDP retries degrade
// gracefully; the baseline's TCP stalls collapse (§8.1).
func Fig9d(o ThroughputOpts) (*Figure, error) {
	o.defaults()
	f := &Figure{
		ID: "fig9d", Title: "Throughput vs loss rate",
		XLabel: "loss%", YLabel: "QPS",
		PaperNote: "NetChain(4): 82 MQPS to 1% loss, 48 MQPS @10%; ZooKeeper 140K→50K@1%→3K@10%",
	}
	for _, loss := range []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1} {
		qps, _, err := netchainThroughput(o, 4, loss)
		if err != nil {
			return nil, err
		}
		f.Add("NetChain(4)", loss*100, qps)
		zq, _, _, err := zkRun(zkClients, o.WriteRatio, o.ZKWindow, loss)
		if err != nil {
			return nil, err
		}
		f.Add("ZooKeeper", loss*100, zq)
	}
	return f, nil
}

// Fig9e: latency vs throughput — NetChain flat at ~9.7 µs up to client
// saturation; baseline reads 170 µs / writes 2350 µs rising toward
// saturation (§8.2).
func Fig9e(o ThroughputOpts) (*Figure, error) {
	o.defaults()
	f := &Figure{
		ID: "fig9e", Title: "Latency vs throughput",
		XLabel: "QPS", YLabel: "latency µs",
		PaperNote: "NetChain 9.7 µs flat to 82 MQPS; ZK read 170 µs @≤230K, write 2350 µs @≤27K",
	}
	// NetChain: one client server swept across offered loads. Latency must
	// be measured at true rates (Scale=1): scaled-down capacities would
	// inflate per-packet service times into the latency signal.
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		p, err := fig9ePoint(o, o.ClientWindow, frac)
		if err != nil {
			return nil, err
		}
		f.Add("NetChain (read/write)", p.QPS, p.P50us)
	}
	// Baseline: client count sweep, read-only and write-only.
	for _, clients := range []int{1, 2, 5, 10, 25, 50, 100} {
		qps, readLat, _, err := zkRun(clients, 0, o.ZKWindow, 0)
		if err != nil {
			return nil, err
		}
		f.Add("ZooKeeper (read)", qps, readLat.P50()/1e3)
		wqps, _, writeLat, err := zkRun(clients, 1, o.ZKWindow, 0)
		if err != nil {
			return nil, err
		}
		f.Add("ZooKeeper (write)", wqps, writeLat.P50()/1e3)
	}
	return f, nil
}

// WindowPoint is one measurement of the client-pipeline sweep: delivered
// throughput and latency at a fixed offered load with the given
// outstanding-query window.
type WindowPoint struct {
	Window     int
	QPS        float64
	P50us      float64
	P99us      float64
	Suppressed uint64
}

// Fig9eWindows drives one client server at full offered load across
// in-flight windows. Window=1 degenerates to the serialized closed loop
// (throughput ≈ 1/RTT); larger windows pipeline the same client toward the
// paper's open-loop saturating load, which is the regime Fig. 9(e) is
// measured in. Latency must stay flat while throughput multiplies — that
// is the sub-RTT pipelining claim in miniature.
func Fig9eWindows(o ThroughputOpts, windows []int) ([]WindowPoint, error) {
	o.defaults()
	out := make([]WindowPoint, 0, len(windows))
	for _, w := range windows {
		p, err := fig9ePoint(o, w, 1.0)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// FormatWindows renders the client-pipeline sweep as benchrunner prints it.
func FormatWindows(pts []WindowPoint) string {
	s := "client pipeline sweep (one client server, fixed offered load):\n" +
		fmt.Sprintf("%8s %12s %10s %10s %12s\n", "window", "MQPS", "p50 µs", "p99 µs", "suppressed")
	for _, p := range pts {
		s += fmt.Sprintf("%8d %12.3f %10.2f %10.2f %12d\n", p.Window, p.QPS/1e6, p.P50us, p.P99us, p.Suppressed)
	}
	return s
}

// fig9ePoint runs the Fig. 9(e) single-client measurement: a fresh
// unscaled deployment, a 4096-key store, and one 50/50 read-write
// generator with the given outstanding window offered rateFrac of the
// host budget for 4 ms of simulated time.
func fig9ePoint(o ThroughputOpts, window int, rateFrac float64) (WindowPoint, error) {
	r, err := scenario{
		fabric: FabricOpts{Scale: 1, VNodes: 10},
		store: func(d *Deployment) (func(int) []kv.Key, error) {
			keys, err := d.LoadStore(4096, o.ValueSize)
			return allHosts(keys), err
		},
		loads: []load{{writeRatio: 0.5, valueSize: o.ValueSize, window: window, rate: rateFrac}},
		stop:  4 * time.Millisecond,
	}.run()
	if err != nil {
		return WindowPoint{}, err
	}
	g := r.gens[0]
	return WindowPoint{
		Window:     window,
		QPS:        r.okQPS(),
		P50us:      g.Latency.P50() / 1e3,
		P99us:      g.Latency.P99() / 1e3,
		Suppressed: g.Suppressed,
	}, nil
}
