package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"netchain/internal/core"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/ring"
	"netchain/internal/stats"
	"netchain/internal/swsim"
	"netchain/internal/trace"
	"netchain/internal/transport"
)

// The trace experiment answers "where does the sub-RTT budget go" with
// in-band telemetry instead of guesswork: a real-UDP 3-switch chain runs
// a mixed read/write load with a high trace sampling rate, every hop
// stamps its ingress/egress into the sampled frames, and the client-side
// collector decomposes end-to-end latency into head/mid/tail processing,
// tail read service, and wire transit. Two invariants gate the run:
//
//   - Attribution must telescope: on a no-fault schedule the hop-sum
//     (stage processing + wire gaps) accounts for the measured
//     end-to-end latency within 10% (everything shares one host clock).
//   - Telemetry must be ~free when off: an A/B measurement of pure reads
//     on the same chain with tracing disabled vs. sampled at the default
//     1/1024 proves the untraced fast path didn't pay for the feature.

// TraceBenchOpts tunes the latency-breakdown experiment.
type TraceBenchOpts struct {
	Duration  time.Duration // per-phase measurement window, default 400 ms
	ABWindows int           // A/B windows per arm for the overhead phase, default 3
}

// traceKeys is the chain's store size.
const traceKeys = 128

func (o *TraceBenchOpts) defaults() {
	if o.Duration == 0 {
		o.Duration = 400 * time.Millisecond
	}
	if o.ABWindows == 0 {
		o.ABWindows = 3
	}
}

// traceCluster is a real-UDP 3-switch chain deployment: every key's
// chain traverses all three switches (replicas=3 over 3 members), so
// writes exercise head→mid→tail and reads the tail's register file.
type traceCluster struct {
	book  *transport.AddressBook
	nodes []*transport.SwitchNode
	ring  *ring.Ring
	keys  []kv.Key
	rts   map[kv.Key]query.Route
	tcs   []*transport.Client
	ops   []*transport.Ops
}

// newTraceCluster boots the chain with every client tracing into col at
// sampleRate (0 = the client default, 1/1024); a nil col is tracing off.
func newTraceCluster(col *trace.Collector, sampleRate float64) (*traceCluster, error) {
	c := &traceCluster{book: transport.NewAddressBook(), rts: map[kv.Key]query.Route{}}
	var addrs []packet.Addr
	for i := 0; i < 3; i++ {
		addr := packet.AddrFrom4(10, 0, 0, byte(i+1))
		addrs = append(addrs, addr)
		sw, err := core.NewSwitch(addr, swsim.Config{
			Stages: 8, SlotBytes: 16, SlotsPerStage: 2 * traceKeys, PPS: 1e9,
		})
		if err != nil {
			c.Close()
			return nil, err
		}
		node, err := transport.NewSwitchNode(sw, c.book, "127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, node)
	}
	r, err := ring.New(ring.Config{VNodesPerSwitch: 4, Replicas: 3, Seed: 0x6e63}, addrs)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.ring = r
	for i := 0; i < 2; i++ { // two client sockets
		tc, err := transport.NewClient(c.book, transport.ClientConfig{
			Addr:            packet.AddrFrom4(10, 1, 0, byte(i+1)),
			Gateway:         addrs[0],
			Bind:            "127.0.0.1:0",
			Window:          32,
			Timeout:         250 * time.Millisecond,
			Retries:         8,
			Tracer:          col,
			TraceSampleRate: sampleRate,
		})
		if err != nil {
			c.Close()
			return nil, err
		}
		c.tcs = append(c.tcs, tc)
		c.ops = append(c.ops, &transport.Ops{Client: tc, Dir: c.route})
	}
	c.keys = make([]kv.Key, traceKeys)
	val := make(kv.Value, 64)
	for i := range val {
		val[i] = byte(i)
	}
	for i := range c.keys {
		c.keys[i] = kv.KeyFromUint64(uint64(i + 1))
		for _, node := range c.nodes {
			if err := node.Switch().InstallKey(c.keys[i]); err != nil {
				c.Close()
				return nil, err
			}
		}
		if _, err := c.ops[0].Write(c.keys[i], val); err != nil {
			c.Close()
			return nil, fmt.Errorf("seed key %d: %w", i, err)
		}
	}
	return c, nil
}

func (c *traceCluster) route(k kv.Key) (query.Route, error) {
	if rt, ok := c.rts[k]; ok {
		return rt, nil
	}
	rt := query.Route{
		Group: uint16(c.ring.GroupForKey(k)),
		Hops:  c.ring.ChainForKey(k).Hops,
	}
	c.rts[k] = rt
	return rt, nil
}

func (c *traceCluster) Close() {
	for _, tc := range c.tcs {
		tc.Close()
	}
	for _, n := range c.nodes {
		n.Close()
	}
}

// drive runs every client at full pipeline depth until the deadline with
// the given write ratio over uniformly chosen keys (issued via the async
// API so the window keeps the pipe full) and returns the delivered
// ops/sec. It fails if more than a tenth of the ops did.
func (c *traceCluster) drive(d time.Duration, writeRatio float64) (opsPerSec float64, err error) {
	var done, failed atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	writeVal := make(kv.Value, 64)
	for i := range writeVal {
		writeVal[i] = byte(i * 5)
	}
	for ci, ops := range c.ops {
		wg.Add(1)
		go func(ci int, ops *transport.Ops) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(ci) + 1))
			var inner sync.WaitGroup
			record := func(err error) {
				if err != nil {
					failed.Add(1)
				} else {
					done.Add(1)
				}
				inner.Done()
			}
			onWrite := func(_ kv.Version, err error) { record(err) }
			onRead := func(_ kv.Value, _ kv.Version, err error) { record(err) }
			for time.Now().Before(deadline) {
				k := c.keys[rng.Intn(len(c.keys))]
				inner.Add(1)
				if rng.Float64() < writeRatio {
					ops.WriteAsync(k, writeVal, onWrite)
				} else {
					ops.ReadAsync(k, onRead)
				}
			}
			inner.Wait()
		}(ci, ops)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if f, n := failed.Load(), done.Load(); n == 0 || f > n/10 {
		return 0, fmt.Errorf("trace: %d of %d ops failed", f, f+n)
	}
	return float64(done.Load()) / elapsed.Seconds(), nil
}

// traceRow encodes one per-hop percentile row: the sample count rides in
// OpsPerSec, the percentiles in µs.
func traceRow(scenario string, h *stats.Histogram) Row {
	return Row{
		Scenario:  scenario,
		OpsPerSec: float64(h.Count()),
		P50us:     h.P50() / 1e3,
		P99us:     h.P99() / 1e3,
	}
}

// TraceBench runs the latency-breakdown experiment and returns its rows.
func TraceBench(o TraceBenchOpts) ([]Row, error) {
	o.defaults()

	// Phase 1: per-hop breakdown on the 3-switch chain.
	col := trace.NewCollector()
	c, err := newTraceCluster(col, 1.0/16)
	if err != nil {
		return nil, err
	}
	_, err = c.drive(o.Duration, 0.3) // 30% writes
	c.Close()
	if err != nil {
		return nil, fmt.Errorf("trace breakdown: %w", err)
	}
	traces := col.Traces.Load()
	if traces < 100 {
		return nil, fmt.Errorf("trace breakdown: only %d sampled traces (want >= 100)", traces)
	}
	if hopless := col.Hopless.Load(); hopless*10 > traces {
		return nil, fmt.Errorf("trace breakdown: %d of %d traced replies carried no hops", hopless, traces)
	}
	// Acceptance: the stamps must account for the measured end-to-end
	// latency within 10% on this no-fault, single-clock schedule.
	cov := col.MeanCoverage()
	if cov < 0.9 || cov > 1.1 {
		return nil, fmt.Errorf("trace breakdown: hop-sum covers %.1f%% of end-to-end latency (want 90-110%%)", 100*cov)
	}

	results := []Row{
		traceRow("trace-hop-head", col.StageHist(packet.StageHead)),
		traceRow("trace-hop-mid", col.StageHist(packet.StageMid)),
		traceRow("trace-hop-tail", col.StageHist(packet.StageTail)),
		traceRow("trace-hop-read", col.StageHist(packet.StageRead)),
		traceRow("trace-wire-transit", col.Wire),
		traceRow("trace-client-queue", col.Queue),
		traceRow("trace-e2e", col.Total),
		{Scenario: "trace-coverage-pct", OpsPerSec: 100 * cov},
		{Scenario: "trace-retry-share", OpsPerSec: col.RetryShare()},
	}

	// Phase 2: A/B overhead of the telemetry branch on pure reads —
	// tracing off vs. the default 1/1024 sampling.
	overhead, base, err := traceOverhead(o)
	if err != nil {
		return nil, err
	}
	results = append(results, Row{
		Scenario:  "trace-overhead-pct",
		OpsPerSec: base / 1e3, // untraced KQPS
		P99us:     overhead * 100,
	})
	return results, nil
}

// traceOverhead measures the throughput cost of the (almost always
// untaken) telemetry branch: best-window read throughput with no tracer
// vs. with the default 1/1024 sampling, each arm on its own chain.
// Returns the relative slowdown (negative clamped to 0) and the untraced
// arm's throughput.
func traceOverhead(o TraceBenchOpts) (overhead, baseQPS float64, err error) {
	baseCl, err := newTraceCluster(nil, 0)
	if err != nil {
		return 0, 0, err
	}
	defer baseCl.Close()
	tracedCl, err := newTraceCluster(trace.NewCollector(), 0) // client default: 1/1024
	if err != nil {
		return 0, 0, err
	}
	defer tracedCl.Close()
	// Both clusters live the whole measurement and the windows alternate,
	// so scheduler/thermal drift loads both arms equally; the first window
	// of each arm is a discarded warmup (socket buffers, branch caches).
	// A true branch cost reproduces across window sets, so the hard bound
	// below only fires after a second set confirms it — one set can lose an
	// arm to a co-tenant burst on a shared runner.
	var tracedQPS float64
	for attempt := 0; attempt < 2; attempt++ {
		var bases, traceds []float64
		for i := 0; i <= o.ABWindows; i++ {
			b, err := baseCl.drive(o.Duration, 0)
			if err != nil {
				return 0, 0, fmt.Errorf("trace overhead (untraced window %d): %w", i, err)
			}
			tr, err := tracedCl.drive(o.Duration, 0)
			if err != nil {
				return 0, 0, fmt.Errorf("trace overhead (traced window %d): %w", i, err)
			}
			if i == 0 {
				continue
			}
			bases, traceds = append(bases, b), append(traceds, tr)
		}
		// Best window per arm: preemptions and GC pauses only ever subtract
		// throughput, so the max is the least-noisy estimate of each arm's
		// capacity — the quantity the branch cost actually shifts.
		baseQPS, tracedQPS = maxOf(bases), maxOf(traceds)
		overhead = 1 - tracedQPS/baseQPS
		if overhead < 0 {
			overhead = 0 // noise: traced arm ran faster
		}
		// Hard sanity bound — well above the <2% target to stay robust on
		// noisy CI runners, but a double-digit cost means the untraced fast
		// path grew real work and must fail the experiment.
		if overhead <= 0.15 {
			return overhead, baseQPS, nil
		}
	}
	return 0, 0, fmt.Errorf("telemetry overhead %.1f%% on the read path (untraced %.0f qps, traced %.0f qps)",
		100*overhead, baseQPS, tracedQPS)
}

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// FormatTraceBench renders the latency-breakdown rows.
func FormatTraceBench(results []Row) string {
	s := fmt.Sprintf("%-22s %12s %10s %10s\n", "trace (real UDP)", "samples", "p50 µs", "p99 µs")
	for _, r := range results {
		switch r.Scenario {
		case "trace-coverage-pct":
			s += fmt.Sprintf("%-22s %11.1f%% of end-to-end latency attributed to hops\n", r.Scenario, r.OpsPerSec)
		case "trace-retry-share":
			s += fmt.Sprintf("%-22s %12.4f of sampled time in retry backoff\n", r.Scenario, r.OpsPerSec)
		case "trace-overhead-pct":
			s += fmt.Sprintf("%-22s %11.2f%% read-path cost at 1/1024 sampling (untraced %.0f KQPS)\n",
				r.Scenario, r.P99us, r.OpsPerSec)
		default:
			s += fmt.Sprintf("%-22s %12.0f %10.1f %10.1f\n", r.Scenario, r.OpsPerSec, r.P50us, r.P99us)
		}
	}
	return s
}
