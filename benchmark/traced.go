package main

import (
	"fmt"
	"sort"
	"time"
)

// runTraced produces the per-layer metrics. It spends about seconds in
// all: a quarter on an untraced segment of the workload, a quarter on the
// same load with a span around every façade call, and the rest on the
// layer walk and the rig.
func runTraced(sp spec, seed int64, seconds int, tracePath string) (*result, error) {
	r := &result{Workload: sp.name, Seed: seed, Seconds: seconds, Trace: true, Machine: readMachine()}
	tr := newTracer()
	e, _, err := newEnv(sp, seed)
	if err != nil {
		return nil, err
	}
	defer e.close()
	before, opsBefore := e.clientStats(), e.attempted.Load()
	e.start()
	time.Sleep(warmup(seconds) / 2)

	quarter := time.Duration(seconds) * time.Second / 4
	heap0 := readHeap()
	plain := e.segment(0, quarter, false)
	heap1 := readHeap()

	e.root = tr.begin(-1, "workload."+sp.name)
	e.tracer.Store(tr)
	traced := e.segment(sp.windows, quarter, sp.loop == loopPaced)
	e.tracer.Store(nil)
	tr.end(e.root)

	counters, ops := e.finishLoad(before, opsBefore)
	e.verdict(r)

	// proc.*: what the process spent per op over the untraced windows.
	first, last := plain[0].from, plain[len(plain)-1].to
	done := 0.0
	for _, w := range plain {
		done += w.done
	}
	cpuPerOp := (last.cpuUs() - first.cpuUs()) / done
	r.add("proc.cpu_us_per_op", "us", cpuPerOp, int(done))
	r.add("proc.user_cpu_us_per_op", "us", (last.userUs-first.userUs)/done, int(done))
	r.add("proc.sys_cpu_us_per_op", "us", (last.sysUs-first.sysUs)/done, int(done))
	r.add("proc.ctxsw_per_op", "count", (last.ctxsw-first.ctxsw)/done, int(done))
	r.add("proc.allocs_per_op", "count", (heap1.mallocs-heap0.mallocs)/done, int(done))
	r.add("proc.alloc_bytes_per_op", "B", (heap1.bytes-heap0.bytes)/done, int(done))
	r.add("proc.gc_cycles", "count", heap1.gcCycles-heap0.gcCycles, 1)
	r.add("proc.gc_pause_ms", "ms", heap1.gcPauseMs-heap0.gcPauseMs, 1)

	// transport.client_*: the clients' own counters over every op of the run.
	kops := float64(ops) / 1e3
	r.add("transport.client_sent_per_op", "count", float64(counters.Sent)/float64(ops), int(ops))
	r.add("transport.client_retries_per_kop", "count", float64(counters.Retries)/kops, int(ops))
	r.add("transport.client_timeouts", "count", float64(counters.Timeouts), int(ops))
	r.add("transport.client_late_per_kop", "count", float64(counters.Late)/kops, int(ops))
	r.add("transport.client_decode_errors", "count", float64(counters.DecodeErrors), int(ops))

	// netchain.*: latency by op class as the façade's caller saw it, from
	// the untraced windows. A class the workload never issues reports 0
	// from 0 samples.
	r.add("netchain.throughput_ops_s", "ops/s", windowMedian(plain, winStat.throughput), len(plain))
	all := newHist()
	var p50 [numClasses]float64
	for cls := opClass(0); cls < numClasses; cls++ {
		h := pooled(plain, cls)
		all.merge(h)
		p50[cls] = h.quantile(0.5) / 1e3
		r.add("netchain."+classMetrics[cls]+"_p50_us", "us", p50[cls], h.count())
		r.add("netchain."+classMetrics[cls]+"_p99_us", "us", h.quantile(0.99)/1e3, h.count())
	}
	sat := newHist()
	if sp.window > 0 {
		sat = all
	}
	r.add("netchain.sat_p50_us", "us", sat.quantile(0.5)/1e3, sat.count())
	r.add("netchain.sat_p99_us", "us", sat.quantile(0.99)/1e3, sat.count())
	q, pmax := all.pmax()
	r.add("netchain.pmax_us", "us", pmax/1e3, all.count())
	r.Notes = append(r.Notes, fmt.Sprintf("netchain.pmax_us is p%.4f of %d ops", q*100, all.count()))

	// controller.*: the fail/recover cycles ran in the traced segment.
	var failover, recover, outage []float64
	faultLat := newHist()
	if sp.loop == loopPaced {
		for _, w := range traced {
			failover = append(failover, w.failoverMs)
			recover = append(recover, w.recoverMs)
			outage = append(outage, e.writeOutage(w).Seconds()*1e3)
			for cls := range w.lat {
				faultLat.merge(w.lat[cls])
			}
		}
	}
	r.add("controller.failover_ms", "ms", median(failover), len(failover))
	r.add("controller.recover_ms", "ms", median(recover), len(recover))
	r.add("controller.refusals_per_recover", "count", float64(r.Refused)/float64(max(1, len(recover))), len(recover))
	r.add("controller.write_outage_ms", "ms", median(outage), len(outage))
	r.add("controller.fault_p99_ms", "ms", faultLat.quantile(0.99)/1e6, faultLat.count())

	r.add("trace.overhead_pct", "%", 100*(1-windowMedian(traced, winStat.throughput)/windowMedian(plain, winStat.throughput)), len(plain))

	// The layer walk and the rig, each layer's spans under one root.
	w := &walker{tr: tr, slice: time.Duration(seconds) * time.Second / 160, size: sp.valueSize, r: r}
	w.root = tr.begin(-1, "layerwalk")
	readPath, writePath := w.walkPaths()
	if w.err == nil {
		headline := readPath
		if sp.headline == clsWrite {
			headline = writePath
		}
		r.add("packet.wire_bytes_per_op", "B", float64(headline.bytes()), len(headline))
		w.codecLayers(writePath)
		w.swsimLayers()
		w.coreLayers()
		w.routeLayers(e.cluster, e.ks)
		w.socketLayers(writePath[0])
		w.rigLayers(r.get("core.read_ns"), r.get("core.write_head_ns"))
	}
	tr.end(w.root)
	if w.err != nil {
		return nil, fmt.Errorf("layer walk: %w", w.err)
	}
	budget(r, len(readPath), len(writePath), p50[clsRead], p50[clsWrite])

	// loadgen.*: the same generator against a client that answers at once,
	// with the cluster gone so that the process's CPU is the generator's.
	e.close()
	genNs, genOps := loadgenCost(sp, seed)
	r.add("loadgen.ns_per_op", "ns", genNs, genOps)
	r.add("loadgen.share_pct", "%", 100*genNs/(cpuPerOp*1e3), genOps)
	r.add("loadgen.lateness_p99_us", "us", e.lateness.quantile(0.99)/1e3, e.lateness.count())

	// The layer spans' times are the table above; what is left is the
	// traced segment: its ops, and the time no op covered.
	self := tr.selfTimes(w.root)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.Notes = append(r.Notes, fmt.Sprintf("self time of %s spans: %v", name, self[name].Round(time.Microsecond)))
	}
	if err := tr.write(tracePath); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return r, nil
}

// loadgenCost runs a generator for a short while against memClient and
// returns the CPU it burns per op. CPU, not wall time: the open loop sleeps
// between ticks.
func loadgenCost(sp spec, seed int64) (nsPerOp float64, ops int) {
	ks := newKeyspace(numKeys, sp.valueSize)
	for i := range ks.keys {
		ks.next[i].Store(1)
		ks.acked[i].Store(1)
	}
	h := newHarness(sp, ks)
	g := newGen(h, 0, newMemClient(ks), seed)
	stop := time.AfterFunc(200*time.Millisecond, func() { h.stop.Store(true) })
	defer stop.Stop()
	from := readUsage()
	g.run()
	to := readUsage()
	n := h.attempted.Load()
	if n == 0 {
		return 0, 0
	}
	return (to.cpuUs() - from.cpuUs()) * 1e3 / float64(n), int(n)
}

// budget walks the blocking path of one unloaded read and one unloaded
// write (gateway is not the chain's entry switch) and sums the self times
// the layer walk measured along it. What the sum leaves of the measured
// p50 is the residual: goroutine wake-ups, the kernel's loopback path,
// queue hand-offs and client bookkeeping, none of which a call from
// outside can time. It is a row so that it can only shrink by being
// explained.
func budget(r *result, readFrames, writeFrames int, readP50us, writeP50us float64) {
	g := r.get
	perFrame := g("packet.encode_ns") + g("transport.addrbook_get_ns") + g("transport.send_ns_per_dgram.b1") +
		g("transport.recv_ns_per_dgram.b1") + g("packet.decode_ns")
	client := g("controller.route_ns") + g("query.build_ns") + g("query.parse_ns")
	read := client + float64(readFrames)*perFrame + g("core.transit_ns") + g("core.read_ns")
	write := client + float64(writeFrames)*perFrame + g("core.transit_ns") + g("core.write_head_ns") + 2*g("core.write_apply_ns")
	for _, row := range []struct {
		op        string
		explained float64
		p50       float64
	}{{"read", read / 1e3, readP50us}, {"write", write / 1e3, writeP50us}} {
		residual := row.p50 - row.explained
		if row.p50 == 0 {
			residual = 0 // the workload issues no such op: nothing to explain
		}
		r.add("budget.explained_us."+row.op, "us", row.explained, 1)
		r.add("budget.residual_us."+row.op, "us", residual, 1)
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("budget per frame on the wire: encode+addrbook+send.b1+recv.b1+decode = %.0f ns; read path %d frames, write path %d", perFrame, readFrames, writeFrames))
}
