package main

import (
	"fmt"
	"sort"
	"time"

	"netchain/internal/transport"
)

// metric is one named number of a result; samples says how many
// measurements stand behind it (windows for a median of windows, ops for a
// percentile, spans for a layer timing). Demoted marks a timing metric of
// the untraced pass that did not repeat within its bound on a shared host:
// it is measured, printed and kept in the result file for -compare, but it
// is not in BENCHMARK.json's end_to_end list nor in the summary line.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	Demoted bool    `json:"demoted,omitempty"`
}

// result is what one pass over one workload reports.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Trace     bool     `json:"trace"`
	Machine   machine  `json:"machine"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Refused   int64    `json:"refused"`     // attempts refused by a migration freeze, then resubmitted
	Resubmits int64    `json:"resubmitted"` // attempts that ended in any other error, then resubmitted
	Findings  []string `json:"findings,omitempty"`
	Metrics   []metric `json:"metrics"`
	Notes     []string `json:"notes,omitempty"`
}

func (r *result) add(name, unit string, value float64, samples int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: value, Samples: samples})
}

func (r *result) addDemoted(name, unit string, value float64, samples int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: value, Samples: samples, Demoted: true})
}

func (r *result) get(name string) float64 {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// winStat is one timed window, summed over the clients.
type winStat struct {
	dur          time.Duration
	from, to     usage
	done         float64
	lat          [numClasses]*hist
	failoverMs   float64 // failover-paced cycles only, below
	recoverMs    float64
	killedAt     time.Time
	outageWindow time.Duration
}

func (w winStat) throughput() float64 { return w.done / w.dur.Seconds() }
func (w winStat) cpuPerOp() float64   { return (w.to.cpuUs() - w.from.cpuUs()) / w.done }

// failover-paced kills a chain member that is not the clients' gateway in
// each cycle and restores the chain onto the next spare: switch 3 is the
// spare that replaced switch 2 by the time it is killed in turn.
var (
	victims = []int{2, 1, 3}
	spares  = []int{3, 4, 5}
)

// segment runs the workload's timed windows, total long, recording into
// window slots base.. of every generator. With faults set, each window is
// one fail/recover cycle.
func (e *env) segment(base int, total time.Duration, faults bool) []winStat {
	n := e.sp.windows
	each := total / time.Duration(n)
	stats := make([]winStat, n)
	for i := range stats {
		w := &stats[i]
		w.from = readUsage()
		e.phase.Store(int32(base + i))
		if faults {
			e.faultCycle(w, each, victims[i], spares[i])
		} else {
			time.Sleep(each)
		}
		if i == n-1 {
			e.phase.Store(-1)
		}
		w.to = readUsage()
		w.dur = w.to.at.Sub(w.from.at)
	}
	for i := range stats {
		w := &stats[i]
		for cls := range w.lat {
			w.lat[cls] = newHist()
		}
		for _, g := range e.gens {
			gw := g.wins[base+i]
			w.done += float64(gw.done.Load())
			for cls := range w.lat {
				w.lat[cls].merge(gw.lat[cls])
			}
		}
	}
	return stats
}

// faultGap keeps fault events apart by more than a client's whole
// retransmission budget (20 ms doubling to 80 ms, 8 retries: 620 ms), so
// that no query of one event is still in flight at the next and each
// event is measured on its own. Short passes stretch their cycles to it.
const faultGap = 1200 * time.Millisecond

// faultCycle spends one window of length each on: load, FailSwitch at 40 %,
// load on the degraded chain, Recover at 70 %, load on the restored chain.
func (e *env) faultCycle(w *winStat, each time.Duration, victim, spare int) {
	t0 := time.Now()
	tr := e.tracer.Load()
	sleepUntil := func(t time.Time) {
		if gap := e.lastFault.Add(faultGap); gap.After(t) {
			t = gap
		}
		time.Sleep(time.Until(t))
	}
	sleepUntil(t0.Add(each * 4 / 10))
	w.killedAt = time.Now()
	if err := e.cluster.FailSwitch(victim); err != nil {
		e.violate("FailSwitch(%d): %v", victim, err)
	}
	e.lastFault = time.Now()
	w.failoverMs = e.lastFault.Sub(w.killedAt).Seconds() * 1e3
	if tr != nil {
		tr.add(e.root, "Cluster.FailSwitch", w.killedAt, e.lastFault, 1)
	}
	sleepUntil(t0.Add(each * 7 / 10))
	r0 := time.Now()
	w.outageWindow = min(time.Second, r0.Sub(w.killedAt))
	if err := e.cluster.Recover(victim, spare); err != nil {
		e.violate("Recover(%d, %d): %v", victim, spare, err)
	}
	e.lastFault = time.Now()
	w.recoverMs = e.lastFault.Sub(r0).Seconds() * 1e3
	if tr != nil {
		tr.add(e.root, "Cluster.Recover", r0, e.lastFault, 1)
	}
	time.Sleep(time.Until(t0.Add(each)))
}

// writeOutage is the longest time without an acknowledged write inside the
// cycle's outage window, which opens when the switch is killed.
func (e *env) writeOutage(w winStat) time.Duration {
	var at []time.Time
	end := w.killedAt.Add(w.outageWindow)
	for c := range e.ackedAt {
		s := &e.ackedAt[c]
		s.mu.Lock()
		for _, t := range s.at {
			if t.After(w.killedAt) && t.Before(end) {
				at = append(at, t)
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(at, func(i, j int) bool { return at[i].Before(at[j]) })
	longest, prev := time.Duration(0), w.killedAt
	for _, t := range at {
		longest = max(longest, t.Sub(prev))
		prev = t
	}
	return longest
}

// windowMedian returns the median of f over the windows.
func windowMedian(stats []winStat, f func(winStat) float64) float64 {
	vs := make([]float64, len(stats))
	for i, w := range stats {
		vs[i] = f(w)
	}
	return median(vs)
}

// pooled merges one latency class over the windows.
func pooled(stats []winStat, cls opClass) *hist {
	h := newHist()
	for _, w := range stats {
		h.merge(w.lat[cls])
	}
	return h
}

// clientStats sums the two clients' transport counters.
func (e *env) clientStats() transport.ClientStats {
	var sum transport.ClientStats
	for _, cl := range e.clients {
		s := cl.TransportStats()
		sum.Sent += s.Sent
		sum.Retries += s.Retries
		sum.Timeouts += s.Timeouts
		sum.Late += s.Late
		sum.DecodeErrors += s.DecodeErrors
	}
	return sum
}

// finishLoad stops the generators, audits the store and, on the closed
// loops, holds the clients to one datagram per op with nothing retried,
// timed out, late or undecodable since before was read. It returns the
// counter deltas and the ops they cover.
func (e *env) finishLoad(before transport.ClientStats, opsBefore int64) (transport.ClientStats, int64) {
	e.halt()
	e.audit()
	d := e.clientStats()
	d.Sent -= before.Sent
	d.Retries -= before.Retries
	d.Timeouts -= before.Timeouts
	d.Late -= before.Late
	d.DecodeErrors -= before.DecodeErrors
	ops := e.attempted.Load() - opsBefore
	if e.sp.loop != loopPaced {
		if int64(d.Sent) != ops || d.Retries+d.Timeouts+d.Late+d.DecodeErrors != 0 {
			e.violate("closed loop sent %d datagrams for %d ops (retries %d, timeouts %d, late %d, decode errors %d)",
				d.Sent, ops, d.Retries, d.Timeouts, d.Late, d.DecodeErrors)
		}
	}
	return d, ops
}

func (e *env) verdict(r *result) {
	r.Attempted = e.attempted.Load()
	r.Failed = e.failed.Load()
	r.Refused = e.refused.Load()
	r.Resubmits = e.resubmitted.Load()
	e.mu.Lock()
	r.Findings = append(r.Findings, e.findings...)
	e.mu.Unlock()
	r.Correct = r.Failed == 0 // every violation counts as a failure
}

// warmup is how long the load runs before the first timed window.
func warmup(seconds int) time.Duration {
	return max(time.Second, time.Duration(seconds)*time.Second/10)
}

// extraBoots is how many more times an untraced pass boots the workload's
// cluster after the measured one is closed; setup_s is the median of all
// the boots. They come last so that peak_rss_mb, read before them, belongs
// to the measured cluster alone.
const extraBoots = 4

// runUntraced measures the end-to-end metrics: tracing off, the whole of
// seconds spent in the workload's timed windows.
func runUntraced(sp spec, seed int64, seconds int) (*result, error) {
	r := &result{Workload: sp.name, Seed: seed, Seconds: seconds, Machine: readMachine()}
	e, took, err := newEnv(sp, seed)
	if err != nil {
		return nil, err
	}
	defer e.close()
	before, opsBefore := e.clientStats(), e.attempted.Load()
	e.start()
	time.Sleep(warmup(seconds))
	stats := e.segment(0, time.Duration(seconds)*time.Second, sp.loop == loopPaced)
	e.finishLoad(before, opsBefore)
	e.verdict(r)
	peakRSS := readUsage().maxRSSk / 1024
	e.close()
	setups := []float64{took.Seconds()}
	for i := 0; i < extraBoots; i++ {
		t0 := time.Now()
		cluster, clients, err := boot(sp, e.ks)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		shutdown(cluster, clients)
	}

	r.add("success_share", "share", max(0, 1-float64(r.Failed)/float64(r.Attempted)), int(r.Attempted))
	r.add("peak_rss_mb", "MB", peakRSS, 1)
	r.add("setup_s", "s", median(setups), len(setups))

	n := len(stats)
	r.addDemoted("throughput_ops_s", "ops/s", windowMedian(stats, winStat.throughput), n)
	r.addDemoted("cpu_us_per_op", "us", windowMedian(stats, winStat.cpuPerOp), n)
	for cls := opClass(0); cls < numClasses; cls++ {
		if pooled(stats, cls).count() > 0 {
			p50 := func(w winStat) float64 { return w.lat[cls].quantile(0.5) / 1e3 }
			r.addDemoted(classMetrics[cls]+"_p50_us", "us", windowMedian(stats, p50), n)
		}
	}
	if sp.loop == loopPaced {
		r.addDemoted("recover_ms", "ms", windowMedian(stats, func(w winStat) float64 { return w.recoverMs }), n)
	}
	r.Notes = append(r.Notes, fmt.Sprintf("boots, measured cluster first: %.3f s", setups))
	for i, w := range stats {
		note := fmt.Sprintf("window %d: %.0f ops/s, %.3f us CPU/op", i, w.throughput(), w.cpuPerOp())
		if sp.loop == loopPaced {
			note += fmt.Sprintf(", FailSwitch %.1f ms, Recover %.1f ms", w.failoverMs, w.recoverMs)
		}
		r.Notes = append(r.Notes, note)
	}
	return r, nil
}
