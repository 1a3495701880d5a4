package simclient

import (
	"time"

	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/stats"
)

// purgeEvery bounds how many sends may pass between sweeps of the
// outstanding table when the window is unbounded, so entries for lost
// packets cannot accumulate without bound.
const purgeEvery = 4096

// Generator is an open-loop traffic source: arrivals fire at a fixed rate
// without waiting for replies — the DPDK client servers of §8.1 that pump
// 20.5 MQPS regardless of outcomes (lost queries are simply retried as new
// operations, §4.3, so delivered throughput = offered × success). A
// Config.Window caps outstanding queries, matching the real transport's
// in-flight window: arrivals that land on a full pipe are shed and counted
// in Suppressed, which makes window=1 a serialized closed loop and larger
// windows a saturating pipeline, exactly the Fig. 9(e) sweep.
type Generator struct {
	mux  *Mux
	dir  Directory
	next func(n uint64) (op kv.Op, key kv.Key, value kv.Value)
	ep   query.Endpoint

	running  bool
	interval float64 // ns between sends
	nextAt   float64
	seq      uint64

	window  int
	timeout event.Time
	out     map[uint64]event.Time // qid -> send time of outstanding queries

	// Results.
	Sent       uint64
	Suppressed uint64 // arrivals shed because the outstanding window was full
	Done       map[kv.Status]uint64
	Latency    *stats.Histogram
	Series     *stats.TimeSeries // optional completions-over-time (Fig. 10)
	hostDelay  event.Time
}

// NewGenerator binds an open-loop source to the mux with its own port.
// next produces the n-th query.
func (m *Mux) NewGenerator(cfg Config, dir Directory,
	next func(n uint64) (kv.Op, kv.Key, kv.Value)) *Generator {
	port := m.nextPort
	m.nextPort++
	timeout := cfg.Timeout
	if timeout == 0 {
		timeout = DefaultConfig().Timeout
	}
	g := &Generator{
		mux:       m,
		dir:       dir,
		next:      next,
		ep:        query.Endpoint{Addr: m.addr, Port: port},
		window:    cfg.Window,
		timeout:   timeout,
		out:       make(map[uint64]event.Time),
		Done:      make(map[kv.Status]uint64),
		Latency:   stats.NewLatencyHistogram(),
		hostDelay: cfg.HostDelay,
	}
	m.sinks[port] = g.recv
	return g
}

// Start begins sending at rate queries/second until Stop.
func (g *Generator) Start(rate float64) {
	if rate <= 0 {
		panic("simclient: non-positive generator rate")
	}
	g.interval = 1e9 / rate
	g.running = true
	g.nextAt = float64(g.mux.sim.Now())
	g.pump()
}

// Stop halts the send loop; in-flight replies still count.
func (g *Generator) Stop() { g.running = false }

// Outstanding returns the number of queries awaiting a reply (lost ones
// age out after the timeout).
func (g *Generator) Outstanding() int { return len(g.out) }

func (g *Generator) pump() {
	if !g.running {
		return
	}
	g.sendOne()
	g.nextAt += g.interval
	delay := event.Time(g.nextAt) - g.mux.sim.Now()
	if delay < 0 {
		delay = 0
	}
	g.mux.sim.After(delay, g.pump)
}

func (g *Generator) sendOne() {
	if g.window > 0 && len(g.out) >= g.window {
		g.expire()
		if len(g.out) >= g.window {
			g.Suppressed++
			return
		}
	} else if g.window == 0 && g.seq%purgeEvery == purgeEvery-1 {
		g.expire()
	}
	op, key, value := g.next(g.seq)
	g.seq++
	qid := g.seq // 1-based, unique per arrival
	f, err := query.Call{Op: op, Key: key, Value: value}.Frame(g.ep, qid, g.dir(key))
	if err != nil {
		return
	}
	g.Sent++
	g.out[qid] = g.mux.sim.Now()
	g.mux.net.Inject(g.mux.addr, f)
}

// expire frees window slots held by queries whose packets were lost: an
// open-loop source sheds them rather than retrying (§4.3 retries show up
// as fresh arrivals).
func (g *Generator) expire() {
	now := g.mux.sim.Now()
	for qid, start := range g.out {
		if now-start >= g.timeout {
			delete(g.out, qid)
		}
	}
}

func (g *Generator) recv(f *packet.Frame) {
	rep, err := query.ParseReply(f)
	if err != nil {
		return
	}
	// Only the first reply to a query counts: under network duplication
	// (or a reply racing an aged-out retry) later copies would otherwise
	// inflate delivered throughput.
	start, ok := g.out[rep.QueryID]
	if !ok {
		return
	}
	delete(g.out, rep.QueryID)
	now := g.mux.sim.Now()
	g.Done[rep.Status]++
	// Charge both host stack traversals analytically.
	g.Latency.Observe(float64(now - start + 2*g.hostDelay))
	if g.Series != nil {
		g.Series.Add(time.Duration(now), 1)
	}
}

// OKCount returns successful completions.
func (g *Generator) OKCount() uint64 { return g.Done[kv.StatusOK] }
