package simclient

import (
	"time"

	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/stats"
)

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

	window int
	// out is the retry core with zero retries: an open-loop source sheds a
	// lost query when it ages out rather than retransmitting it (§4.3
	// retries show up as fresh arrivals).
	out *query.Pending[struct{}]

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
	g := &Generator{
		mux:       m,
		dir:       dir,
		next:      next,
		window:    cfg.Window,
		out:       query.NewPending[struct{}](time.Duration(cfg.Timeout), 0, 0), // no retries: the jitter seed is never drawn from
		Done:      make(map[kv.Status]uint64),
		Latency:   stats.NewLatencyHistogram(),
		hostDelay: cfg.HostDelay,
	}
	g.ep.Addr = m.addr
	g.ep.Port, _ = m.Sink(g.recv)
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
	// The table is aged lazily, only where a stale entry would matter: when
	// it makes the window look full, and every few thousand sends when
	// nothing bounds the window, so lost packets cannot pile up forever.
	// Until then a slow reply still counts — rate-scaled runs serialize a
	// packet for longer than the timeout.
	now := time.Duration(g.mux.sim.Now())
	if g.window > 0 && g.out.InFlight() >= g.window {
		g.out.OnTick(now)
		if g.out.InFlight() >= g.window {
			g.Suppressed++
			return
		}
	} else if g.window == 0 && g.seq%4096 == 4095 {
		g.out.OnTick(now)
	}
	op, key, value := g.next(g.seq)
	g.seq++
	qid, err := g.out.Submit(struct{}{}, now)
	if err != nil {
		return
	}
	f, err := query.Call{Op: op, Key: key, Value: value}.Frame(g.ep, qid, g.dir(key))
	if err != nil {
		g.out.Cancel(qid)
		return
	}
	g.Sent++
	g.mux.net.Inject(g.mux.addr, f)
}

func (g *Generator) recv(f *packet.Frame) {
	rep, err := query.ParseReply(f)
	if err != nil {
		return
	}
	// Only the first reply to a query counts: under network duplication
	// (or a reply racing an aged-out entry) later copies would otherwise
	// inflate delivered throughput.
	e, ok := g.out.OnReply(rep.QueryID)
	if !ok {
		return
	}
	now := time.Duration(g.mux.sim.Now())
	g.Done[rep.Status]++
	// Charge both host stack traversals analytically.
	g.Latency.Observe(float64(event.Duration(now-e.Submitted) + 2*g.hostDelay))
	if g.Series != nil {
		g.Series.Add(now, 1)
	}
}

// OKCount returns successful completions.
func (g *Generator) OKCount() uint64 { return g.Done[kv.StatusOK] }
