package health

import (
	"slices"
	"sync"
	"time"

	"netchain/internal/kv"
	"netchain/internal/packet"
)

// Core is the monitor's decision engine: heartbeat intake, probe
// bookkeeping and switch retirement, feeding one Detector. It performs no
// I/O and reads no clock — every verb takes the caller's timestamp — so
// the wall-clock Monitor (UDP sockets, a ticker) and the simulated
// autopilot harness (event.Sim timers) drive the same code and cannot
// drift. Safe for concurrent use.
//
// Probe echoes are credited under the impostor rule: only an echo from the
// switch that was probed counts. After failover the Algorithm 2 neighbor
// rules (and later the recovery redirect) answer traffic addressed to a
// dead switch, and crediting those echoes would suppress its fail-stop
// verdict forever.
//
// A retired switch (Forget) reaches the detector again only through
// Watch: its heartbeats are ignored, and the probes outstanding when it
// was retired can neither expire as losses nor be credited by a late echo.
type Core struct {
	det          *Detector
	monitor      packet.Addr
	probeTimeout time.Duration

	mu          sync.Mutex
	nextQID     uint64
	outstanding map[uint64]probeRec
	retired     map[packet.Addr]bool
	stats       CoreStats
}

type probeRec struct {
	sw packet.Addr
	at time.Duration
}

// CoreStats counts the monitor's traffic.
type CoreStats struct {
	Heartbeats    uint64 `metric:"netchain_monitor_heartbeats_total" help:"heartbeat frames accepted from watched switches"`
	ProbesSent    uint64 `metric:"netchain_monitor_probes_total" help:"active probes sent to learned endpoints"`
	ProbeTimeouts uint64 `metric:"netchain_monitor_probe_timeouts_total" help:"probes unanswered within the timeout"`
}

// NewCore builds the engine feeding det. monitor is the monitor's virtual
// NetChain address: the source of its probes, where switches send
// heartbeats and probe echoes. The probe cadence and the probe-loss
// timeout are the detector's probeEvery and probeLost.
func NewCore(det *Detector, monitor packet.Addr) *Core {
	return &Core{
		det:          det,
		monitor:      monitor,
		probeTimeout: det.span(probeLost),
		outstanding:  make(map[uint64]probeRec),
		retired:      make(map[packet.Addr]bool),
	}
}

// ProbeEvery is the interval at which a driver calls ProbeRound.
func (c *Core) ProbeEvery() time.Duration { return c.det.span(probeEvery) }

// Receive handles one frame delivered to the monitor at now: a heartbeat
// feeds the detector unless its switch is retired, and a probe echo is
// matched under the impostor rule (duplicates and unknown qids are
// ignored). It reports whether f was a heartbeat it accepted, from which
// the wire driver learns the switch's endpoint.
func (c *Core) Receive(f *packet.Frame, now time.Duration) (beat bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch f.NC.Op {
	case kv.OpHeartbeat:
		p, err := DecodePayload(f.NC.Value)
		if err != nil || c.retired[f.IP.Src] {
			return false // a drained switch beating until shutdown is not news
		}
		c.stats.Heartbeats++
		c.det.Heartbeat(f.IP.Src, now, p)
		return true
	case kv.OpReply:
		// An impostor echo leaves the probe outstanding, to expire as lost.
		if pr, ok := c.outstanding[f.NC.QueryID]; ok && pr.sw == f.IP.Src {
			delete(c.outstanding, f.NC.QueryID)
			c.det.ProbeReply(pr.sw, now, now-pr.at)
		}
	}
	return false
}

// ProbeRound expires the probes outstanding longer than the timeout (in
// issue order, for deterministic simulation) as losses, then issues one
// probe per target that is not retired, in target order. send receives
// each probe frame (addressed to its target) after the engine's lock is
// released, and owns it.
func (c *Core) ProbeRound(now time.Duration, targets []packet.Addr, send func(f *packet.Frame)) {
	type probe struct {
		sw  packet.Addr
		qid uint64
	}
	c.mu.Lock()
	qids := make([]uint64, 0, len(c.outstanding))
	for qid := range c.outstanding {
		qids = append(qids, qid)
	}
	slices.Sort(qids)
	for _, qid := range qids {
		if pr := c.outstanding[qid]; now-pr.at > c.probeTimeout {
			delete(c.outstanding, qid)
			c.stats.ProbeTimeouts++
			c.det.ProbeLost(pr.sw, now)
		}
	}
	issued := make([]probe, 0, len(targets))
	for _, sw := range targets {
		if c.retired[sw] {
			continue
		}
		c.nextQID++
		c.outstanding[c.nextQID] = probeRec{sw: sw, at: now}
		c.stats.ProbesSent++
		issued = append(issued, probe{sw: sw, qid: c.nextQID})
	}
	c.mu.Unlock()
	for _, p := range issued {
		f := packet.GetFrame()
		send(NewProbe(f, c.monitor, p.sw, p.qid))
	}
}

// Watch (re-)admits a switch to monitoring at now: a previous retirement
// is cleared and the detector tracks it, so silence accrues suspicion even
// before its first heartbeat.
func (c *Core) Watch(sw packet.Addr, now time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.retired, sw)
	c.det.Track(sw, now)
}

// Forget retires a switch: its outstanding probes are dropped, the
// detector forgets it, and nothing it sends is news until Watch. A
// deliberately drained switch powering off must not be "detected" and
// repaired.
func (c *Core) Forget(sw packet.Addr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retired[sw] = true
	for qid, pr := range c.outstanding {
		if pr.sw == sw {
			delete(c.outstanding, qid)
		}
	}
	c.det.Forget(sw)
}

// Stats snapshots the counters.
func (c *Core) Stats() CoreStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
