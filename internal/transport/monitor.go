package transport

import (
	"fmt"
	"maps"
	"net"
	"slices"
	"sync"
	"time"

	"netchain/internal/event"
	"netchain/internal/health"
	"netchain/internal/packet"
	"netchain/internal/telemetry"
)

// MonitorOption tunes a Monitor.
type MonitorOption func(*monitorConfig)

type monitorConfig struct {
	fault FaultPipe
}

// WithMonitorFaults routes every heartbeat the monitor receives and
// every probe it sends through the wire nemesis — the path that proves
// φ-accrual verdicts hold under gray loss and burst windows on real
// sockets.
func WithMonitorFaults(p FaultPipe) MonitorOption {
	return func(c *monitorConfig) { c.fault = p }
}

// Monitor is the wall-clock driver of a health.Core: a UDP endpoint that
// receives switch heartbeats, learns each switch's dataplane endpoint from
// the datagram source address (zero extra controller configuration), and
// optionally probes every learned switch's forwarding path on a ticker.
// Its timestamps are its Clock, a wall clock started with it; every decision —
// what a heartbeat or echo means, which probes are lost, who is retired —
// is the Core's, which the simulated autopilot harness drives too.
type Monitor struct {
	core *health.Core
	det  *health.Detector
	conn *BatchConn
	clk  *event.Wall

	mu  sync.Mutex
	eps map[packet.Addr]*net.UDPAddr

	closed   chan struct{}
	recvDone chan struct{}
	probeWG  sync.WaitGroup
}

// NewMonitor binds the health endpoint and starts receiving. virt is the
// monitor's virtual NetChain address (what switches address heartbeats
// and probe replies to).
func NewMonitor(bind string, virt packet.Addr, det *health.Detector, opts ...MonitorOption) (*Monitor, error) {
	var cfg monitorConfig
	for _, o := range opts {
		o(&cfg)
	}
	conn, err := Listen(bind, 0, cfg.fault)
	if err != nil {
		return nil, fmt.Errorf("transport: monitor listen: %w", err)
	}
	m := &Monitor{
		core:     health.NewCore(det, virt),
		det:      det,
		conn:     conn,
		clk:      event.NewWall(1),
		eps:      make(map[packet.Addr]*net.UDPAddr),
		closed:   make(chan struct{}),
		recvDone: make(chan struct{}),
	}
	go m.recvLoop()
	return m, nil
}

// Endpoint returns the monitor's bound UDP address (what netchaind's
// -monitor flag points at).
func (m *Monitor) Endpoint() *net.UDPAddr { return m.conn.LocalAddr() }

// Clock returns the monitor's wall clock — the timeline its Detector
// observations use, and the one an autopilot over that Detector runs on.
func (m *Monitor) Clock() event.Clock { return m.clk }

// Forget retires a switch (Core.Forget) and drops its learned endpoint.
// The drained netchaind usually keeps beating until the operator shuts it
// down; those heartbeats are ignored rather than re-learned.
func (m *Monitor) Forget(sw packet.Addr) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.eps, sw)
	m.core.Forget(sw)
}

// Watch (re-)admits a switch to monitoring (Core.Watch) — the add-switch
// path clears a previous retirement so a readmitted box is watched again.
func (m *Monitor) Watch(sw packet.Addr) { m.core.Watch(sw, m.clk.Now()) }

// Close stops the monitor.
func (m *Monitor) Close() error {
	select {
	case <-m.closed:
		return nil
	default:
	}
	close(m.closed)
	err := m.conn.Close()
	<-m.recvDone
	m.probeWG.Wait()
	return err
}

// recvLoop reads one datagram at a time: the source endpoint of each
// heartbeat is what the monitor learns, and the batched ring does not
// capture it. Only a closed socket ends monitoring — a transient error,
// such as an ICMP refusal after a probed switch died, which is exactly
// when the monitor matters most, must not blind it.
func (m *Monitor) recvLoop() {
	defer close(m.recvDone)
	buf := make([]byte, 64*1024)
	var f packet.Frame
	m.conn.ReadLoop(func() error {
		sz, src, err := m.conn.ReadFrom(buf)
		if err != nil {
			return err
		}
		// A torn frame only loses the undecodable tail; heartbeats decoded
		// before the corruption still land.
		_, _ = packet.DecodeBatch(&f, buf[:sz], func(f *packet.Frame) {
			// Under m.mu, so a concurrent Forget cannot be followed by
			// re-learning the retired switch's endpoint.
			m.mu.Lock()
			if m.core.Receive(f, m.clk.Now()) {
				m.eps[f.IP.Src] = src
			}
			m.mu.Unlock()
		})
		return nil
	}, nil)
}

// MonitorStats is the monitor's metrics ledger: the engine's traffic
// counters and how many switches it currently suspects.
type MonitorStats struct {
	health.CoreStats
	Suspects int `metric:"netchain_monitor_suspects,gauge" help:"switches whose verdict is currently not healthy"`
}

// Stats snapshots the monitor. A suspect is a switch whose verdict is
// neither Healthy nor Unknown.
func (m *Monitor) Stats() MonitorStats {
	st := MonitorStats{CoreStats: m.core.Stats()}
	for _, sh := range m.det.Snapshot(m.clk.Now()) {
		if sh.Verdict != health.Healthy && sh.Verdict != health.Unknown {
			st.Suspects++
		}
	}
	return st
}

// RegisterMetrics exports the monitor's ledger (Stats) through reg.
func (m *Monitor) RegisterMetrics(reg *telemetry.Registry) {
	reg.Export(func() any { return m.Stats() })
}

// StartProbes begins probing every learned switch endpoint at the Core's
// cadence (Core.ProbeEvery). Runs until Close.
func (m *Monitor) StartProbes() {
	m.probeWG.Add(1)
	go func() {
		defer m.probeWG.Done()
		tick := time.NewTicker(m.core.ProbeEvery())
		defer tick.Stop()
		for {
			select {
			case <-m.closed:
				return
			case <-tick.C:
				m.probeOnce()
			}
		}
	}()
}

func (m *Monitor) probeOnce() {
	m.mu.Lock()
	eps := maps.Clone(m.eps)
	m.mu.Unlock()
	var buf []byte
	m.core.ProbeRound(m.clk.Now(), slices.Sorted(maps.Keys(eps)), func(f *packet.Frame) {
		defer packet.PutFrame(f)
		out, err := f.Serialize(buf[:0])
		if err != nil {
			return
		}
		buf = out
		_ = m.conn.WriteTo(out, eps[f.IP.Dst]) // a lost probe is the Core's to judge
	})
}
