package health

import (
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
	"sync"
	"time"

	"netchain/internal/packet"
	"netchain/internal/telemetry"
)

// FaultPipe is the wire-nemesis hook the monitor's sockets honor. It
// mirrors transport.FaultPipe structurally — health sits below transport
// in the import graph, so the interface is restated here and the
// faultconn injector's Pipe satisfies both.
type FaultPipe interface {
	Egress(buf []byte, ep *net.UDPAddr, send func(buf []byte, ep *net.UDPAddr)) bool
	Ingress(buf []byte) bool
}

// MonitorOption tunes a Monitor.
type MonitorOption func(*Monitor)

// WithMonitorFaults routes every heartbeat the monitor receives and
// every probe it sends through the wire nemesis — the path that proves
// φ-accrual verdicts hold under gray loss and burst windows on real
// sockets.
func WithMonitorFaults(p FaultPipe) MonitorOption {
	return func(m *Monitor) { m.fault = p }
}

// Monitor is the wall-clock driver of a Core: a UDP endpoint that
// receives switch heartbeats, learns each switch's dataplane endpoint from
// the datagram source address (zero extra controller configuration), and
// optionally probes every learned switch's forwarding path on a ticker.
// Its timestamps are a monotonic since-start timeline; every decision —
// what a heartbeat or echo means, which probes are lost, who is retired —
// is the Core's, which the simulated autopilot harness drives too.
type Monitor struct {
	core  *Core
	conn  *net.UDPConn
	start time.Time
	fault FaultPipe

	mu  sync.Mutex
	eps map[packet.Addr]*net.UDPAddr

	closed   chan struct{}
	recvDone chan struct{}
	probeWG  sync.WaitGroup
}

// NewMonitor binds the health endpoint and starts receiving. virt is the
// monitor's virtual NetChain address (what switches address heartbeats
// and probe replies to).
func NewMonitor(bind string, virt packet.Addr, det *Detector, opts ...MonitorOption) (*Monitor, error) {
	laddr, err := net.ResolveUDPAddr("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("health: resolve %q: %w", bind, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("health: listen: %w", err)
	}
	m := &Monitor{
		core:     NewCore(det, virt),
		conn:     conn,
		start:    time.Now(),
		eps:      make(map[packet.Addr]*net.UDPAddr),
		closed:   make(chan struct{}),
		recvDone: make(chan struct{}),
	}
	for _, o := range opts {
		o(m)
	}
	go m.recvLoop()
	return m, nil
}

// Endpoint returns the monitor's bound UDP address (what netchaind's
// -monitor flag points at).
func (m *Monitor) Endpoint() *net.UDPAddr { return m.conn.LocalAddr().(*net.UDPAddr) }

// Now returns the monitor's monotonic timestamp — the timeline its
// Detector observations use.
func (m *Monitor) Now() time.Duration { return time.Since(m.start) }

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
func (m *Monitor) Watch(sw packet.Addr) { m.core.Watch(sw, m.Now()) }

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

func (m *Monitor) recvLoop() {
	defer close(m.recvDone)
	buf := make([]byte, 64*1024)
	var f packet.Frame
	for {
		sz, src, err := m.conn.ReadFromUDP(buf)
		if err != nil {
			// Only a closed socket ends monitoring. A transient error — an
			// ICMP refusal bubbling up after a probed switch died, which is
			// exactly when the monitor matters most — must not blind it.
			if errors.Is(err, net.ErrClosed) {
				return
			}
			time.Sleep(20 * time.Microsecond)
			continue
		}
		if m.fault != nil && !m.fault.Ingress(buf[:sz]) {
			continue
		}
		// A torn frame only loses the undecodable tail; heartbeats decoded
		// before the corruption still land.
		_, _ = packet.DecodeBatch(&f, buf[:sz], func(f *packet.Frame) {
			// Under m.mu, so a concurrent Forget cannot be followed by
			// re-learning the retired switch's endpoint.
			m.mu.Lock()
			if m.core.Receive(f, m.Now()) {
				m.eps[f.IP.Src] = src
			}
			m.mu.Unlock()
		})
	}
}

// MonitorStats is the monitor's metrics ledger: the engine's traffic
// counters and how many switches it currently suspects.
type MonitorStats struct {
	CoreStats
	Suspects int `metric:"netchain_monitor_suspects,gauge" help:"switches whose verdict is currently not healthy"`
}

// Stats snapshots the monitor. A suspect is a switch whose verdict is
// neither Healthy nor Unknown.
func (m *Monitor) Stats() MonitorStats {
	st := MonitorStats{CoreStats: m.core.Stats()}
	for _, sh := range m.core.det.Snapshot(m.Now()) {
		if sh.Verdict != Healthy && sh.Verdict != Unknown {
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
	m.core.ProbeRound(m.Now(), slices.Sorted(maps.Keys(eps)), func(f *packet.Frame) {
		defer packet.PutFrame(f)
		ep := eps[f.IP.Dst]
		out, err := f.Serialize(buf[:0])
		if err != nil {
			return
		}
		buf = out
		if m.fault != nil && !m.fault.Egress(out, ep, m.rawSend) {
			return
		}
		_, _ = m.conn.WriteToUDP(out, ep)
	})
}

// rawSend is the monitor's single-datagram sender, used by the fault
// pipe for delayed probe delivery (probes must leave the monitor's own
// socket so replies come back to it).
func (m *Monitor) rawSend(b []byte, ep *net.UDPAddr) { _, _ = m.conn.WriteToUDP(b, ep) }
