// Package faultconn is the wire-side nemesis: a deterministic, seedable
// fault-injection layer at the real socket boundary. Where internal/netsim
// perturbs a simulated network, faultconn perturbs the actual datagrams a
// live-UDP cluster exchanges over loopback. Only the applying is its own:
// the fault state is a netsim.Faults, changed only by the grammar's own
// Fault.Inject/Heal (the injector is a netsim.Target), and every frame's
// fate comes from netsim.LinkFault.Decide. So one Schedule runs through the
// same inject/heal rules on either substrate (TestOverlapParity), and a
// seeded run produces the same fault-decision stream on both (pinned by
// FuzzScheduleWire).
//
// The injector hands out one Pipe per socket owner; the Pipe implements
// transport.FaultPipe (and, structurally, health.FaultPipe), so it slots
// into every real-path socket the transport exposes: switch ingest
// workers, the client, the health monitor's probe socket, and the relay's
// ingest and control sockets. Egress faults are judged per serialized
// frame before coalescing; delayed and duplicated frames are re-injected
// through the owner's own raw sender so source-learning receivers (the
// monitor's endpoint table, the relay's lease table) never observe a
// foreign source address.
//
// Determinism: every probabilistic decision draws from a per-directed-pair
// rand.Rand seeded as mix(seed, from, to). The decision stream for a
// direction is therefore a pure function of (seed, frame order on that
// direction) — independent of wall-clock interleaving across directions —
// which is what makes fingerprints reproducible on a real scheduler.
package faultconn

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"netchain/internal/event"
	"netchain/internal/netsim"
	"netchain/internal/packet"
)

// pair is one directed traversal between virtual addresses.
type pair struct{ from, to packet.Addr }

// Stats counts what the injector did to live traffic.
type Stats struct {
	ChaosDrops     uint64 // probabilistic link-fault drops
	BurstDrops     uint64 // drops inside burst-loss windows
	PartitionDrops uint64 // frames cut by an asymmetric partition
	GrayDrops      uint64 // ingress drops at gray-degraded nodes
	FailDrops      uint64 // frames from/to fail-stopped nodes
	Delayed        uint64 // frames held back (jitter / reorder hold)
	DupCopies      uint64 // extra copies injected
	Reordered      uint64 // frames held specifically for reordering
	GrayStalls     uint64 // ingress stalls applied at gray nodes
}

// Injector owns the fault state for one live cluster and mints Pipes.
type Injector struct {
	seed  int64
	scale float64    // wall-clock seconds per simulated second
	lat   event.Time // nominal per-hop latency (sim units) for Decide defaults
	svc   event.Time // per-frame service budget (sim units) Gray.SlowFactor multiplies

	start time.Time

	mu      sync.Mutex
	eps     map[uint64]packet.Addr // "ip:port" key → owning virtual addr
	faults  netsim.Faults
	dead    map[packet.Addr]bool // fail-stopped nodes, blackholed
	dirs    map[pair]*rand.Rand
	grayRng map[packet.Addr]*rand.Rand
	timers  []*time.Timer
	log     []string
	stopped bool
	trace   func(from, to packet.Addr, dec netsim.FaultDecision)

	chaosDrops atomic.Uint64
	burstDrops atomic.Uint64
	partDrops  atomic.Uint64
	grayDrops  atomic.Uint64
	failDrops  atomic.Uint64
	delayed    atomic.Uint64
	dupCopies  atomic.Uint64
	reordered  atomic.Uint64
	grayStalls atomic.Uint64
}

// Option tunes an Injector.
type Option func(*Injector)

// WithTimeScale stretches schedule time onto the wall clock: a step at
// simulated t=1ms with scale 20 fires 20ms after the injector starts, and
// fault delays (jitter, reorder hold-back, gray stalls) stretch the same
// way. Live clusters need room the simulator doesn't: a simulated
// microsecond-scale schedule would be over before one real RTT.
func WithTimeScale(s float64) Option {
	return func(i *Injector) {
		if s > 0 {
			i.scale = s
		}
	}
}

// WithBaseLatency sets the nominal per-hop latency (in schedule time
// units) used for Decide's ReorderDelay/DupDelay defaults. Default 10µs.
func WithBaseLatency(d time.Duration) Option {
	return func(i *Injector) {
		if d > 0 {
			i.lat = event.Time(d)
		}
	}
}

// WithGrayServiceBudget sets the per-frame service budget (in schedule
// time units) that Gray.SlowFactor multiplies at a gray node's ingest.
// Default 1ns — the simulator's per-frame service at line rate — so the
// schedules' large SlowFactors translate to microsecond-scale stalls, a
// degraded node, not a frozen one.
func WithGrayServiceBudget(d time.Duration) Option {
	return func(i *Injector) {
		if d > 0 {
			i.svc = event.Time(d)
		}
	}
}

// WithDecisionTrace installs a hook observing every fault decision in
// order — the sim/wire parity fuzz target reads the stream back.
func WithDecisionTrace(fn func(from, to packet.Addr, dec netsim.FaultDecision)) Option {
	return func(i *Injector) { i.trace = fn }
}

// New builds an injector. The same seed with the same per-direction frame
// order reproduces the same decisions.
func New(seed int64, opts ...Option) *Injector {
	i := &Injector{
		seed:    seed,
		scale:   1,
		lat:     event.Time(10 * time.Microsecond),
		svc:     event.Time(time.Nanosecond),
		start:   time.Now(),
		eps:     make(map[uint64]packet.Addr),
		dead:    make(map[packet.Addr]bool),
		dirs:    make(map[pair]*rand.Rand),
		grayRng: make(map[packet.Addr]*rand.Rand),
	}
	for _, o := range opts {
		o(i)
	}
	return i
}

// RegisterEndpoint records that datagrams addressed to ep belong to the
// node with virtual address owner — the injector resolves the "to" side
// of directed link faults and fail-stop blackholes through this table.
// Unregistered endpoints resolve to address 0 (still a deterministic
// direction, just not a targetable one).
func (i *Injector) RegisterEndpoint(owner packet.Addr, ep *net.UDPAddr) {
	k, ok := epKey(ep)
	if !ok {
		return
	}
	i.mu.Lock()
	i.eps[k] = owner
	i.mu.Unlock()
}

// epKey packs an IPv4 UDP endpoint into an allocation-free map key.
func epKey(ep *net.UDPAddr) (uint64, bool) {
	if ep == nil {
		return 0, false
	}
	ip4 := ep.IP.To4()
	if ip4 == nil {
		return 0, false
	}
	return uint64(binary.BigEndian.Uint32(ip4))<<16 | uint64(uint16(ep.Port)), true
}

// dirSeed derives the per-direction rng seed — a splitmix-style hash so
// nearby (seed, from, to) triples land far apart.
func dirSeed(seed int64, from, to packet.Addr) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(from)<<32 ^ uint64(to)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int64(h)
}

func (i *Injector) dirLocked(from, to packet.Addr) *rand.Rand {
	k := pair{from, to}
	rng := i.dirs[k]
	if rng == nil {
		rng = rand.New(rand.NewSource(dirSeed(i.seed, from, to)))
		i.dirs[k] = rng
	}
	return rng
}

func (i *Injector) grayRngLocked(a packet.Addr) *rand.Rand {
	rng := i.grayRng[a]
	if rng == nil {
		rng = rand.New(rand.NewSource(dirSeed(i.seed, a, a)))
		i.grayRng[a] = rng
	}
	return rng
}

// simNow maps the wall clock back into schedule time (burst-loss windows
// are clock-driven functions of it).
func (i *Injector) simNow() event.Time {
	return event.Time(float64(time.Since(i.start)) / i.scale)
}

// wall stretches a schedule-time duration onto the wall clock.
func (i *Injector) wall(d event.Time) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(float64(d) * i.scale)
}

// afterWall schedules fn on the wall clock, tracked so Stop cancels it.
func (i *Injector) afterWall(d time.Duration, fn func()) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.stopped {
		return
	}
	t := time.AfterFunc(d, func() {
		i.mu.Lock()
		stopped := i.stopped
		i.mu.Unlock()
		if !stopped {
			fn()
		}
	})
	i.timers = append(i.timers, t)
}

// ResetClock restarts the injector's schedule clock at "now". Harnesses
// boot and seed a cluster through already-minted pipes, then reset so a
// schedule's t=0 is the start of the measured workload, not the start of
// cluster construction.
func (i *Injector) ResetClock() {
	i.mu.Lock()
	i.start = time.Now()
	i.mu.Unlock()
}

// Stop quiesces the injector: pending delayed frames and schedule steps
// are cancelled and every Pipe becomes a transparent pass-through.
func (i *Injector) Stop() {
	i.mu.Lock()
	i.stopped = true
	timers := i.timers
	i.timers = nil
	i.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
}

// Stats snapshots the injection counters.
func (i *Injector) Stats() Stats {
	return Stats{
		ChaosDrops:     i.chaosDrops.Load(),
		BurstDrops:     i.burstDrops.Load(),
		PartitionDrops: i.partDrops.Load(),
		GrayDrops:      i.grayDrops.Load(),
		FailDrops:      i.failDrops.Load(),
		Delayed:        i.delayed.Load(),
		DupCopies:      i.dupCopies.Load(),
		Reordered:      i.reordered.Load(),
		GrayStalls:     i.grayStalls.Load(),
	}
}

// Log returns the timestamped inject/heal lines recorded so far.
func (i *Injector) Log() []string {
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]string(nil), i.log...)
}

func (i *Injector) logf(format string, args ...any) {
	i.log = append(i.log, fmt.Sprintf("t=%-12v %s", time.Since(i.start).Round(time.Microsecond), fmt.Sprintf(format, args...)))
}

// ---------------------------------------------------------------------------
// Fault state: netsim's Faults, changed only by netsim's Fault values.

// Inject installs f on the live wire now, through the same rules a
// simulated network runs it by.
func (i *Injector) Inject(f netsim.Fault) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	return f.Inject(locked{i})
}

// Heal removes what f installed, unless a later step replaced it.
func (i *Injector) Heal(f netsim.Fault) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	return f.Heal(locked{i})
}

// locked is the injector as a netsim.Target, used only while i.mu is held.
// The wire has no topology, so any address pair is a link and any address
// a node; a fail-stopped node is blackholed at its own sockets.
type locked struct{ i *Injector }

func (l locked) Faults() *netsim.Faults { return &l.i.faults }

func (l locked) SetLinkFault(from, to packet.Addr, f netsim.LinkFault) error {
	l.i.faults.SetLink(from, to, f)
	return nil
}

func (l locked) SetGray(addr packet.Addr, g netsim.Gray) error {
	l.i.faults.SetGray(addr, g)
	return nil
}

func (l locked) FailSwitch(addr packet.Addr) error {
	l.i.dead[addr] = true
	return nil
}

func (l locked) RestoreSwitch(addr packet.Addr) error {
	delete(l.i.dead, addr)
	return nil
}

// ---------------------------------------------------------------------------
// Pipe: the per-socket-owner fault filter.

// Pipe binds the injector to one socket owner. It satisfies
// transport.FaultPipe and health's structural copy of it.
type Pipe struct {
	inj  *Injector
	self packet.Addr
}

// Pipe mints the fault filter for the node with virtual address self.
func (i *Injector) Pipe(self packet.Addr) *Pipe { return &Pipe{inj: i, self: self} }

// Egress judges one serialized frame about to leave self toward ep.
// Returns true to let the caller send it unmodified; false when the
// injector consumed it — dropped, or held and re-injected later through
// send (the owner's raw sender, so the source address stays the owner's).
func (p *Pipe) Egress(buf []byte, ep *net.UDPAddr, send func([]byte, *net.UDPAddr)) bool {
	i := p.inj
	i.mu.Lock()
	if i.stopped {
		i.mu.Unlock()
		return true
	}
	if i.dead[p.self] {
		i.mu.Unlock()
		i.failDrops.Add(1)
		return false
	}
	var to packet.Addr
	if k, ok := epKey(ep); ok {
		to = i.eps[k]
	}
	if to != 0 && i.dead[to] {
		i.mu.Unlock()
		i.failDrops.Add(1)
		return false
	}
	if src, dst, ok := packet.PeekAddrs(buf); ok && i.faults.Cut(src, dst) {
		i.mu.Unlock()
		i.partDrops.Add(1)
		return false
	}
	flt, faulty := i.faults.Link(p.self, to)
	if !faulty {
		i.mu.Unlock()
		return true
	}
	dec := flt.Decide(i.dirLocked(p.self, to), i.simNow(), i.lat)
	if i.trace != nil {
		i.trace(p.self, to, dec)
	}
	i.mu.Unlock()

	if dec.Drop {
		if dec.Burst {
			i.burstDrops.Add(1)
		} else {
			i.chaosDrops.Add(1)
		}
		return false
	}
	if dec.Reordered {
		i.reordered.Add(1)
	}
	if dec.Dup {
		// The duplicate trails the (possibly delayed) original, as in the
		// simulator's transmit path.
		cp := append([]byte(nil), buf...)
		i.afterWall(i.wall(dec.Delay+dec.DupDelay), func() { send(cp, ep) })
		i.dupCopies.Add(1)
	}
	if dec.Delay > 0 {
		cp := append([]byte(nil), buf...)
		i.afterWall(i.wall(dec.Delay), func() { send(cp, ep) })
		i.delayed.Add(1)
		return false
	}
	return true
}

// Ingress judges one received datagram before decode; false drops it.
// Gray degradation lives here: the gray node's own intake is what slows
// down and leaks, exactly as netsim applies Gray at the arrival node.
func (p *Pipe) Ingress(buf []byte) bool {
	i := p.inj
	i.mu.Lock()
	if i.stopped {
		i.mu.Unlock()
		return true
	}
	if i.dead[p.self] {
		i.mu.Unlock()
		i.failDrops.Add(1)
		return false
	}
	g, grayed := i.faults.Gray(p.self)
	if !grayed {
		i.mu.Unlock()
		return true
	}
	drop := g.Loss > 0 && i.grayRngLocked(p.self).Float64() < g.Loss
	i.mu.Unlock()
	if drop {
		i.grayDrops.Add(1)
		return false
	}
	stall := i.wall(g.ExtraDelay)
	if g.SlowFactor > 1 {
		// The sim multiplies the node's per-frame service budget; on the
		// wire the scaled budget stands in for it and the ingest goroutine
		// stalls by the surcharge — real slowness, real backlog.
		stall += time.Duration(float64(i.wall(i.svc)) * (g.SlowFactor - 1))
	}
	if stall > 0 {
		i.grayStalls.Add(1)
		time.Sleep(stall)
	}
	return true
}
