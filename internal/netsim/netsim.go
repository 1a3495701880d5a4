// Package netsim is a deterministic discrete-event datacenter network
// simulator: the evaluation substrate standing in for the paper's hardware
// testbed (four Tofino switches + four servers, Fig. 8) and for the
// spine-leaf simulations of §8.3.
//
// The model captures exactly what the paper's results depend on:
//
//   - per-switch packet budgets (a Tofino processes ~4 BQPS; every
//     traversal — transit or NetChain processing — consumes budget, and
//     recirculated big values consume extra passes),
//   - constant sub-microsecond switch processing delay,
//   - link propagation latency,
//   - random loss injection (Fig. 9(d)),
//   - underlay L3 routing: shortest path by destination IP with
//     deterministic tie-breaks and per-node route overrides (the paper
//     pins read and write paths through different switches in §8.4).
//
// Because all reported quantities are ratios of capacities, the Scale knob
// divides every rate to keep event counts tractable; shapes are preserved.
package netsim

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"netchain/internal/core"
	"netchain/internal/event"
	"netchain/internal/packet"
)

// Kind distinguishes node roles.
type Kind uint8

const (
	// KindSwitch forwards traffic and may run the NetChain dataplane.
	KindSwitch Kind = iota
	// KindHost terminates traffic (clients, baseline servers).
	KindHost
)

// NodeConfig sets a node's performance envelope.
type NodeConfig struct {
	// Rate is the packet budget in packets/second; 0 means infinite.
	Rate float64
	// ProcDelay is the fixed per-packet processing latency.
	ProcDelay event.Time
	// LossRate drops arriving packets with this probability (Fig. 9(d)
	// injects loss "to each switch").
	LossRate float64
	// MaxQueue bounds queueing delay; packets that would wait longer are
	// tail-dropped. 0 means a generous default (1 ms).
	MaxQueue event.Time
}

// Stats aggregates network-wide counters.
type Stats struct {
	Delivered  uint64 // frames handed to hosts
	Hops       uint64 // node traversals
	LossDrops  uint64 // random loss
	QueueDrops uint64 // tail drops at saturated nodes
	FailDrops  uint64 // frames arriving at failed switches
	RouteDrops uint64 // no route / TTL expiry (+ every switch's core.Stats count)
	RuleDrops  uint64 // dropped by recovery stop rules (Σ core.Stats)
	StaleDrops uint64 // stale chain writes dropped by the dataplane (Σ WritesStale)

	// Nemesis counters (see nemesis.go). The determinism regression test
	// pins these byte-for-byte across runs of the same seed.
	ChaosDrops     uint64 // frames dropped by a LinkFault.Drop
	DupCopies      uint64 // extra frame copies injected by LinkFault.Dup
	Reordered      uint64 // frames held back by LinkFault.Reorder
	PartitionDrops uint64 // frames dropped by an asymmetric partition
	BurstDrops     uint64 // frames dropped inside a burst-loss window
	GrayDrops      uint64 // frames lost at a gray-degraded switch

	// LinkDrops counts frames tail-dropped at a capacity-metered link whose
	// serialization backlog exceeded the link's queue bound (transit
	// congestion on multi-tier fabrics; see SetLinkCapacity).
	LinkDrops uint64

	// Multicast fan-out counters (push-watch relay tier): McastEgress is
	// frames entering replication (the relay's cost — independent of
	// membership), McastCopies the per-member deliveries the network
	// fabricated from them.
	McastEgress uint64
	McastCopies uint64
}

// linkState is one direction of a capacity-metered link. Links are
// unmetered by default (the Fig. 8 testbed's behavior is unchanged);
// fabrics call SetLinkCapacity to give inter-switch links a packet budget,
// which is what makes transit congestion — queueing delay and tail drops
// on high-betweenness links — observable at all.
type linkState struct {
	rate      float64    // packets/second budget (> 0)
	maxQueue  event.Time // backlog bound before tail drop
	busyUntil event.Time // serialization horizon
	load      uint64     // frames carried
	drops     uint64     // frames tail-dropped here
}

type node struct {
	addr      packet.Addr
	kind      Kind
	cfg       NodeConfig
	sw        *core.Switch // nil for hosts
	recv      func(*packet.Frame)
	busyUntil event.Time
	failed    bool
	links     []packet.Addr // neighbors

	// Node-local observables (what a real switch agent reads off its
	// ASIC counters for heartbeat payloads): frames discarded at this
	// node and frames admitted for processing.
	drops     uint64
	processed uint64
}

type routeKey struct {
	at, dst packet.Addr
}

// Network is the simulated fabric.
type Network struct {
	Sim   *event.Sim
	rng   *rand.Rand
	nodes map[packet.Addr]*node
	// linkLatency[{a,b}] with a<b
	latency map[routeKey]event.Time
	// hops[{at, dst}] is every neighbor of at one hop closer to dst, in
	// address order (ComputeRoutes).
	hops     map[routeKey][]packet.Addr
	override map[routeKey]packet.Addr
	stats    Stats

	// ecmp (multi-tier fabrics) makes forwarding pick among the equal-cost
	// hops by a deterministic flow hash on (src, dst). Off, every flow
	// takes the first hop, so the testbed's single-path routing (and every
	// fingerprint built on it) is unchanged.
	ecmp bool

	// links holds per-direction capacity meters, keyed by directed
	// {from, to}; absent means unmetered.
	links map[routeKey]*linkState

	// Nemesis state (nemesis.go), changed only by Fault.Inject/Heal.
	faults Faults

	// Multicast group membership for the push-watch relay tier: frames
	// addressed to a class-D address replicate to every joined member
	// (dst rewritten per member), each copy taking the normal unicast
	// path — so nemesis faults, congestion and loss apply per delivery
	// path exactly as a real IGMP tree's last hops would.
	mcast map[packet.Addr][]mcastMember

	switches []*core.Switch // every switch ever added: Stats sums their drops
	sink     packet.Addr    // where tails publish commit events (zero: nowhere)
	ev       packet.Frame   // the commit event Step fills
}

// mcastMember is one (host, UDP port) multicast group member.
type mcastMember struct {
	addr packet.Addr
	port uint16
}

// New creates an empty network over the given simulator. seed drives loss
// and ECMP randomness deterministically.
func New(sim *event.Sim, seed int64) *Network {
	return &Network{
		Sim:      sim,
		rng:      rand.New(rand.NewSource(seed)),
		nodes:    make(map[packet.Addr]*node),
		latency:  make(map[routeKey]event.Time),
		hops:     make(map[routeKey][]packet.Addr),
		override: make(map[routeKey]packet.Addr),
		links:    make(map[routeKey]*linkState),
		mcast:    make(map[packet.Addr][]mcastMember),
	}
}

// SetEventSink makes every switch publish its chain-tail commits as
// OpEvent frames toward relay, a host: each leaves the committing switch
// (through its own ingest, budget and links) just before the reply does.
func (n *Network) SetEventSink(relay packet.Addr) { n.sink = relay }

// JoinGroup subscribes a host endpoint (member address + UDP destination
// port) to a multicast group address. Frames forwarded to g replicate to
// every member with the destination rewritten, one independent delivery
// path each.
func (n *Network) JoinGroup(g packet.Addr, member packet.Addr, port uint16) error {
	if !g.IsMulticast() {
		return fmt.Errorf("netsim: %v is not a multicast address", g)
	}
	nd, ok := n.nodes[member]
	if !ok || nd.kind != KindHost {
		return fmt.Errorf("netsim: %v is not a host", member)
	}
	for _, m := range n.mcast[g] {
		if m.addr == member && m.port == port {
			return nil
		}
	}
	n.mcast[g] = append(n.mcast[g], mcastMember{addr: member, port: port})
	return nil
}

// LeaveGroup removes a member endpoint from a multicast group.
func (n *Network) LeaveGroup(g packet.Addr, member packet.Addr, port uint16) {
	kept := n.mcast[g][:0]
	for _, m := range n.mcast[g] {
		if m.addr != member || m.port != port {
			kept = append(kept, m)
		}
	}
	if len(kept) == 0 {
		delete(n.mcast, g)
		return
	}
	n.mcast[g] = kept
}

// EnableECMP switches forwarding to equal-cost multi-path: each flow
// picks among the shortest-path next hops with a deterministic hash on
// (src, dst) — one fixed path per flow, as a real fabric's 5-tuple hash
// gives.
func (n *Network) EnableECMP() { n.ecmp = true }

// Stats returns a snapshot of the counters.
func (n *Network) Stats() Stats {
	st := n.stats
	for _, sw := range n.switches {
		c := sw.Stats()
		st.StaleDrops += c.WritesStale
		st.RuleDrops += c.RuleDrops
		st.RouteDrops += c.RouteDrops
	}
	return st
}

// AddSwitch registers a switch node running the given dataplane.
func (n *Network) AddSwitch(sw *core.Switch, cfg NodeConfig) error {
	err := n.add(&node{addr: sw.Addr(), kind: KindSwitch, cfg: cfg, sw: sw})
	if err == nil {
		n.switches = append(n.switches, sw)
	}
	return err
}

// AddHost registers a host; recv is invoked for every frame delivered to
// addr (after the host's ProcDelay and rate gate).
func (n *Network) AddHost(addr packet.Addr, cfg NodeConfig, recv func(*packet.Frame)) error {
	return n.add(&node{addr: addr, kind: KindHost, cfg: cfg, recv: recv})
}

func (n *Network) add(nd *node) error {
	if nd.addr.IsZero() {
		return fmt.Errorf("netsim: node needs a non-zero address")
	}
	if _, dup := n.nodes[nd.addr]; dup {
		return fmt.Errorf("netsim: duplicate node %v", nd.addr)
	}
	if nd.cfg.MaxQueue == 0 {
		nd.cfg.MaxQueue = event.Duration(1e6) // 1 ms of queueing
	}
	n.nodes[nd.addr] = nd
	return nil
}

// Link connects a and b bidirectionally with the given propagation latency.
func (n *Network) Link(a, b packet.Addr, latency event.Time) error {
	na, ok := n.nodes[a]
	if !ok {
		return fmt.Errorf("netsim: unknown node %v", a)
	}
	nb, ok := n.nodes[b]
	if !ok {
		return fmt.Errorf("netsim: unknown node %v", b)
	}
	if a == b {
		return fmt.Errorf("netsim: self link at %v", a)
	}
	na.links = append(na.links, b)
	nb.links = append(nb.links, a)
	n.latency[linkKey(a, b)] = latency
	return nil
}

func linkKey(a, b packet.Addr) routeKey {
	if a > b {
		a, b = b, a
	}
	return routeKey{a, b}
}

// ComputeRoutes builds the all-pairs next-hop table by one BFS per
// destination (hop-count shortest path): every neighbor one hop closer to
// the destination is an equal-cost next hop, kept in address order. Call
// after the topology is final; overrides survive recomputation.
func (n *Network) ComputeRoutes() {
	n.hops = make(map[routeKey][]packet.Addr, len(n.nodes)*len(n.nodes))
	for _, dst := range n.sortedAddrs() {
		dist := map[packet.Addr]int{dst: 0}
		queue := []packet.Addr{dst}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			// The underlay fast-reroutes around failed switches (§4.2), so
			// they do not carry transit traffic — but they still attract
			// traffic addressed *to* them, which is how neighbor rules
			// intercept it (Algorithm 2).
			if n.nodes[cur].failed && cur != dst {
				continue
			}
			for _, nb := range n.nodes[cur].links {
				d, seen := dist[nb]
				if !seen {
					d = dist[cur] + 1
					dist[nb] = d
					queue = append(queue, nb)
				}
				if d == dist[cur]+1 {
					k := routeKey{nb, dst}
					i, _ := slices.BinarySearch(n.hops[k], cur)
					n.hops[k] = slices.Insert(n.hops[k], i, cur)
				}
			}
		}
	}
}

func (n *Network) sortedAddrs() []packet.Addr { return slices.Sorted(maps.Keys(n.nodes)) }

// SetRoute pins the next hop used at node `at` for destination dst —
// mirroring §8.4's deliberate read/write path split (S0-S1-S2 for writes,
// S0-S3-S2 for reads is achieved by pinning at the relevant hops).
func (n *Network) SetRoute(at, dst, via packet.Addr) {
	n.override[routeKey{at, dst}] = via
}

// NextHop resolves the single-path forwarding decision at node `at` for
// dst: an override, else the lowest-address equal-cost hop.
func (n *Network) NextHop(at, dst packet.Addr) (packet.Addr, bool) {
	if via, ok := n.override[routeKey{at, dst}]; ok {
		return via, true
	}
	if set := n.hops[routeKey{at, dst}]; len(set) > 0 {
		return set[0], true
	}
	return 0, false
}

// flowHash mixes (at, src, dst) into the deterministic ECMP selector —
// the simulator's stand-in for a switch ASIC's seeded 5-tuple hash. It
// depends only on the flow endpoints plus the hashing switch, so a
// retried query takes the same path as the original and two runs of one
// seed pick identical paths; folding in `at` plays the role of the
// per-switch hash seed real fabrics use, without which consecutive hops'
// same-size ECMP sets make correlated choices and strand whole cores.
func flowHash(at, src, dst packet.Addr) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, v := range [3]uint64{uint64(at), uint64(src), uint64(dst)} {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 0x100000001b3
			v >>= 8
		}
	}
	return h
}

// nextHopFlow resolves the forwarding decision for a concrete flow:
// overrides first, then under ECMP the equal-cost set hashed on (src,
// dst), else the single-path hop.
func (n *Network) nextHopFlow(at, src, dst packet.Addr) (packet.Addr, bool) {
	k := routeKey{at, dst}
	if via, ok := n.override[k]; ok {
		return via, true
	}
	switch set := n.hops[k]; {
	case len(set) == 0:
		return 0, false
	case n.ecmp && len(set) > 1:
		return set[flowHash(at, src, dst)%uint64(len(set))], true
	default:
		return set[0], true
	}
}

// EqualCostHops returns every next hop `at` may use toward dst: the full
// equal-cost set under EnableECMP, else the single-path hop. Overrides are
// not consulted (this is a topology property, not a flow decision).
func (n *Network) EqualCostHops(at, dst packet.Addr) []packet.Addr {
	set := n.hops[routeKey{at, dst}]
	if !n.ecmp && len(set) > 1 {
		set = set[:1]
	}
	return slices.Clone(set)
}

// FlowPath returns the node sequence a flow from src to dst traverses
// (endpoints included) under the current routing and ECMP hashing — the
// ground truth placement planners compute link loads from.
func (n *Network) FlowPath(src, dst packet.Addr) ([]packet.Addr, bool) {
	path := []packet.Addr{src}
	cur := src
	for cur != dst {
		next, ok := n.nextHopFlow(cur, src, dst)
		if !ok || len(path) > len(n.nodes) {
			return nil, false
		}
		cur = next
		path = append(path, cur)
	}
	return path, true
}

// SetLinkCapacity meters both directions of the a–b link at pps packets
// per second with the given queue bound (0 = the 1 ms default): frames
// beyond the budget queue behind the link's serialization horizon, and
// frames that would wait longer than maxQueue are tail-dropped (counted
// in Stats.LinkDrops). pps <= 0 removes the meter.
func (n *Network) SetLinkCapacity(a, b packet.Addr, pps float64, maxQueue event.Time) error {
	if _, ok := n.latency[linkKey(a, b)]; !ok {
		return fmt.Errorf("netsim: no link %v-%v", a, b)
	}
	if pps <= 0 {
		delete(n.links, routeKey{a, b})
		delete(n.links, routeKey{b, a})
		return nil
	}
	if maxQueue <= 0 {
		maxQueue = event.Duration(1e6)
	}
	n.links[routeKey{a, b}] = &linkState{rate: pps, maxQueue: maxQueue}
	n.links[routeKey{b, a}] = &linkState{rate: pps, maxQueue: maxQueue}
	return nil
}

// LinkUtilization reports the carried frames and tail drops of the a–b
// link, both directions summed. Zero for unmetered links.
func (n *Network) LinkUtilization(a, b packet.Addr) (load, drops uint64) {
	for _, k := range [2]routeKey{{a, b}, {b, a}} {
		if ls, ok := n.links[k]; ok {
			load += ls.load
			drops += ls.drops
		}
	}
	return load, drops
}

// PathLen returns the number of links between a and b (diagnostics and the
// Fig. 9(f) hop accounting); ok is false if unreachable.
func (n *Network) PathLen(a, b packet.Addr) (int, bool) {
	hops := 0
	cur := a
	for cur != b {
		next, ok := n.NextHop(cur, b)
		if !ok || hops > len(n.nodes) {
			return 0, false
		}
		cur = next
		hops++
	}
	return hops, true
}

// FailSwitch marks a switch fail-stop: every frame arriving there is
// dropped until RestoreSwitch.
func (n *Network) FailSwitch(addr packet.Addr) error {
	nd, ok := n.nodes[addr]
	if !ok || nd.kind != KindSwitch {
		return fmt.Errorf("netsim: %v is not a switch", addr)
	}
	nd.failed = true
	n.ComputeRoutes() // underlay fast reroute (§4.2)
	return nil
}

// RestoreSwitch clears the failed flag (new switch onboarding).
func (n *Network) RestoreSwitch(addr packet.Addr) error {
	nd, ok := n.nodes[addr]
	if !ok || nd.kind != KindSwitch {
		return fmt.Errorf("netsim: %v is not a switch", addr)
	}
	nd.failed = false
	n.ComputeRoutes()
	return nil
}

// Failed reports the fail-stop flag.
func (n *Network) Failed(addr packet.Addr) bool {
	nd, ok := n.nodes[addr]
	return ok && nd.failed
}

// AttachSwitch adds a switch node and wires it to the given peers while
// the simulation runs — elastic scale-out. Routes are recomputed so the
// fabric starts forwarding through (and to) the new switch immediately.
func (n *Network) AttachSwitch(sw *core.Switch, cfg NodeConfig,
	peers []packet.Addr, latency event.Time) error {
	if len(peers) == 0 {
		return fmt.Errorf("netsim: attaching %v with no links", sw.Addr())
	}
	if err := n.AddSwitch(sw, cfg); err != nil {
		return err
	}
	for _, p := range peers {
		if err := n.Link(sw.Addr(), p, latency); err != nil {
			// Roll the half-attached node back out.
			n.removeNode(sw.Addr())
			return err
		}
	}
	n.ComputeRoutes()
	return nil
}

// DetachSwitch removes a switch and its links from the fabric — elastic
// scale-in, after the controller drained its state. Frames still in flight
// toward it are dropped (counted as FailDrops); routes are recomputed.
func (n *Network) DetachSwitch(addr packet.Addr) error {
	nd, ok := n.nodes[addr]
	if !ok || nd.kind != KindSwitch {
		return fmt.Errorf("netsim: %v is not a switch", addr)
	}
	// In-flight deliveries hold the node pointer; the failed flag makes
	// them drop cleanly after removal.
	nd.failed = true
	n.removeNode(addr)
	n.ComputeRoutes()
	return nil
}

// removeNode unlinks and deletes a node.
func (n *Network) removeNode(addr packet.Addr) {
	nd, ok := n.nodes[addr]
	if !ok {
		return
	}
	for _, peer := range nd.links {
		if pn, ok := n.nodes[peer]; ok {
			kept := pn.links[:0]
			for _, l := range pn.links {
				if l != addr {
					kept = append(kept, l)
				}
			}
			pn.links = kept
		}
		delete(n.latency, linkKey(addr, peer))
		delete(n.faults.links, routeKey{addr, peer})
		delete(n.faults.links, routeKey{peer, addr})
		delete(n.links, routeKey{addr, peer})
		delete(n.links, routeKey{peer, addr})
	}
	delete(n.faults.gray, addr)
	delete(n.nodes, addr)
}

// Switch returns the dataplane of a switch node (controller access).
func (n *Network) Switch(addr packet.Addr) (*core.Switch, bool) {
	nd, ok := n.nodes[addr]
	if !ok || nd.sw == nil {
		return nil, false
	}
	return nd.sw, true
}

// IsSwitch reports whether addr names a switch node.
func (n *Network) IsSwitch(addr packet.Addr) bool {
	nd, ok := n.nodes[addr]
	return ok && nd.kind == KindSwitch
}

// Switches lists all switch addresses.
func (n *Network) Switches() []packet.Addr {
	var out []packet.Addr
	for _, a := range n.sortedAddrs() {
		if n.nodes[a].kind == KindSwitch {
			out = append(out, a)
		}
	}
	return out
}

// Inject puts a frame on the wire at the sending host. The frame is owned
// by the network from this point.
func (n *Network) Inject(from packet.Addr, f *packet.Frame) {
	nd, ok := n.nodes[from]
	if !ok {
		n.stats.RouteDrops++
		return
	}
	n.forward(nd, f)
}

// EmitFrom runs f through addr's own pipeline as locally sourced traffic
// (the switch CPU shares the ASIC with the data plane): fail-stop, gray
// degradation and the capacity gate apply to the node's own heartbeats
// exactly as to transit frames, so a dead switch's beacons die with it
// and an overloaded one emits late.
func (n *Network) EmitFrom(addr packet.Addr, f *packet.Frame) {
	nd, ok := n.nodes[addr]
	if !ok {
		n.stats.RouteDrops++
		return
	}
	n.arrive(nd, f)
}

// NodeCounters returns addr's local observables — frames dropped at the
// node (injected loss, gray loss, queue overflow), frames admitted for
// processing, and the current ingest backlog — the honest signals a
// switch agent can put in a heartbeat payload without consulting any
// global view.
func (n *Network) NodeCounters(addr packet.Addr) (drops, processed uint64, backlog event.Time) {
	nd, ok := n.nodes[addr]
	if !ok {
		return 0, 0, 0
	}
	if b := nd.busyUntil - n.Sim.Now(); b > 0 {
		backlog = b
	}
	return nd.drops, nd.processed, backlog
}

// forward moves f from nd toward f.IP.Dst across one link. Frames bound
// for a multicast group replicate here: one deep copy per joined member,
// destination rewritten, each taking its own faultable unicast path. The
// sender is charged once (its node budget gated the original frame); the
// copies model in-network replication.
func (n *Network) forward(nd *node, f *packet.Frame) {
	if f.IP.Dst.IsMulticast() {
		members := n.mcast[f.IP.Dst]
		if len(members) == 0 {
			n.stats.RouteDrops++
			return
		}
		n.stats.McastEgress++
		for _, m := range members {
			cp := f.Clone()
			cp.IP.Dst = m.addr
			cp.UDP.DstPort = m.port
			n.stats.McastCopies++
			n.forward(nd, cp)
		}
		return
	}
	if f.IP.Dst == nd.addr {
		// Delivered to self (host loopback is not modelled).
		n.stats.RouteDrops++
		return
	}
	via, ok := n.nextHopFlow(nd.addr, f.IP.Src, f.IP.Dst)
	if !ok {
		n.stats.RouteDrops++
		return
	}
	n.transmit(nd.addr, via, f)
}

// transmit puts f on the directed link from→via, applying any nemesis
// faults active on that direction: asymmetric partitions, probabilistic
// drop, jitter, reordering hold-back, and duplication. The healthy fast
// path (no faults anywhere) costs exactly what it did before the nemesis
// existed — one latency lookup and one scheduled event, no rng draws.
func (n *Network) transmit(from, via packet.Addr, f *packet.Frame) {
	lat := n.latency[linkKey(from, via)]
	next := n.nodes[via]
	if n.faults.Cut(f.IP.Src, f.IP.Dst) {
		n.stats.PartitionDrops++
		return
	}
	// Capacity gate: metered links serialize frames through their packet
	// budget exactly like node ingest does — queueing delay while the
	// backlog fits, tail drop once it exceeds the link's bound. Unmetered
	// links (the whole Fig. 8 testbed) skip this with one map miss.
	if ls := n.links[routeKey{from, via}]; ls != nil {
		now := n.Sim.Now()
		start := ls.busyUntil
		if start < now {
			start = now
		}
		if start-now > ls.maxQueue {
			n.stats.LinkDrops++
			ls.drops++
			return
		}
		svc := event.Time(1e9 / ls.rate)
		ls.busyUntil = start + svc
		ls.load++
		lat += ls.busyUntil - now
	}
	flt, faulty := n.faults.Link(from, via)
	if !faulty {
		n.Sim.After(lat, func() { n.arrive(next, f) })
		return
	}
	dec := flt.Decide(n.rng, n.Sim.Now(), lat)
	if dec.Drop {
		if dec.Burst {
			n.stats.BurstDrops++
		} else {
			n.stats.ChaosDrops++
		}
		return
	}
	d := lat + dec.Delay
	if dec.Reordered {
		n.stats.Reordered++
	}
	if dec.Dup {
		// The copy must be deep: the dataplane rewrites frames in place,
		// and both copies will be processed independently.
		cp := f.Clone()
		n.stats.DupCopies++
		n.Sim.After(d+dec.DupDelay, func() { n.arrive(next, cp) })
	}
	n.Sim.After(d, func() { n.arrive(next, f) })
}

// arrive handles ingress at a node: loss, fail-stop, capacity, then
// processing after the node's service + processing delay.
func (n *Network) arrive(nd *node, f *packet.Frame) {
	n.stats.Hops++
	if nd.failed {
		n.stats.FailDrops++
		return
	}
	if nd.cfg.LossRate > 0 && n.rng.Float64() < nd.cfg.LossRate {
		n.stats.LossDrops++
		nd.drops++
		return
	}
	g, grayed := n.faults.Gray(nd.addr)
	if grayed && g.Loss > 0 && n.rng.Float64() < g.Loss {
		n.stats.GrayDrops++
		nd.drops++
		return
	}
	// Capacity gate: serialize packets through the node's budget.
	now := n.Sim.Now()
	start := nd.busyUntil
	if start < now {
		start = now
	}
	if wait := start - now; wait > nd.cfg.MaxQueue {
		n.stats.QueueDrops++
		nd.drops++
		return
	}
	nd.processed++
	svc := n.serviceTime(nd, f)
	if grayed && g.SlowFactor > 1 {
		svc = event.Time(float64(svc) * g.SlowFactor)
	}
	nd.busyUntil = start + svc
	done := nd.busyUntil + nd.cfg.ProcDelay
	if grayed {
		done += g.ExtraDelay
	}
	n.Sim.At(done, func() { n.process(nd, f, now) })
}

// serviceTime charges the node's packet budget: one slot per traversal,
// multiplied by pipeline passes for NetChain values that recirculate (§6).
func (n *Network) serviceTime(nd *node, f *packet.Frame) event.Time {
	if nd.cfg.Rate <= 0 {
		return 0
	}
	passes := 1
	if nd.sw != nil && f.UDP.DstPort == packet.Port && f.IP.Dst == nd.addr {
		passes = nd.sw.PassesFor(len(f.NC.Value))
	}
	return event.Time(float64(passes) * 1e9 / nd.cfg.Rate)
}

// process runs a frame through a node after its service completes; it
// arrived at the node at time in.
func (n *Network) process(nd *node, f *packet.Frame, in event.Time) {
	if nd.failed {
		n.stats.FailDrops++
		return
	}
	if nd.kind == KindHost {
		if f.IP.Dst == nd.addr {
			n.stats.Delivered++
			if nd.recv != nil {
				nd.recv(f)
			}
			return
		}
		// Hosts do not forward.
		n.stats.RouteDrops++
		return
	}

	// Switch node: the host step runs the whole per-frame protocol and
	// counts the frame's exit; the simulator only moves what it forwards.
	// A commit event shares the switch's packet budget and link paths, so
	// loss, partitions and congestion eat events exactly as replies.
	hop := packet.TraceHop{SwitchID: uint32(nd.addr), IngressNs: int64(in)}
	v, published := nd.sw.Step(f, hop, n.nowNs, n.sink, &n.ev)
	if published {
		n.EmitFrom(nd.addr, n.ev.Clone())
	}
	if v == core.VerdictForward {
		n.forward(nd, f)
	}
}

// nowNs is the simulator's trace clock: a hop's egress time.
func (n *Network) nowNs() int64 { return int64(n.Sim.Now()) }

// LossRateSet updates a switch's injected loss rate (Fig. 9(d) sweeps).
func (n *Network) LossRateSet(addr packet.Addr, rate float64) error {
	nd, ok := n.nodes[addr]
	if !ok {
		return fmt.Errorf("netsim: unknown node %v", addr)
	}
	nd.cfg.LossRate = rate
	return nil
}

// Neighbors returns the link neighbors of addr (the controller installs
// Algorithm 2 rules on exactly these nodes).
func (n *Network) Neighbors(addr packet.Addr) []packet.Addr {
	nd, ok := n.nodes[addr]
	if !ok {
		return nil
	}
	return slices.Sorted(slices.Values(nd.links))
}

// SwitchNeighbors returns only the switch neighbors of addr.
func (n *Network) SwitchNeighbors(addr packet.Addr) []packet.Addr {
	var out []packet.Addr
	for _, a := range n.Neighbors(addr) {
		if nd, ok := n.nodes[a]; ok && nd.kind == KindSwitch {
			out = append(out, a)
		}
	}
	return out
}
