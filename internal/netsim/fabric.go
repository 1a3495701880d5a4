package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"netchain/internal/core"
	"netchain/internal/event"
	"netchain/internal/packet"
)

// TopoSpec names a fabric shape. The grammar accepted by ParseTopology:
//
//	ring            — the Fig. 8 four-switch testbed: S0-S1-S2 in line,
//	                  the spare S3 closing the diamond S0-S3-S2
//	spine-leaf:SxL  — S spines, L leaves, full bipartite core
//	fattree:k       — canonical k-ary fat-tree: (k/2)^2 cores,
//	                  k pods of k/2 aggregation + k/2 edge switches
type TopoSpec struct {
	Kind string // "ring", "spine-leaf", "fattree"
	S, L int    // spine-leaf dimensions
	K    int    // fat-tree arity
}

// ParseTopology parses the -topology grammar.
func ParseTopology(s string) (TopoSpec, error) {
	switch {
	case s == "" || s == "ring":
		return TopoSpec{Kind: "ring"}, nil
	case strings.HasPrefix(s, "spine-leaf:"):
		dims := strings.Split(strings.TrimPrefix(s, "spine-leaf:"), "x")
		if len(dims) != 2 {
			return TopoSpec{}, fmt.Errorf("netsim: want spine-leaf:SxL, got %q", s)
		}
		sp, err1 := strconv.Atoi(dims[0])
		lf, err2 := strconv.Atoi(dims[1])
		if err1 != nil || err2 != nil || sp < 1 || lf < 2 || sp > 254 || lf > 253 {
			return TopoSpec{}, fmt.Errorf("netsim: bad spine-leaf dims in %q (need 1<=S<=254, 2<=L<=253)", s)
		}
		return TopoSpec{Kind: "spine-leaf", S: sp, L: lf}, nil
	case strings.HasPrefix(s, "fattree:"):
		k, err := strconv.Atoi(strings.TrimPrefix(s, "fattree:"))
		if err != nil || k < 2 || k%2 != 0 || k > 16 {
			return TopoSpec{}, fmt.Errorf("netsim: bad fat-tree arity in %q (need even 2<=k<=16)", s)
		}
		return TopoSpec{Kind: "fattree", K: k}, nil
	default:
		return TopoSpec{}, fmt.Errorf("netsim: unknown topology %q (want ring|spine-leaf:SxL|fattree:k)", s)
	}
}

// String renders the spec back into the grammar.
func (t TopoSpec) String() string {
	switch t.Kind {
	case "spine-leaf":
		return fmt.Sprintf("spine-leaf:%dx%d", t.S, t.L)
	case "fattree":
		return fmt.Sprintf("fattree:%d", t.K)
	default:
		return "ring"
	}
}

// SwitchCount returns the number of switches the spec builds.
func (t TopoSpec) SwitchCount() int {
	switch t.Kind {
	case "spine-leaf":
		return t.S + t.L
	case "fattree":
		h := t.K / 2
		return h*h + t.K*t.K // cores + k pods × (k/2 agg + k/2 edge)
	default:
		return 4
	}
}

// LinkCount returns the number of switch-switch links the spec builds.
func (t TopoSpec) LinkCount() int {
	switch t.Kind {
	case "spine-leaf":
		return t.S * t.L
	case "fattree":
		h := t.K / 2
		// Per pod: full edge-agg bipartite (h*h). Per agg: h core uplinks.
		return t.K*h*h + t.K*h*h
	default:
		return 4
	}
}

// Fabric is the simulated substrate in one of three shapes: the paper's
// Fig. 8 testbed (ring) or a parameterized multi-tier topology — the
// scale-free substrate the §8.3 simulations assume, with ECMP routing and
// metered inter-switch links so transit congestion is observable. Leaves
// attach hosts. Candidates are the switches chains may live on; Domain
// maps each to its failure/congestion domain (its own index) for replica
// anti-affinity.
type Fabric struct {
	Net     *Network
	Profile Profile
	Spec    TopoSpec

	// Switches lists every switch in build order: S0..S3 on the ring, else
	// the top tier, then per pod agg+edge. Switches attached later follow.
	Switches []packet.Addr
	Leaves   []packet.Addr // host-bearing switches: S0 and S2, or the edge tier
	// Candidates are the switches chains may live on: all four ring
	// switches, or the leaves.
	Candidates []packet.Addr
	// Uplinks dual-home the out-of-band hosts and attached switches, so one
	// switch failure cannot sever them: S0 and S2, or the first two
	// top-tier switches.
	Uplinks  []packet.Addr
	Domain   map[packet.Addr]int // candidate → anti-affinity domain
	Hosts    []packet.Addr       // all hosts, leaf-major order
	HostLeaf map[packet.Addr]packet.Addr

	// LinkPPS is the pre-scale packet budget metered onto every
	// switch-switch link (0 = unmetered).
	LinkPPS float64
}

// NewFabric builds the spec's fabric under the profile with hostsPerLeaf
// hosts on every leaf. linkPPS > 0 meters every inter-switch link at
// linkPPS/Scale packets per second — the knob that makes high-betweenness
// links saturable. Multi-tier fabrics enable ECMP: equal-cost paths are
// hashed per flow, deterministically. The ring keeps single-path routing.
func NewFabric(sim *event.Sim, p Profile, seed int64, spec TopoSpec, hostsPerLeaf int, linkPPS float64) (*Fabric, error) {
	if spec.Kind != "ring" && spec.Kind != "spine-leaf" && spec.Kind != "fattree" {
		return nil, fmt.Errorf("netsim: NewFabric wants ring, spine-leaf or fattree, got %q", spec.Kind)
	}
	if hostsPerLeaf < 1 || hostsPerLeaf > 253 {
		return nil, fmt.Errorf("netsim: hostsPerLeaf must be 1..253, got %d", hostsPerLeaf)
	}
	if spec.Kind == "ring" && hostsPerLeaf > 4 {
		// Ring hosts share 10.1.0.x with the monitor (.9) and relay (.10).
		return nil, fmt.Errorf("netsim: the ring takes at most 4 hosts per leaf, got %d", hostsPerLeaf)
	}
	fb := &Fabric{
		Net:      New(sim, seed),
		Profile:  p,
		Spec:     spec,
		Domain:   make(map[packet.Addr]int),
		HostLeaf: make(map[packet.Addr]packet.Addr),
		LinkPPS:  linkPPS,
	}
	if spec.Kind != "ring" {
		fb.Net.EnableECMP()
	}

	addSwitch := func(a packet.Addr) error {
		sw, err := core.NewSwitch(a, p.Pipeline)
		if err != nil {
			return err
		}
		if err := fb.Net.AddSwitch(sw, p.SwitchNodeConfig()); err != nil {
			return err
		}
		fb.Switches = append(fb.Switches, a)
		return nil
	}
	var swLinks [][2]packet.Addr
	link := func(a, b packet.Addr) { swLinks = append(swLinks, [2]packet.Addr{a, b}) }

	switch spec.Kind {
	case "ring":
		for i := 0; i < 4; i++ {
			if err := addSwitch(packet.AddrFrom4(10, 0, 0, byte(i+1))); err != nil {
				return nil, err
			}
		}
		s := fb.Switches
		link(s[0], s[1])
		link(s[1], s[2])
		link(s[0], s[3])
		link(s[3], s[2])
		fb.Leaves = []packet.Addr{s[0], s[2]}
		fb.Candidates = slices.Clone(s)
		fb.Uplinks = []packet.Addr{s[0], s[2]}
	case "spine-leaf":
		var spines []packet.Addr
		for i := 0; i < spec.S; i++ {
			a := packet.AddrFrom4(10, 0, 1, byte(i+1))
			if err := addSwitch(a); err != nil {
				return nil, err
			}
			spines = append(spines, a)
		}
		for i := 0; i < spec.L; i++ {
			a := packet.AddrFrom4(10, 0, 2, byte(i+1))
			if err := addSwitch(a); err != nil {
				return nil, err
			}
			fb.Leaves = append(fb.Leaves, a)
			for _, sp := range spines {
				link(a, sp)
			}
		}
	case "fattree":
		h := spec.K / 2
		var cores []packet.Addr
		for i := 0; i < h*h; i++ {
			a := packet.AddrFrom4(10, 0, 1, byte(i+1))
			if err := addSwitch(a); err != nil {
				return nil, err
			}
			cores = append(cores, a)
		}
		for pod := 0; pod < spec.K; pod++ {
			var aggs, edges []packet.Addr
			for j := 0; j < h; j++ {
				a := packet.AddrFrom4(10, 0, 2, byte(pod*h+j+1))
				if err := addSwitch(a); err != nil {
					return nil, err
				}
				aggs = append(aggs, a)
				// Agg j uplinks to the j-th stripe of cores.
				for c := j * h; c < (j+1)*h; c++ {
					link(a, cores[c])
				}
			}
			for j := 0; j < h; j++ {
				a := packet.AddrFrom4(10, 0, 3, byte(pod*h+j+1))
				if err := addSwitch(a); err != nil {
					return nil, err
				}
				edges = append(edges, a)
				fb.Leaves = append(fb.Leaves, a)
				for _, ag := range aggs {
					link(a, ag)
				}
			}
		}
	}
	if spec.Kind != "ring" {
		fb.Candidates = fb.Leaves
		fb.Uplinks = slices.Clone(fb.Switches[:min(2, len(fb.Switches))])
	}
	// Each candidate is its own anti-affinity domain: a fat-tree edge switch
	// is the unit that takes all its replicas down with it. Pod-level domains
	// would force every chain cross-pod and tax all writes with core transit
	// for no single-failure benefit.
	for i, c := range fb.Candidates {
		fb.Domain[c] = i
	}

	for _, l := range swLinks {
		if err := fb.Net.Link(l[0], l[1], p.LinkLatency); err != nil {
			return nil, err
		}
	}

	// Hosts: the ring's H0..H3 are 10.1.0.1-4; the multi-tier octet
	// pattern keeps 10.1.x.x free for the monitor and relay.
	for li, leaf := range fb.Leaves {
		for hn := 0; hn < hostsPerLeaf; hn++ {
			var a packet.Addr
			switch spec.Kind {
			case "ring":
				a = packet.AddrFrom4(10, 1, 0, byte(li*hostsPerLeaf+hn+1))
			case "spine-leaf":
				a = packet.AddrFrom4(10, byte(li+2), 0, byte(hn+1))
			default:
				h := spec.K / 2
				a = packet.AddrFrom4(10, byte(li/h+2), byte(li%h+1), byte(hn+1))
			}
			if err := fb.Net.AddHost(a, p.HostNodeConfig(), nil); err != nil {
				return nil, err
			}
			if err := fb.Net.Link(a, leaf, p.LinkLatency); err != nil {
				return nil, err
			}
			fb.Hosts = append(fb.Hosts, a)
			fb.HostLeaf[a] = leaf
		}
	}

	if linkPPS > 0 {
		for _, l := range swLinks {
			if err := fb.Net.SetLinkCapacity(l[0], l[1], linkPPS/p.Scale, 0); err != nil {
				return nil, err
			}
		}
	}
	fb.Net.ComputeRoutes()
	return fb, nil
}

// SwitchAddrs returns a copy of Switches.
func (fb *Fabric) SwitchAddrs() []packet.Addr {
	return slices.Clone(fb.Switches)
}

// AttachHost adds an out-of-band host (the health monitor, the watch
// relay) dual-homed to the Uplinks, with recv as its receive callback.
// The host and its links are unmetered: a rate gate would serialize
// concurrent probe echoes, and congestion must slow the observed path,
// not the observer.
func (fb *Fabric) AttachHost(addr packet.Addr, recv func(*packet.Frame)) error {
	if err := fb.Net.AddHost(addr, NodeConfig{}, recv); err != nil {
		return err
	}
	for _, p := range fb.Uplinks {
		if err := fb.Net.Link(addr, p, fb.Profile.LinkLatency); err != nil {
			return err
		}
	}
	fb.Net.ComputeRoutes()
	return nil
}

// AttachMonitor adds the health-monitoring host (AttachHost) and returns
// its address. Idempotent.
func (fb *Fabric) AttachMonitor() (packet.Addr, error) {
	addr := packet.AddrFrom4(10, 1, 0, 9)
	if _, ok := fb.Net.nodes[addr]; ok {
		return addr, nil
	}
	if err := fb.AttachHost(addr, nil); err != nil {
		return 0, err
	}
	return addr, nil
}

// AddSwitch boots a new ring switch (S4, S5, ...) under the profile and
// links it to the Uplinks, mirroring the spare S3's diamond wiring — the
// physical half of elastic scale-out. Spine-leaf and fat-tree fabrics are
// sized by their spec and refuse.
func (fb *Fabric) AddSwitch() (packet.Addr, error) {
	if fb.Spec.Kind != "ring" {
		return 0, fmt.Errorf("netsim: AddSwitch needs the ring, not %s", fb.Spec)
	}
	addr := packet.AddrFrom4(10, 0, 0, byte(len(fb.Switches)+1))
	sw, err := core.NewSwitch(addr, fb.Profile.Pipeline)
	if err != nil {
		return 0, err
	}
	if err := fb.Net.AttachSwitch(sw, fb.Profile.SwitchNodeConfig(), fb.Uplinks, fb.Profile.LinkLatency); err != nil {
		return 0, err
	}
	fb.Switches = append(fb.Switches, addr)
	return addr, nil
}

// Path returns the node sequence a flow src→dst takes under the fabric's
// ECMP hashing — the traffic model the placement planner charges links
// from.
func (fb *Fabric) Path(src, dst packet.Addr) []packet.Addr {
	path, ok := fb.Net.FlowPath(src, dst)
	if !ok {
		return nil
	}
	return path
}

// Fingerprint hashes the fabric's full structure — nodes, links, latencies,
// capacity meters, and the computed ECMP route sets — so tests can pin
// that two builds from one spec are byte-identical.
func (fb *Fabric) Fingerprint() string {
	h := sha256.New()
	w32 := func(v uint32) {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], v)
		h.Write(b[:])
	}
	w64 := func(v uint64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	addrs := fb.Net.sortedAddrs()
	w32(uint32(len(addrs)))
	for _, a := range addrs {
		nd := fb.Net.nodes[a]
		w32(uint32(a))
		w32(uint32(nd.kind))
		peers := append([]packet.Addr(nil), nd.links...)
		sortAddrs(peers)
		for _, p := range peers {
			w32(uint32(p))
			w64(uint64(fb.Net.latency[linkKey(a, p)]))
			if ls := fb.Net.links[routeKey{a, p}]; ls != nil {
				w64(uint64(ls.rate))
				w64(uint64(ls.maxQueue))
			}
		}
	}
	for _, src := range addrs {
		for _, dst := range addrs {
			for _, hop := range fb.Net.EqualCostHops(src, dst) {
				w32(uint32(hop))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
