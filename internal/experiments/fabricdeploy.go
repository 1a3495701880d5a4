package experiments

import (
	"fmt"
	"sort"

	"netchain/internal/controller"
	"netchain/internal/core"
	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/netsim"
	"netchain/internal/packet"
	"netchain/internal/place"
	"netchain/internal/ring"
	"netchain/internal/simclient"
	"netchain/internal/workload"
)

// FabricOpts sizes a deployment over a parameterized multi-tier fabric —
// the scale-free substrate of §8.3 with ECMP routing and (optionally)
// metered inter-switch links, so placement quality is observable as
// delivered throughput instead of an article of faith.
type FabricOpts struct {
	Spec  netsim.TopoSpec // spine-leaf or fattree (see netsim.ParseTopology)
	Scale float64         // rate divisor, default 1000
	// VNodes is virtual nodes per ring member; default 4 (fabrics have
	// many leaves, so fewer vnodes per leaf keep group counts sane).
	VNodes       int
	Seed         int64 // default 1
	HostsPerLeaf int   // client hosts per edge switch, default 2
	// LinkPPS meters every inter-switch link at LinkPPS/Scale packets per
	// second (0 = unmetered) — the knob that makes high-betweenness links
	// saturable and bad placement measurable.
	LinkPPS float64
	// SpareLeaves holds the last N leaves out of the ring as the recovery
	// pool (their hosts stay idle). Default 0: every leaf is a member.
	SpareLeaves int
	// Placement picks how chains land on leaves:
	//   "hash"       — the consistent-hash ring's own assignment (default)
	//   "roundrobin" — the naive walk (place.RoundRobin), the baseline arm
	//   "bottleneck" — link-load-aware greedy (place.BottleneckAware)
	Placement string
	// WriteFrac is the write share the planner models; default 0.1 (§8.2).
	WriteFrac float64
}

func (o *FabricOpts) defaults() {
	if o.Scale == 0 {
		o.Scale = 1000
	}
	if o.VNodes == 0 {
		o.VNodes = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.HostsPerLeaf == 0 {
		o.HostsPerLeaf = 2
	}
	if o.Placement == "" {
		o.Placement = "hash"
	}
	if o.WriteFrac == 0 {
		o.WriteFrac = 0.1
	}
}

// NewFabricDeployment builds a fabric, a ring over its member leaves, the
// controller, and one client mux per host. When Placement is not "hash"
// the planned chains are installed as ring placement overrides before the
// controller snapshots routes, so every route served afterwards is the
// planned one.
func NewFabricDeployment(o FabricOpts) (*Deployment, error) {
	o.defaults()
	sim := event.New()
	prof := netsim.PaperProfile(o.Scale)
	fb, err := netsim.NewFabric(sim, prof, o.Seed, o.Spec, o.HostsPerLeaf, o.LinkPPS)
	if err != nil {
		return nil, err
	}
	if o.SpareLeaves < 0 || o.SpareLeaves > len(fb.Leaves)-3 {
		return nil, fmt.Errorf("experiments: SpareLeaves %d leaves fewer than 3 members on %s",
			o.SpareLeaves, o.Spec)
	}
	members := append([]packet.Addr(nil), fb.Leaves[:len(fb.Leaves)-o.SpareLeaves]...)
	spares := append([]packet.Addr(nil), fb.Leaves[len(fb.Leaves)-o.SpareLeaves:]...)

	r, err := ring.New(ring.Config{VNodesPerSwitch: o.VNodes, Replicas: 3, Seed: uint64(o.Seed)},
		members)
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		Sim: sim, Net: fb.Net, Fab: fb, Ring: r, Profile: prof,
		members: members, spares: spares, writeFrac: o.WriteFrac,
	}

	switch o.Placement {
	case "hash":
	case "roundrobin", "bottleneck":
		top := d.PlaceTopology()
		var plans [][]packet.Addr
		if o.Placement == "bottleneck" {
			plans = place.BottleneckAware(top, r.Groups(), r.Replicas())
		} else {
			plans = place.RoundRobin(top, r.Groups(), r.Replicas())
		}
		m := make(map[ring.GroupID][]packet.Addr, len(plans))
		for g, chain := range plans {
			m[ring.GroupID(g)] = chain
		}
		if err := r.SetPlacement(m); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("experiments: unknown placement %q (want hash|roundrobin|bottleneck)",
			o.Placement)
	}

	if err := d.NewController(controller.DefaultConfig()); err != nil {
		return nil, err
	}
	for _, h := range fb.Hosts {
		mux, err := simclient.NewMux(sim, fb.Net, h)
		if err != nil {
			return nil, err
		}
		d.Muxes = append(d.Muxes, mux)
	}
	return d, nil
}

// GroupClients returns the hosts that query virtual group g under the
// client-affinity model: coordination traffic is service-local (§2's use
// cases all are), so group g belongs to member leaf g mod M and is
// queried by that leaf's own hosts. This affinity is what bottleneck-
// aware placement exploits — park the tail under the clients' leaf and
// reads never cross a metered transit link.
func (d *Deployment) GroupClients(g int) []packet.Addr {
	if d.Fab == nil || len(d.members) == 0 {
		return nil
	}
	leaf := d.members[g%len(d.members)]
	var out []packet.Addr
	for _, h := range d.Fab.Hosts {
		if d.Fab.HostLeaf[h] == leaf {
			out = append(out, h)
		}
	}
	return out
}

// PlaceTopology exposes the fabric to the placement planner: member
// leaves as candidates, each its own anti-affinity domain, the ECMP flow
// paths as the traffic model, and the client-affinity group→hosts map.
func (d *Deployment) PlaceTopology() place.Topology {
	return place.Topology{
		Candidates: append([]packet.Addr(nil), d.members...),
		Domain:     d.Fab.Domain,
		Hosts:      d.Fab.Hosts,
		Path:       d.Fab.Path,
		WriteFrac:  d.writeFrac,
		GroupHosts: d.GroupClients,
	}
}

// LoadAffineStore mines perGroup keys for every virtual group (so each
// leaf's clients have local keys to query) and preloads valueSize-byte
// values through the control plane. Keys are found by deterministic
// scanning over a counter namespace — no randomness, same keys every run.
func (d *Deployment) LoadAffineStore(perGroup, valueSize int) (map[ring.GroupID][]kv.Key, error) {
	out := make(map[ring.GroupID][]kv.Key, d.Ring.Groups())
	need := d.Ring.Groups() * perGroup
	loaded := 0
	for i := 0; loaded < need; i++ {
		if i > need*1000 {
			return nil, fmt.Errorf("experiments: could not mine %d keys/group after %d candidates", perGroup, i)
		}
		k := kv.KeyFromString(fmt.Sprintf("aff/%d", i))
		g := d.Ring.GroupForKey(k)
		if len(out[g]) >= perGroup {
			continue
		}
		rt, err := d.Ctl.Insert(k)
		if err != nil {
			return nil, err
		}
		it := core.Item{Key: k, Value: workload.Value(valueSize, uint64(i)),
			Version: kv.Version{Seq: 1}}
		for _, hop := range rt.Hops {
			sw, ok := d.Net.Switch(hop)
			if !ok {
				return nil, fmt.Errorf("no switch %v", hop)
			}
			if err := sw.WriteItem(it); err != nil {
				return nil, err
			}
		}
		out[g] = append(out[g], k)
		loaded++
	}
	return out, nil
}

// runAffineGenerators starts one open-loop generator per member-leaf host,
// each querying only its own leaf's groups (the affinity workload), and
// returns delivered OK QPS scaled back to unscaled units.
func (d *Deployment) runAffineGenerators(groupKeys map[ring.GroupID][]kv.Key, writeRatio float64,
	valueSize int, window event.Time, outWindow int) (deliveredQPS float64, gens []*simclient.Generator) {
	cfg := simclient.DefaultConfig()
	cfg.Window = outWindow
	rate := d.Profile.HostRate / d.Profile.Scale
	dir := d.Directory()
	leafIdx := make(map[packet.Addr]int, len(d.members))
	for i, l := range d.members {
		leafIdx[l] = i
	}
	for i, mux := range d.Muxes {
		li, ok := leafIdx[d.Fab.HostLeaf[d.Fab.Hosts[i]]]
		if !ok {
			continue // spare-leaf hosts stay quiet
		}
		var keys []kv.Key
		for g := li; g < d.Ring.Groups(); g += len(d.members) {
			keys = append(keys, groupKeys[ring.GroupID(g)]...)
		}
		if len(keys) == 0 {
			continue
		}
		g := mux.NewGenerator(cfg, dir, mixSource(keys, writeRatio, valueSize, int64(i+1)))
		gens = append(gens, g)
		g.Start(rate)
	}
	d.Sim.After(window, func() {
		for _, g := range gens {
			g.Stop()
		}
	})
	d.Sim.Run()
	var ok uint64
	for _, g := range gens {
		ok += g.OKCount()
	}
	deliveredQPS = float64(ok) / (float64(window) / 1e9) * d.Profile.Scale
	return deliveredQPS, gens
}

// CongestionPlacer returns the autopilot hook that answers a Congested
// verdict on a fabric leaf: every group whose chain runs through the
// congested leaf is re-planned with that member swapped for the coolest
// other live member (fewest chain slots after the swap, lowest address on
// ties), keeping chain order. Deterministic: groups are visited sorted.
func (d *Deployment) CongestionPlacer() func(packet.Addr) map[ring.GroupID][]packet.Addr {
	return func(congested packet.Addr) map[ring.GroupID][]packet.Addr {
		if d.Fab == nil {
			return nil
		}
		routes := d.Ctl.Routes()
		groups := make([]int, 0, len(routes))
		for g := range routes {
			groups = append(groups, int(g))
		}
		sort.Ints(groups)
		slots := make(map[packet.Addr]int)
		for _, rt := range routes {
			for _, h := range rt.Hops {
				slots[h]++
			}
		}
		members := d.Ring.Switches()
		plans := make(map[ring.GroupID][]packet.Addr)
		for _, gi := range groups {
			rt := routes[uint16(gi)]
			idx := -1
			for i, h := range rt.Hops {
				if h == congested {
					idx = i
				}
			}
			if idx < 0 {
				continue
			}
			var best packet.Addr
			bestSlots := -1
			for _, m := range members {
				if m == congested || d.Net.Failed(m) {
					continue
				}
				in := false
				for _, h := range rt.Hops {
					if h == m {
						in = true
					}
				}
				if in {
					continue
				}
				if bestSlots < 0 || slots[m] < bestSlots || (slots[m] == bestSlots && m < best) {
					best, bestSlots = m, slots[m]
				}
			}
			if bestSlots < 0 {
				continue // nowhere to move this chain
			}
			hops := append([]packet.Addr(nil), rt.Hops...)
			hops[idx] = best
			slots[best]++
			slots[congested]--
			plans[ring.GroupID(gi)] = hops
		}
		return plans
	}
}
