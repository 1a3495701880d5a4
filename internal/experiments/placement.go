package experiments

import (
	"fmt"
	"slices"
	"time"

	"netchain/internal/kv"
	"netchain/internal/netsim"
	"netchain/internal/packet"
	"netchain/internal/place"
	"netchain/internal/ring"
	"netchain/internal/workload"
)

// PlacementScaling is the "scale-free actually scales" experiment: the
// same client-affine workload (each leaf's hosts query their own leaf's
// virtual groups) is offered to a sweep of fabrics whose inter-switch
// links are metered, once with naive round-robin placement and once with
// the bottleneck-aware planner. Round-robin parks chain tails behind
// remote uplinks, so its delivered throughput flat-lines at the hottest
// link's budget as leaves are added; bottleneck-aware placement keeps
// reads off the transit links entirely and scales near-linearly with the
// client population — the property the paper's title claims and its
// evaluation never measures.
type PlacementOpts struct {
	// Topologies to sweep (grammar of netsim.ParseTopology, fabrics only).
	// Default: spine-leaf:2x4, spine-leaf:4x8, fattree:4 — 4, 8 and 8
	// leaves, so the sweep shows scaling, not a single point.
	Topologies []string
	Seed       int64 // default 1
}

func (o *PlacementOpts) defaults() {
	if len(o.Topologies) == 0 {
		o.Topologies = []string{"spine-leaf:2x4", "spine-leaf:4x8", "fattree:4"}
	}
	if o.Seed == 0 {
		o.Seed = figSeed
	}
}

// PlacementArm is one (topology, placement policy) measurement.
type PlacementArm struct {
	Topology  string
	Placement string  // "roundrobin" | "bottleneck"
	Leaves    int     // member leaves = client-bearing edge switches
	Hosts     int     // generator hosts
	OpsPerSec float64 // delivered OK throughput, unscaled units
	ModelMax  float64 // planner's predicted hottest-link load (model units)
	LinkDrops uint64  // metered-link tail drops during the window
}

// PlacementResult is the full sweep.
type PlacementResult struct {
	Arms []PlacementArm
	// Gain maps topology → bottleneck/roundrobin delivered-throughput
	// ratio: the headline number (>= 2x on fattree:4 is the CI gate).
	Gain map[string]float64
}

// RunPlacementScaling executes the sweep. Deterministic: simulated-time
// quantities only, identical across machines for a given seed.
func RunPlacementScaling(o PlacementOpts) (*PlacementResult, error) {
	o.defaults()
	res := &PlacementResult{Gain: make(map[string]float64)}
	for _, topo := range o.Topologies {
		spec, err := netsim.ParseTopology(topo)
		if err != nil {
			return nil, err
		}
		if spec.Kind == "ring" {
			return nil, fmt.Errorf("experiments: placement scaling wants a fabric, got %q", topo)
		}
		for _, placement := range []string{"roundrobin", "bottleneck"} {
			arm, err := runPlacementArm(o, spec, placement)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", topo, placement, err)
			}
			res.Arms = append(res.Arms, *arm)
		}
		if rr, bn := res.Arms[len(res.Arms)-2], res.Arms[len(res.Arms)-1]; rr.OpsPerSec > 0 {
			res.Gain[spec.String()] = bn.OpsPerSec / rr.OpsPerSec
		}
	}
	return res, nil
}

func runPlacementArm(o PlacementOpts, spec netsim.TopoSpec, placement string) (*PlacementArm, error) {
	// FabricOpts' defaults (scale 1/1000, 4 vnodes and 2 hosts per leaf),
	// every inter-switch link metered at 4 MPPS before scaling: far below a
	// leaf's aggregate client demand, so a placement that sends reads across
	// the fabric saturates. 3 keys per group, the §8.2 mix, 10 ms.
	r, err := scenario{
		fabric: FabricOpts{Spec: spec, Seed: o.Seed, LinkPPS: 4e6, Placement: placement},
		store: func(d *Deployment) (func(int) []kv.Key, error) {
			groupKeys, err := d.LoadAffineStore(3, 64)
			return d.affineKeys(groupKeys), err
		},
		loads: []load{{mux: everyMux, writeRatio: 0.1, valueSize: 64}},
		stop:  10 * time.Millisecond,
	}.run()
	if err != nil {
		return nil, err
	}
	// Evaluate the installed chains under the planner's own load model so
	// the table shows model vs measurement side by side.
	return &PlacementArm{
		Topology:  spec.String(),
		Placement: placement,
		Leaves:    len(r.members),
		Hosts:     len(r.gens),
		OpsPerSec: r.okQPS(),
		ModelMax:  place.MaxLinkLoad(r.PlaceTopology(), installedChains(r.Deployment)),
		LinkDrops: r.Net.Stats().LinkDrops,
	}, nil
}

// GroupClients returns the hosts that query virtual group g under the
// client-affinity model: coordination traffic is service-local (§2's use
// cases all are), so group g belongs to member leaf g mod M and is
// queried by that leaf's own hosts. This affinity is what bottleneck-
// aware placement exploits — park the tail under the clients' leaf and
// reads never cross a metered transit link.
func (d *Deployment) GroupClients(g int) []packet.Addr {
	leaf := d.members[g%len(d.members)]
	var out []packet.Addr
	for _, h := range d.Fab.Hosts {
		if d.Fab.HostLeaf[h] == leaf {
			out = append(out, h)
		}
	}
	return out
}

// PlaceTopology exposes the fabric to the placement planner: the members
// as candidates, each its own anti-affinity domain, the flow paths as the
// traffic model, and the client-affinity group→hosts map.
func (d *Deployment) PlaceTopology() place.Topology {
	return place.Topology{
		Candidates: slices.Clone(d.members),
		Domain:     d.Fab.Domain,
		Hosts:      d.Fab.Hosts,
		Path:       d.Fab.Path,
		GroupHosts: d.GroupClients,
	}
}

// LoadAffineStore mines perGroup keys for every virtual group (so each
// leaf's clients have local keys to query) and preloads valueSize-byte
// values. Keys are found by deterministic scanning over a counter
// namespace — no randomness, same keys every run.
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
		if err := d.Preload(k, workload.Value(valueSize, uint64(i))); err != nil {
			return nil, err
		}
		out[g] = append(out[g], k)
		loaded++
	}
	return out, nil
}

// affineKeys is the affinity workload's key feed: each host queries the
// groups GroupClients gives it, so member-leaf hosts query only their own
// leaf's groups and spare-leaf hosts stay quiet.
func (d *Deployment) affineKeys(groupKeys map[ring.GroupID][]kv.Key) func(mux int) []kv.Key {
	byHost := make(map[packet.Addr][]kv.Key)
	for g := 0; g < d.Ring.Groups(); g++ {
		for _, h := range d.GroupClients(g) {
			byHost[h] = append(byHost[h], groupKeys[ring.GroupID(g)]...)
		}
	}
	return func(mux int) []kv.Key { return byHost[d.Fab.Hosts[mux]] }
}

// installedChains snapshots the routes actually being served, indexed by
// group — the plan the arm ran under.
func installedChains(d *Deployment) [][]packet.Addr {
	routes := d.Ctl.Routes()
	out := make([][]packet.Addr, d.Ring.Groups())
	for g := range out {
		if rt, ok := routes[uint16(g)]; ok {
			out[g] = append([]packet.Addr(nil), rt.Hops...)
		}
	}
	return out
}

// FormatPlacement renders the sweep as the table benchrunner prints.
func FormatPlacement(r *PlacementResult) string {
	s := fmt.Sprintf("%-16s %-12s %7s %7s %12s %10s %10s\n",
		"topology", "placement", "leaves", "hosts", "MQPS", "model max", "link drops")
	for _, a := range r.Arms {
		s += fmt.Sprintf("%-16s %-12s %7d %7d %12.3f %10.3f %10d\n",
			a.Topology, a.Placement, a.Leaves, a.Hosts, a.OpsPerSec/1e6, a.ModelMax, a.LinkDrops)
	}
	// Gain lines in sweep order: a topology's arms are adjacent.
	for i, a := range r.Arms {
		if g, ok := r.Gain[a.Topology]; ok && (i == 0 || r.Arms[i-1].Topology != a.Topology) {
			s += fmt.Sprintf("gain[%s] = %.2fx (bottleneck-aware over round-robin)\n", a.Topology, g)
		}
	}
	return s
}
