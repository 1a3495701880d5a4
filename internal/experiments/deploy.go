// Package experiments regenerates every table and figure of the paper's
// evaluation (§8) on the simulated substrate: Table 1 and Figs. 9(a)–(f),
// 10(a)(b), 11. Each experiment returns structured rows that the
// benchrunner binary and the root bench suite print alongside the paper's
// published values (EXPERIMENTS.md records the comparison).
//
// Every simulated experiment runs on one Deployment, built by
// NewDeployment over any netsim.Fabric shape: the Fig. 8 ring (the
// default) or a spine-leaf / fat-tree fabric. Figs. 9(a)–(e), 10, the
// resize and the placement sweep are each one scenario (scenario.go):
// fabric options, controller timing, a store loader, open-loop loads and
// timeline steps, played by one runner, so any of them moves to a fabric
// by changing its FabricOpts. Parameters no caller varies are constants
// next to the figure that uses them.
//
// The nemesis-driven chaos run exists once as a workload (chaosload.go: op
// mix, lock bookkeeping, lincheck recorder, report tail) and twice as a
// harness: chaos.go drives it on the simulator, realchaos.go on live UDP.
package experiments

import (
	"fmt"
	"slices"

	"netchain/internal/controller"
	"netchain/internal/core"
	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/netsim"
	"netchain/internal/packet"
	"netchain/internal/place"
	"netchain/internal/query"
	"netchain/internal/ring"
	"netchain/internal/simclient"
	"netchain/internal/workload"
)

// Deployment is a fully wired simulated NetChain: a fabric, a ring over
// its member candidates, the controller, and one client mux per host.
// Net is Fab.Net.
type Deployment struct {
	Sim     *event.Sim
	Net     *netsim.Network
	Fab     *netsim.Fabric
	Ring    *ring.Ring
	Ctl     *controller.Controller
	Muxes   []*simclient.Mux
	Profile netsim.Profile

	members []packet.Addr // ring members, build order
	spares  []packet.Addr // candidates held out as the recovery pool

	relay *SimRelay // push-watch relay tier, nil until AttachRelay
}

// figSeed seeds every simulated figure: the deployment default, the
// baseline's and the transaction workload's.
const figSeed = 1

// FabricOpts sizes a deployment over any netsim.Fabric shape: the Fig. 8
// ring, or a multi-tier fabric — the scale-free substrate of §8.3 with ECMP
// routing and (optionally) metered inter-switch links, so placement
// quality is observable as delivered throughput instead of an article of
// faith.
type FabricOpts struct {
	Spec  netsim.TopoSpec // see netsim.ParseTopology; zero value = ring
	Scale float64         // rate divisor, default 1000
	// VNodes is virtual nodes per ring member; default 4 (fabrics have
	// many leaves, so fewer vnodes per leaf keep group counts sane).
	VNodes       int
	Seed         int64 // default 1
	HostsPerLeaf int   // client hosts per leaf, default 2
	// LinkPPS meters every inter-switch link at LinkPPS/Scale packets per
	// second (0 = unmetered) — the knob that makes high-betweenness links
	// saturable and bad placement measurable.
	LinkPPS float64
	// Spares holds the last N candidates out of the ring as the recovery
	// pool (their hosts stay idle). Default: 1 on the ring (the spare S3),
	// 0 on fabrics, where every leaf is a member.
	Spares int
	// Placement picks how chains land on the members:
	//   "hash"       — the consistent-hash ring's own assignment (default)
	//   "roundrobin" — the naive walk (place.RoundRobin), the baseline arm
	//   "bottleneck" — link-load-aware greedy (place.BottleneckAware)
	Placement string
}

func (o *FabricOpts) defaults() {
	if o.Spec.Kind == "" {
		o.Spec.Kind = "ring"
	}
	if o.Scale == 0 {
		o.Scale = 1000
	}
	if o.VNodes == 0 {
		o.VNodes = 4
	}
	if o.Seed == 0 {
		o.Seed = figSeed
	}
	if o.HostsPerLeaf == 0 {
		o.HostsPerLeaf = 2
	}
	if o.Spares == 0 && o.Spec.Kind == "ring" {
		o.Spares = 1
	}
	if o.Placement == "" {
		o.Placement = "hash"
	}
}

// NewDeployment builds the fabric, a ring over its member candidates, the
// controller, and one client mux per host. When Placement is not "hash"
// the planned chains are installed as ring placement overrides before the
// controller snapshots routes, so every route served afterwards is the
// planned one.
func NewDeployment(o FabricOpts) (*Deployment, error) {
	o.defaults()
	sim := event.New()
	prof := netsim.PaperProfile(o.Scale)
	fb, err := netsim.NewFabric(sim, prof, o.Seed, o.Spec, o.HostsPerLeaf, o.LinkPPS)
	if err != nil {
		return nil, err
	}
	n := len(fb.Candidates) - o.Spares
	if o.Spares < 0 || n < 3 {
		return nil, fmt.Errorf("experiments: Spares %d leaves fewer than 3 members on %s",
			o.Spares, o.Spec)
	}
	members := slices.Clone(fb.Candidates[:n])
	spares := slices.Clone(fb.Candidates[n:])

	r, err := ring.New(ring.Config{VNodesPerSwitch: o.VNodes, Replicas: 3, Seed: uint64(o.Seed)},
		members)
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		Sim: sim, Net: fb.Net, Fab: fb, Ring: r, Profile: prof,
		members: members, spares: spares,
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

// SwitchAddrs returns every switch address.
func (d *Deployment) SwitchAddrs() []packet.Addr { return d.Fab.SwitchAddrs() }

// HostAddrs returns every client host address.
func (d *Deployment) HostAddrs() []packet.Addr { return slices.Clone(d.Fab.Hosts) }

// Spares returns the recovery pool: the candidates held out of the ring
// (the ring's S3 by default; possibly none on a fabric).
func (d *Deployment) Spares() []packet.Addr { return slices.Clone(d.spares) }

// Topology names the substrate in the -topology grammar.
func (d *Deployment) Topology() string { return d.Fab.Spec.String() }

// NewController replaces d.Ctl with a controller configured by ccfg over
// the deployment's ring, simulated clock and switches. NewDeployment calls
// it with the default config; experiments that need other timing call it
// again before they load the store.
func (d *Deployment) NewController(ccfg controller.Config) error {
	ctl, err := controller.New(ccfg, d.Ring, d.Sim.Clock(),
		func(a packet.Addr) (controller.Agent, bool) {
			sw, ok := d.Net.Switch(a)
			if !ok {
				return nil, false
			}
			return controller.LocalAgent{Switch: sw}, true
		}, d.Net.SwitchNeighbors)
	if err != nil {
		return err
	}
	d.Ctl = ctl
	return nil
}

// Directory returns an always-fresh route lookup backed by the controller.
func (d *Deployment) Directory() simclient.Directory {
	return func(k kv.Key) query.Route { return d.Ctl.Route(k) }
}

// FrozenDirectory snapshots the current routes: clients keep using them
// through failures, exactly like the paper's agents whose chain mappings
// propagate slowly (§4.2) — the neighbor rules make stale routes work.
func (d *Deployment) FrozenDirectory() simclient.Directory {
	snap := d.Ctl.Routes()
	return func(k kv.Key) query.Route { return snap[uint16(d.Ring.GroupForKey(k))] }
}

// Preload inserts k through the control plane and writes val straight
// into every chain member's registers at version 1, as after one chain
// write — how every experiment seeds its store.
func (d *Deployment) Preload(k kv.Key, val kv.Value) error {
	rt, err := d.Ctl.Insert(k)
	if err != nil {
		return err
	}
	it := core.Item{Key: k, Value: val, Version: kv.Version{Seq: 1}}
	for _, hop := range rt.Hops {
		sw, ok := d.Net.Switch(hop)
		if !ok {
			return fmt.Errorf("experiments: no switch %v", hop)
		}
		if err := sw.WriteItem(it); err != nil {
			return err
		}
	}
	return nil
}

// LoadStore preloads n keys with valueSize-byte values and returns them.
func (d *Deployment) LoadStore(n, valueSize int) ([]kv.Key, error) {
	keys := workload.KeySpace(n)
	for i, k := range keys {
		if err := d.Preload(k, workload.Value(valueSize, uint64(i))); err != nil {
			return nil, fmt.Errorf("load key %d: %w", i, err)
		}
	}
	return keys, nil
}
