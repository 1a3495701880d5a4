// Package experiments regenerates every table and figure of the paper's
// evaluation (§8) on the simulated substrate: Table 1 and Figs. 9(a)–(f),
// 10(a)(b), 11. Each experiment returns structured rows that the
// benchrunner binary and the root bench suite print alongside the paper's
// published values (EXPERIMENTS.md records the comparison).
//
// The nemesis-driven chaos run exists once as a workload (chaosload.go: op
// mix, lock bookkeeping, lincheck recorder, report tail) and twice as a
// harness: chaos.go drives it on the simulator, realchaos.go on live UDP.
package experiments

import (
	"fmt"
	"math/rand"

	"netchain/internal/controller"
	"netchain/internal/core"
	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/netsim"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/ring"
	"netchain/internal/simclient"
	"netchain/internal/workload"
)

// Deployment is a fully wired simulated NetChain over one of two
// substrates: the Fig. 8 testbed (TB set, ring over S0..S2, S3 spare) or
// a parameterized multi-tier fabric (Fab set, ring over the member
// leaves — see NewFabricDeployment). Net always points at the underlying
// network; code that only forwards frames or resolves switches should
// use it instead of TB so it runs on both substrates.
type Deployment struct {
	Sim     *event.Sim
	Net     *netsim.Network
	TB      *netsim.Testbed // nil on fabric deployments
	Fab     *netsim.Fabric  // nil on testbed deployments
	Ring    *ring.Ring
	Ctl     *controller.Controller
	Muxes   []*simclient.Mux
	Profile netsim.Profile

	// Fabric-only wiring (see NewFabricDeployment).
	members   []packet.Addr // ring member leaves, build order
	spares    []packet.Addr // leaves held out as the recovery pool
	writeFrac float64       // planner's write share

	relay *SimRelay // push-watch relay tier, nil until AttachRelay
}

// SwitchAddrs returns every switch address on either substrate.
func (d *Deployment) SwitchAddrs() []packet.Addr {
	if d.Fab != nil {
		return d.Fab.SwitchAddrs()
	}
	return d.TB.SwitchAddrs()
}

// HostAddrs returns every client host address on either substrate.
func (d *Deployment) HostAddrs() []packet.Addr {
	if d.Fab != nil {
		return append([]packet.Addr(nil), d.Fab.Hosts...)
	}
	return append([]packet.Addr(nil), d.TB.Hosts[:]...)
}

// AttachMonitor adds the out-of-band health-monitoring host on either
// substrate. Idempotent.
func (d *Deployment) AttachMonitor() (packet.Addr, error) {
	if d.Fab != nil {
		return d.Fab.AttachMonitor()
	}
	return d.TB.AttachMonitor()
}

// Spares returns the recovery pool: the testbed spare S3, or the leaves a
// fabric deployment held out of the ring (possibly none).
func (d *Deployment) Spares() []packet.Addr {
	if d.Fab != nil {
		return append([]packet.Addr(nil), d.spares...)
	}
	return []packet.Addr{d.TB.Switches[3]}
}

// Topology names the substrate in the -topology grammar.
func (d *Deployment) Topology() string {
	if d.Fab != nil {
		return d.Fab.Spec.String()
	}
	return "ring"
}

// NewController replaces d.Ctl with a controller configured by ccfg over
// the deployment's ring, simulated clock and switches. Both constructors
// call it with the default config; experiments that need other timing
// call it again before they load the store.
func (d *Deployment) NewController(ccfg controller.Config) error {
	ctl, err := controller.New(ccfg, d.Ring, controller.SimScheduler{Sim: d.Sim},
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

// NewDeployment builds the standard testbed deployment. scale divides all
// rates (see netsim.Profile); vnodes is virtual nodes per switch.
func NewDeployment(scale float64, vnodes int, seed int64) (*Deployment, error) {
	sim := event.New()
	prof := netsim.PaperProfile(scale)
	tb, err := netsim.NewTestbed(sim, prof, seed)
	if err != nil {
		return nil, err
	}
	r, err := ring.New(ring.Config{VNodesPerSwitch: vnodes, Replicas: 3, Seed: uint64(seed)},
		[]packet.Addr{tb.Switches[0], tb.Switches[1], tb.Switches[2]})
	if err != nil {
		return nil, err
	}
	d := &Deployment{Sim: sim, Net: tb.Net, TB: tb, Ring: r, Profile: prof}
	if err := d.NewController(controller.DefaultConfig()); err != nil {
		return nil, err
	}
	for _, h := range tb.Hosts {
		mux, err := simclient.NewMux(sim, tb.Net, h)
		if err != nil {
			return nil, err
		}
		d.Muxes = append(d.Muxes, mux)
	}
	return d, nil
}

// Directory returns an always-fresh route lookup backed by the controller.
func (d *Deployment) Directory() simclient.Directory {
	return func(k kv.Key) query.Route {
		rt := d.Ctl.Route(k)
		return query.Route{Group: rt.Group, Hops: rt.Hops}
	}
}

// FrozenDirectory snapshots the current routes: clients keep using them
// through failures, exactly like the paper's agents whose chain mappings
// propagate slowly (§4.2) — the neighbor rules make stale routes work.
func (d *Deployment) FrozenDirectory() simclient.Directory {
	snap := d.Ctl.Routes()
	return func(k kv.Key) query.Route {
		rt := snap[uint16(d.Ring.GroupForKey(k))]
		return query.Route{Group: rt.Group, Hops: rt.Hops}
	}
}

// LoadStore inserts n keys and preloads valueSize-byte values through the
// control plane (versions start at 1, as after one chain write). It
// returns the keys.
func (d *Deployment) LoadStore(n, valueSize int) ([]kv.Key, error) {
	keys := workload.KeySpace(n)
	for i, k := range keys {
		rt, err := d.Ctl.Insert(k)
		if err != nil {
			return nil, fmt.Errorf("load key %d: %w", i, err)
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
	}
	return keys, nil
}

// KeysInGroup filters keys to those owned by virtual group g — used by the
// Fig. 10(a) "single virtual group" scenario.
func (d *Deployment) KeysInGroup(keys []kv.Key, g ring.GroupID) []kv.Key {
	var out []kv.Key
	for _, k := range keys {
		if d.Ring.GroupForKey(k) == g {
			out = append(out, k)
		}
	}
	return out
}

// mixSource adapts a workload mix over concrete keys to a generator feed.
func mixSource(keys []kv.Key, writeRatio float64, valueSize int, seed int64) func(n uint64) (kv.Op, kv.Key, kv.Value) {
	rng := rand.New(rand.NewSource(seed))
	val := workload.Value(valueSize, uint64(seed))
	return func(n uint64) (kv.Op, kv.Key, kv.Value) {
		k := keys[rng.Intn(len(keys))]
		if rng.Float64() < writeRatio {
			return kv.OpWrite, k, val
		}
		return kv.OpRead, k, nil
	}
}

// runGenerators starts one open-loop generator per mux (the paper's 1–4
// client servers) for the window and returns delivered OK QPS, scaled
// back to unscaled units. outWindow caps each generator's outstanding
// queries (0 = unbounded).
func (d *Deployment) runGenerators(servers int, keys []kv.Key, writeRatio float64,
	valueSize int, window event.Time, outWindow int) (deliveredQPS float64, gens []*simclient.Generator) {
	if servers > len(d.Muxes) {
		servers = len(d.Muxes)
	}
	cfg := simclient.DefaultConfig()
	cfg.Window = outWindow
	rate := d.Profile.HostRate / d.Profile.Scale
	dir := d.Directory()
	for i := 0; i < servers; i++ {
		g := d.Muxes[i].NewGenerator(cfg, dir, mixSource(keys, writeRatio, valueSize, int64(i+1)))
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
