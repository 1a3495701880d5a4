package netchain

import (
	"fmt"
	"time"

	"netchain/internal/controller"
	"netchain/internal/event"
	"netchain/internal/experiments"
	"netchain/internal/health"
	"netchain/internal/kv"
	"netchain/internal/netsim"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/simclient"
)

// SimConfig sizes a simulated cluster: the paper's Fig. 8 testbed (four
// Tofino switches, four servers) by default, or a parameterized multi-tier
// fabric via Topology.
type SimConfig struct {
	// Scale divides all rates for tractable event counts; 1 simulates true
	// hardware rates. Default 1000.
	Scale float64
	// VNodesPerSwitch sets virtual-group granularity. Default 8 on the
	// testbed, 4 on fabrics (which have many more member switches).
	VNodesPerSwitch int
	// Seed drives placement and loss determinism. Default 1.
	Seed int64
	// Topology picks the substrate: "ring" (default, the Fig. 8 testbed),
	// "spine-leaf:SxL" or "fattree:k". Fabric clusters run two hosts per
	// leaf, hold the last leaf out of the ring as the recovery spare, and
	// install bottleneck-aware chain placement.
	Topology string
}

func (c *SimConfig) defaults() {
	if c.Scale == 0 {
		c.Scale = 1000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Topology == "" {
		c.Topology = "ring"
	}
}

// SimCluster is a deterministic simulation of the configured fabric: the
// real cluster's dataplane and controller code driven by a discrete-event
// engine. The verbs it shares with Cluster take Cluster's shapes.
type SimCluster struct {
	d  *experiments.Deployment
	ap *experiments.AutopilotHarness
}

// NewSimCluster builds the simulated cluster on the configured topology.
func NewSimCluster(cfg SimConfig) (*SimCluster, error) {
	cfg.defaults()
	spec, err := netsim.ParseTopology(cfg.Topology)
	if err != nil {
		return nil, err
	}
	o := experiments.FabricOpts{
		Spec: spec, Scale: cfg.Scale, VNodes: cfg.VNodesPerSwitch, Seed: cfg.Seed, Spares: 1,
	}
	if spec.Kind != "ring" {
		o.Placement = "bottleneck"
	} else if o.VNodes == 0 {
		o.VNodes = 8
	}
	d, err := experiments.NewDeployment(o)
	if err != nil {
		return nil, err
	}
	return &SimCluster{d: d}, nil
}

// Topology reports the substrate the cluster runs on ("ring" or the
// fabric spec, e.g. "fattree:4").
func (s *SimCluster) Topology() string { return s.d.Topology() }

// Insert allocates a key on its chain.
func (s *SimCluster) Insert(k Key) error {
	_, err := s.d.Ctl.Insert(k)
	return err
}

// Now returns the current simulated time.
func (s *SimCluster) Now() time.Duration { return time.Duration(s.d.Sim.Now()) }

// RunFor advances simulated time.
func (s *SimCluster) RunFor(d time.Duration) { s.d.Sim.RunFor(event.Duration(d)) }

// await starts a controller operation and steps the simulator until the
// operation calls back on done — instead of Sim.Run(), because with the
// autopilot enabled the heartbeat/probe/reconcile loops keep the event
// queue populated forever and a full drain would never return. Every
// blocking verb goes through it.
func (s *SimCluster) await(what string, start func(done func()) error) error {
	finished := false
	if err := start(func() { finished = true }); err != nil {
		return err
	}
	for !finished && s.d.Sim.Step() {
	}
	if !finished {
		return fmt.Errorf("netchain: simulated %s did not finish", what)
	}
	return nil
}

// FailSwitch fail-stops switch i and hands the failure to the controller
// at once; it returns when fast failover has rewired the neighbors.
func (s *SimCluster) FailSwitch(i int) error {
	addr, err := s.SwitchAddr(i)
	if err != nil {
		return err
	}
	if err := s.d.Net.FailSwitch(addr); err != nil {
		return err
	}
	return s.await("failover", func(done func()) error { return s.d.Ctl.HandleFailure(addr, done) })
}

// Recover restores switch i's chains onto the spare switch j.
func (s *SimCluster) Recover(i, spare int) error {
	failed, err := s.SwitchAddr(i)
	if err != nil {
		return err
	}
	pool, err := s.SwitchAddr(spare)
	if err != nil {
		return err
	}
	return s.await("recovery", func(done func()) error {
		return s.d.Ctl.Recover(failed, []packet.Addr{pool}, done)
	})
}

// SwitchAddr resolves switch index i to its fabric address — the handle
// nemesis schedules and route pins are built from. Indexes follow build
// order: on the ring 0..3 are S0..S3 and higher indexes are switches
// AddSwitch cabled in later; on a fabric the top tier (spines/cores) comes
// first, then per pod aggregation and edge switches.
func (s *SimCluster) SwitchAddr(i int) (packet.Addr, error) {
	sws := s.d.Fab.Switches
	if i < 0 || i >= len(sws) {
		return 0, fmt.Errorf("netchain: switch %d out of range", i)
	}
	return sws[i], nil
}

// AddSwitch cables a brand-new switch into the ring (linked to S0 and S2
// like the spare) and live-migrates the cluster onto a layout that
// includes it: the switch joins with its own virtual groups, state is
// copied over group by group, and routes flip atomically — reads keep
// serving throughout. With the autopilot on, the new switch beacons and is
// watched from the start. It returns the new switch's index once the
// migration completes. Fabrics size their switch population from the
// topology spec and hold spare leaves instead, so AddSwitch errors there.
func (s *SimCluster) AddSwitch() (int, error) {
	addr, err := s.d.Fab.AddSwitch()
	if err != nil {
		return 0, err
	}
	if s.ap != nil {
		s.ap.StartBeacon(addr)
		s.ap.Watch(addr)
	}
	if err := s.await("scale-out", func(done func()) error {
		_, err := s.d.Ctl.AddSwitch(addr, done)
		return err
	}); err != nil {
		return 0, err
	}
	return len(s.d.Fab.Switches) - 1, nil
}

// RemoveSwitch live-drains switch i out of the ring: its virtual groups
// retire, their keys merge into successor groups (data copied before
// routes flip), and the switch ends up empty. It returns when the drain
// completes; the switch stays cabled but carries no state.
func (s *SimCluster) RemoveSwitch(i int) error {
	addr, err := s.SwitchAddr(i)
	if err != nil {
		return err
	}
	if err := s.await("scale-in", func(done func()) error {
		_, err := s.d.Ctl.RemoveSwitch(addr, done)
		return err
	}); err != nil {
		return err
	}
	if s.ap != nil {
		// Retirement, not failure: stop watching the drained switch so
		// powering it off cannot trigger a phantom repair.
		s.ap.Forget(addr)
	}
	return nil
}

// Close stops the autopilot's heartbeat, probe and reconcile loops, if
// EnableAutopilot started them; the simulator itself holds no resources.
func (s *SimCluster) Close() error {
	if s.ap != nil {
		s.ap.Stop()
	}
	return nil
}

// HostAddress resolves host index h to its network address, in leaf-major
// order (ring: H0,H1 on S0, then H2,H3 on S2).
func (s *SimCluster) HostAddress(h int) (packet.Addr, error) {
	hosts := s.d.HostAddrs()
	if h < 0 || h >= len(hosts) {
		return 0, fmt.Errorf("netchain: host %d out of range", h)
	}
	return hosts[h], nil
}

// EnableAutopilot starts the self-healing control plane: per-switch
// heartbeat beacons feed a φ-accrual failure detector, data-plane probes
// score each switch's measured forwarding quality, and a reconcile loop
// repairs what the detector convicts — fast failover + recovery from the
// spare pool for fail-stop verdicts, tail demotion (reads drain off the
// degraded switch) for gray ones. No manual FailSwitch/Recover calls are
// needed afterwards; kill a switch with KillSwitch and watch the cluster
// heal. Idempotent.
func (s *SimCluster) EnableAutopilot() error {
	if s.ap != nil {
		return nil
	}
	h, err := experiments.StartAutopilot(s.d, experiments.AutopilotOpts{})
	if err != nil {
		return err
	}
	s.ap = h
	return nil
}

// KillSwitch fail-stops switch i WITHOUT notifying the control plane —
// detection is the autopilot's job (compare FailSwitch, which hands the
// failure to the controller at once). Advance
// simulated time with RunFor and watch RepairHistory.
func (s *SimCluster) KillSwitch(i int) error {
	addr, err := s.SwitchAddr(i)
	if err != nil {
		return err
	}
	return s.d.Net.FailSwitch(addr)
}

// HealthSnapshot returns every switch's detector state — φ score, probe
// RTT EWMAs, verdict — as of the current simulated time. Empty until
// EnableAutopilot.
func (s *SimCluster) HealthSnapshot() []health.SwitchHealth {
	if s.ap == nil {
		return nil
	}
	return s.ap.Det.Snapshot(time.Duration(s.d.Sim.Now()))
}

// RepairHistory returns the autopilot's repair log. Empty until
// EnableAutopilot.
func (s *SimCluster) RepairHistory() []controller.RepairEvent {
	if s.ap == nil {
		return nil
	}
	return s.ap.Pilot.History()
}

// RunNemesis registers an adversarial fault schedule (reordering,
// duplication, jitter, asymmetric partitions, gray-degraded switches — see
// internal/netsim) with the cluster's simulator. Steps fire as simulated
// time passes through their At marks during subsequent RunFor/operation
// calls. The returned handle reports injection errors and keeps a
// timestamped log of what the nemesis did.
func (s *SimCluster) RunNemesis(sch netsim.Schedule) *netsim.Nemesis {
	return netsim.RunSchedule(s.d.Sim.Clock(), s.d.Net, sch)
}

// RunNamedNemesis registers one of the named chaos schedules (see
// experiments.ChaosScheduleNames: reorder-dup, asym-partition, gray-tail,
// full-nemesis) against the cluster's simulator. The schedule carries
// only the fault timeline; "full-nemesis" callers inject the fail-stop
// themselves via FailSwitch/Recover.
func (s *SimCluster) RunNamedNemesis(name string) (*netsim.Nemesis, error) {
	sch, err := experiments.BuildSchedule(s.d, name)
	if err != nil {
		return nil, err
	}
	return netsim.RunSchedule(s.d.Sim.Clock(), s.d.Net, sch), nil
}

// NetStats snapshots the fabric counters, including the nemesis's
// drop/duplicate/reorder/partition/gray tallies.
func (s *SimCluster) NetStats() netsim.Stats { return s.d.Net.Stats() }

// SimClient is a synchronous-feeling client over the simulation: each call
// injects the query and runs the simulator until the reply (or timeout)
// resolves, so examples and tests read top-to-bottom.
type SimClient struct {
	s   *SimCluster
	c   *simclient.Client
	mux *simclient.Mux
}

// NewClient binds a client to host h (see HostAddress for the order).
func (s *SimCluster) NewClient(h int) (*SimClient, error) {
	if h < 0 || h >= len(s.d.Muxes) {
		return nil, fmt.Errorf("netchain: host %d out of range", h)
	}
	c, err := s.d.Muxes[h].NewClient(simclient.DefaultConfig(), s.d.Directory())
	if err != nil {
		return nil, err
	}
	return &SimClient{s: s, c: c, mux: s.d.Muxes[h]}, nil
}

// do issues one call and steps the simulator until the reply (or timeout)
// resolves it, rather than draining the simulator (see await). The
// client's one retry-scan event may outlive the call; it finds nothing
// pending during a later call or RunFor and does not reschedule itself.
// The result is read exactly as the wire client's Ops reads it.
func (sc *SimClient) do(call query.Call) (query.Outcome, error) {
	var res simclient.Result
	got := false
	sc.c.Do(call, func(r simclient.Result) { res = r; got = true })
	for !got && sc.s.d.Sim.Step() {
	}
	if !got {
		return query.Outcome{}, ErrTimeout
	}
	return res.Outcome()
}

// Read returns the value and version of k.
func (sc *SimClient) Read(k Key) (Value, Version, error) {
	out, err := sc.do(query.Call{Op: kv.OpRead, Key: k})
	return out.Value, out.Version, err
}

// Write stores v under k.
func (sc *SimClient) Write(k Key, v Value) (Version, error) {
	out, err := sc.do(query.Call{Op: kv.OpWrite, Key: k, Value: v})
	return out.Version, err
}

// Delete tombstones k.
func (sc *SimClient) Delete(k Key) error {
	_, err := sc.do(query.Call{Op: kv.OpDelete, Key: k})
	return err
}

// CAS swaps iff the stored owner equals expect.
func (sc *SimClient) CAS(k Key, expect uint64, newValue Value) (bool, Value, error) {
	out, err := sc.do(query.Call{Op: kv.OpCAS, Key: k, Expect: expect, Value: newValue})
	return out.Swapped, out.Value, err
}

// Acquire takes an exclusive lock for owner; ok reports success, and a
// retry that finds the lock already ours counts as success.
func (sc *SimClient) Acquire(lock Key, owner uint64) (bool, error) {
	out, err := sc.do(query.Acquire(lock, owner))
	return out.Landed, err
}

// Release returns the lock held by owner.
func (sc *SimClient) Release(lock Key, owner uint64) (bool, error) {
	out, err := sc.do(query.Release(lock, owner))
	return out.Landed, err
}

// LatencySummary returns the observed query latency distribution summary — with
// the paper's constants this sits at ~9.7 µs end to end (§8.2).
func (sc *SimClient) LatencySummary() string { return sc.c.Latency.Summary() }
