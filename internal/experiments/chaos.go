package experiments

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"time"

	"netchain/internal/controller"
	"netchain/internal/event"
	"netchain/internal/netsim"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/simclient"
)

// Chaos is the nemesis-driven correctness scenario: concurrent clients
// run reads, writes and CAS lock handoffs against the Fig. 8 testbed
// while a scripted fault schedule mangles the network — reordering,
// duplication, jitter, an asymmetric partition, a gray-degraded switch,
// and (in the full schedule) a fail-stop failover plus recovery. The
// recorded history is validated with internal/lincheck, and the whole
// run is deterministic: two runs of the same seed produce identical
// histories, counters and verdicts (the Fingerprint pins this). The
// workload — keys, op mix, lock bookkeeping, history recorder — is chaosLoad
// (chaosload.go), shared with the wire run; this file keeps the simulator's
// own: the deployment, scripted or autopilot repair, the fingerprint.
//
// This is the evaluation the paper doesn't have: Figs. 9(d)/10/11 cover
// uniform loss and clean fail-stop, but the protocol's safety rests on
// ordering and session invariants that only bite under duplication,
// reordering and half-open reachability. Every future PR's correctness
// story runs through this scenario via `benchrunner -exp chaos` and the
// nightly CI matrix.

// ChaosOpts parameterizes the scenario.
type ChaosOpts struct {
	Schedule     string // named nemesis schedule (see ChaosScheduleNames); default "full-nemesis"
	Seed         int64  // drives placement, client mixes and fault randomness; default 1
	OpsPerClient int    // operations each client issues; default 200

	// Topology picks the substrate (ring|spine-leaf:SxL|fattree:k, default
	// ring = the Fig. 8 testbed). Fabric runs deploy with bottleneck-aware
	// placement and one leaf held out as the recovery spare, and aim every
	// fault at group 0's chain: the half-open partition cuts the first
	// link of the mid→tail path, the gray window degrades the tail leaf,
	// and the fail-stop kills the mid leaf.
	Topology string

	// Autopilot runs the scenario hands-free: the fail-stop becomes a
	// nemesis FailStop step with NO manual HandleFailure/Recover calls —
	// the φ-accrual detector must notice every fault and the autopilot
	// must repair it (demoting gray switches, recovering dead ones from
	// the spare pool) while the history stays linearizable.
	Autopilot bool
}

func (o *ChaosOpts) defaults() {
	if o.Schedule == "" {
		o.Schedule = "full-nemesis"
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.OpsPerClient == 0 {
		o.OpsPerClient = 200
	}
	if o.Topology == "" {
		o.Topology = "ring"
	}
}

// chaosTargets are the substrate-specific fault coordinates a schedule is
// built from — the testbed's S1/S2/S3/H1 roles, generalized.
type chaosTargets struct {
	linkA, linkB packet.Addr // the half-open partition blackholes linkA→linkB
	gray         packet.Addr // the switch the gray windows degrade (a chain tail)
	fail         packet.Addr // the fail-stop victim (a chain mid)
	spare        packet.Addr // the recovery replacement
	cutHost      packet.Addr // the host the host-cut isolates from gray
}

// testbedTargets assigns the four-switch testbed's historical roles: the
// half-open partition cuts S1→S2, S2 (a tail) grays out, S1 fail-stops, S3
// is the recovery spare, and the host-cut isolates cutHost from S2.
func testbedTargets(sws []packet.Addr, cutHost packet.Addr) chaosTargets {
	return chaosTargets{linkA: sws[1], linkB: sws[2], gray: sws[2], fail: sws[1], spare: sws[3], cutHost: cutHost}
}

// chaosTargetsFor derives the fault coordinates: the testbed's historical
// roles verbatim (so ring fingerprints are unchanged), or group 0's chain
// on a fabric.
func chaosTargetsFor(d *Deployment) (chaosTargets, error) {
	if d.Fab.Spec.Kind == "ring" {
		return testbedTargets(d.Fab.Switches, d.Fab.Hosts[1]), nil
	}
	rt := d.Ctl.GroupRoute(0)
	if len(rt.Hops) < 3 {
		return chaosTargets{}, fmt.Errorf("experiments: group 0 chain too short: %v", rt.Hops)
	}
	mid, tail := rt.Hops[1], rt.Hops[2]
	path := d.Fab.Path(mid, tail)
	if len(path) < 2 {
		return chaosTargets{}, fmt.Errorf("experiments: no path %v→%v", mid, tail)
	}
	spares := d.Spares()
	if len(spares) == 0 {
		return chaosTargets{}, fmt.Errorf("experiments: fabric chaos needs a spare leaf (Spares >= 1)")
	}
	hosts := d.HostAddrs()
	if len(hosts) < 2 {
		return chaosTargets{}, fmt.Errorf("experiments: fabric chaos needs at least 2 hosts")
	}
	return chaosTargets{
		linkA: path[0], linkB: path[1],
		gray: tail, fail: mid,
		spare: spares[0], cutHost: hosts[1],
	}, nil
}

// ChaosResult reports the scenario outcome.
type ChaosResult struct {
	ChaosReport
	Topology string // substrate the run used (ring|spine-leaf:SxL|fattree:k)

	Net      netsim.Stats // fabric counters, incl. nemesis tallies
	Replayed uint64       // duplicate writes the dataplane replayed idempotently

	// FailoverDone/RecoveryDone are zero for schedules without fail-stop.
	FailoverDone, RecoveryDone time.Duration

	// Autopilot reports a hands-free run: the report's repairs are its.
	Autopilot bool

	// Fingerprint digests the full history and counters; equal seeds must
	// produce equal fingerprints (the determinism acceptance check).
	Fingerprint string
}

// chaosScenario pairs a schedule builder with its documentation.
type chaosScenario struct {
	doc      string
	failover bool // also exercise fail-stop failover + recovery
	build    func(tg chaosTargets) netsim.Schedule
	// faultAt is the injection time of the repairable fault (the
	// fail-stop for failover schedules, the gray onset for gray-tail) —
	// the reference point MTTR detection latency is measured from. Zero
	// when the schedule has nothing for the autopilot to repair.
	faultAt event.Time
}

// schedule materializes the fault timeline; failStop adds the victim's
// fail-stop as a step, for runs where only the autopilot can notice it.
func (sc chaosScenario) schedule(tg chaosTargets, failStop bool) netsim.Schedule {
	s := sc.build(tg)
	if sc.failover && failStop {
		s = append(s, netsim.Step{Name: "fail-stop", At: sc.faultAt, Fault: netsim.FailStop{Addr: tg.fail}})
	}
	return s
}

func usec(n int) event.Time { return event.Duration(time.Duration(n) * time.Microsecond) }
func msec(n int) event.Time { return event.Duration(time.Duration(n) * time.Millisecond) }

// chaosAutopilotHorizon is when an autopilot-mode run stops its beacons:
// far past the workload (~80 ms) and every repair, so the simulator can
// drain to quiescence afterwards.
var chaosAutopilotHorizon = msec(400)

// clusterMangle is the background adversity shared by the schedules: 2%
// duplication, 8% reordering hold-back and 2 µs jitter on every link.
// DupDelay deliberately exceeds the clients' think time, so a duplicated
// write routinely arrives AFTER later writes to the same key — the
// resurrection window the head's duplicate guard must close (a 1 µs
// DupDelay would never open it and the guard would go untested).
func clusterMangle() netsim.Fault {
	return netsim.ClusterChaos{F: netsim.LinkFault{
		Dup: 0.02, DupDelay: usec(500),
		Reorder: 0.08, ReorderDelay: usec(6),
		Jitter: usec(2),
	}}
}

func chaosScenarios() map[string]chaosScenario {
	return map[string]chaosScenario{
		"reorder-dup": {
			doc: "cluster-wide duplication (2%, delayed past the clients' think time), reordering " +
				"(8%) and jitter for the whole run: exercises the head's adjudicate-once verdict " +
				"pinning (duplicate writes replay, never re-stamp; duplicate CAS and freeze bounces " +
				"repeat their verdict), the equal-version chain pass-through, and CAS reply races",
			build: func(chaosTargets) netsim.Schedule {
				return netsim.Schedule{{Name: "mangle", At: 0, Fault: clusterMangle()}}
			},
		},
		"asym-partition": {
			doc: "the S1→S2 link direction silently blackholes for 3 ms (S2→S1 keeps working) — " +
				"chain writes stall mid-chain and drain via client retries; reads from hosts behind " +
				"S1 starve while hosts on S2 keep reading: no stale value may ever be served",
			build: func(tg chaosTargets) netsim.Schedule {
				return netsim.Schedule{
					{Name: "mangle", At: 0, Fault: clusterMangle()},
					{Name: "half-open", At: msec(5), For: msec(3), Fault: netsim.LinkChaos{
						A: tg.linkA, B: tg.linkB, F: netsim.LinkFault{Drop: 1}}},
				}
			},
		},
		"gray-tail": {
			doc: "the chain tail S2 turns gray for 15 ms: alive and routed-through but slow " +
				"(+40 µs per frame) and lossy (3%) — fail-stop detection never fires, reads and " +
				"write acks crawl, retries and duplicate replies pile up",
			faultAt: msec(10),
			build: func(tg chaosTargets) netsim.Schedule {
				return netsim.Schedule{
					{Name: "mangle", At: 0, Fault: clusterMangle()},
					{Name: "gray", At: msec(10), For: msec(15), Fault: netsim.GraySwitch{
						Addr: tg.gray,
						G:    netsim.Gray{SlowFactor: 2e4, Loss: 0.03, ExtraDelay: usec(40)}}},
				}
			},
		},
		"full-nemesis": {
			doc: "everything at once, staggered: background duplication+reordering+jitter, the " +
				"S1→S2 half-open partition (5–8 ms), a gray tail (10–18 ms), then S1 fail-stops at " +
				"22 ms with controller failover and its groups recover onto the spare S3 at 28 ms — " +
				"the acceptance scenario for 'survives the nemesis'",
			failover: true,
			faultAt:  msec(22),
			build: func(tg chaosTargets) netsim.Schedule {
				return netsim.Schedule{
					{Name: "mangle", At: 0, Fault: clusterMangle()},
					{Name: "half-open", At: msec(5), For: msec(3), Fault: netsim.LinkChaos{
						A: tg.linkA, B: tg.linkB, F: netsim.LinkFault{Drop: 1}}},
					{Name: "gray", At: msec(10), For: msec(8), Fault: netsim.GraySwitch{
						Addr: tg.gray,
						G:    netsim.Gray{SlowFactor: 2e4, Loss: 0.03, ExtraDelay: usec(40)}}},
					{Name: "host-cut", At: msec(12), For: msec(4), Fault: &netsim.AsymPartition{
						From: []packet.Addr{tg.cutHost}, To: []packet.Addr{tg.gray}}},
				}
			},
		},
	}
}

// chaosScenarioNamed resolves a schedule name.
func chaosScenarioNamed(name string) (chaosScenario, error) {
	sc, ok := chaosScenarios()[name]
	if !ok {
		return sc, fmt.Errorf("experiments: unknown chaos schedule %q (have %v)",
			name, ChaosScheduleNames())
	}
	return sc, nil
}

// ChaosScheduleNames lists the named nemesis schedules, sorted.
func ChaosScheduleNames() []string {
	m := chaosScenarios()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ChaosScheduleDoc describes what a named schedule exercises.
func ChaosScheduleDoc(name string) string { return chaosScenarios()[name].doc }

// BuildSchedule instantiates the named nemesis schedule against d's
// topology targets, for harnesses that drive their own workload (the
// watch convergence tests). Note that "full-nemesis" also fail-stops a
// switch when run through RunChaos; BuildSchedule returns only the
// link/gray fault timeline — callers wanting the fail-stop inject it
// themselves.
func BuildSchedule(d *Deployment, name string) (netsim.Schedule, error) {
	sc, err := chaosScenarioNamed(name)
	if err != nil {
		return nil, err
	}
	tg, err := chaosTargetsFor(d)
	if err != nil {
		return nil, err
	}
	return sc.build(tg), nil
}

// chaosController builds the fast-timing controller the chaos scenarios
// (and the autopilot tests) run against: 1 ms rule programming, free
// state sync — failure-window behavior without hour-long simulations.
func chaosController(d *Deployment) error {
	ccfg := controller.DefaultConfig()
	ccfg.RuleDelay = time.Millisecond
	ccfg.SyncPerItem = 0
	return d.NewController(ccfg)
}

// RunChaos executes the scenario and checks the history for
// linearizability. It returns an error for harness failures (the cluster
// broke); a non-linearizable history is reported in Result.Lin, not as an
// error, so callers can dump the history.
func RunChaos(o ChaosOpts) (*ChaosResult, error) { return runChaos(o, nil) }

// runChaos is RunChaos with a script: when set, it is called once the
// workload and the nemesis are armed and before the clock starts, to
// schedule a test's own controller actions (a planned resize) on d.Sim;
// fail aborts the run.
func runChaos(o ChaosOpts, script func(d *Deployment, fail func(error))) (*ChaosResult, error) {
	o.defaults()
	sc, err := chaosScenarioNamed(o.Schedule)
	if err != nil {
		return nil, err
	}
	topo, err := netsim.ParseTopology(o.Topology)
	if err != nil {
		return nil, err
	}
	// Scale 1 on every shape, one candidate held out as the spare pool. A
	// fabric places chains bottleneck-aware, so the nemesis also shakes
	// placed chains through failover and recovery.
	fo := FabricOpts{Spec: topo, Scale: 1, Seed: o.Seed, Spares: 1}
	if topo.Kind != "ring" {
		fo.VNodes, fo.HostsPerLeaf, fo.Placement = 2, 1, "bottleneck"
	}
	d, err := NewDeployment(fo)
	if err != nil {
		return nil, err
	}
	if err := chaosController(d); err != nil {
		return nil, err
	}
	tg, err := chaosTargetsFor(d)
	if err != nil {
		return nil, err
	}

	load := newChaosLoad(14, o.OpsPerClient) // 14 registers
	if err := load.preload(d.Preload); err != nil {
		return nil, err
	}

	res := &ChaosResult{Topology: topo.String(), Autopilot: o.Autopilot}
	res.Schedule, res.FailStopInjected = o.Schedule, sc.failover

	cfg := simclient.DefaultConfig()
	cfg.MaxRetries = 400 // ride through fault windows instead of timing out
	clk := d.Sim.Clock()
	var clients []*simclient.Client
	for c := 0; c < 3; c++ { // host 3 stays quiet
		client, err := d.Muxes[c].NewClient(cfg, d.Directory())
		if err != nil {
			return nil, err
		}
		clients = append(clients, client)
		cc := load.client(o.Seed, c)
		issue := func(call query.Call, done func(query.Outcome, error)) {
			load.issued()
			client.Do(call, func(res simclient.Result) {
				out, err := res.Outcome()
				load.returned(err)
				done(out, err)
			})
		}
		d.Sim.After(event.Time(c)*1000, func() { cc.drive(issue, clk, 400*time.Microsecond) }) // 400 µs think time
	}

	// The nemesis — in autopilot mode the fail-stop itself becomes a
	// schedule step, with nobody left to call the controller by hand.
	nm := netsim.RunSchedule(clk, d.Net, sc.schedule(tg, o.Autopilot))

	var harness *AutopilotHarness
	if o.Autopilot {
		if harness, err = StartAutopilot(d, AutopilotOpts{}); err != nil {
			return nil, err
		}
		harness.RecordMilestones(&res.FailoverDone, &res.RecoveryDone)
		// The harness schedules recurring beacons; stop it at a horizon
		// well past the workload and every repair so Run() drains.
		d.Sim.At(chaosAutopilotHorizon, harness.Stop)
	}

	// Fail-stop churn for the full schedule under manual operation: S1
	// dies at 22 ms, the operator runs fast failover, and its groups
	// recover onto the spare S3 at 28 ms.
	if sc.failover && !o.Autopilot {
		s1, s3 := tg.fail, tg.spare
		d.Sim.At(msec(22), func() {
			if err := d.Net.FailSwitch(s1); err != nil {
				load.fail(err)
				return
			}
			if err := d.Ctl.HandleFailure(s1, func() {
				res.FailoverDone = time.Duration(d.Sim.Now())
			}); err != nil {
				load.fail(fmt.Errorf("failover: %w", err))
			}
		})
		d.Sim.At(msec(28), func() {
			if err := d.Ctl.Recover(s1, []packet.Addr{s3}, func() {
				res.RecoveryDone = time.Duration(d.Sim.Now())
			}); err != nil {
				load.fail(fmt.Errorf("recover: %w", err))
			}
		})
	}

	if script != nil {
		script(d, load.fail)
	}
	d.Sim.Run()

	if err := load.check(&res.ChaosReport); err != nil {
		return nil, err
	}
	if err := nm.Err(); err != nil {
		return nil, err
	}
	if sc.failover && (res.FailoverDone == 0 || res.RecoveryDone == 0) {
		var detail string
		if harness != nil {
			for _, ev := range harness.Pilot.History() {
				detail += "\n  " + ev.String()
			}
			detail += fmt.Sprintf("\n  deferred=%d", harness.Pilot.Deferred())
			for _, hh := range harness.Det.Snapshot(time.Duration(d.Sim.Now())) {
				detail += fmt.Sprintf("\n  %v %v phi=%.1f", hh.Addr, hh.Verdict, hh.Phi)
			}
		}
		return nil, fmt.Errorf("experiments: churn incomplete (failover=%v recovery=%v)%s",
			res.FailoverDone, res.RecoveryDone, detail)
	}
	if harness != nil {
		res.Repairs = harness.Pilot.History()
		res.Health = harness.Det.Snapshot(time.Duration(d.Sim.Now()))
		res.tallyRepairs(sc, tg.fail, time.Duration(sc.faultAt), d.Ctl)
	}

	var cores []query.Stats
	inFlight := 0
	for _, c := range clients {
		cores = append(cores, c.Stats())
		inFlight += c.Outstanding()
	}
	if err := load.reconcile(&res.ChaosReport, inFlight, cores); err != nil {
		return nil, err
	}
	res.Net = d.Net.Stats()
	for _, sa := range d.SwitchAddrs() {
		if sw, ok := d.Net.Switch(sa); ok {
			res.Replayed += sw.Stats().WritesReplayed
		}
	}
	res.NemesisLog = nm.Log

	// Fingerprint: the determinism pin. Everything observable goes in —
	// including what the autopilot did and when.
	h := sha256.New()
	res.writeHistory(h)
	fmt.Fprintf(h, "net=%+v replayed=%d lin=%v ops=%d\n", res.Net, res.Replayed, res.Lin.OK, res.Lin.OpsChecked)
	for _, ev := range res.Repairs {
		fmt.Fprintf(h, "repair %v\n", ev)
	}
	res.Fingerprint = fmt.Sprintf("%x", h.Sum(nil))
	return res, nil
}

// Format renders the result for benchrunner output.
func (r *ChaosResult) Format() string {
	body := fmt.Sprintf("history: %d ops (%d unknown), ended t=%v\n%s", r.Ops, r.Unknowns, r.HistoryEnd, r.clientLine())
	if r.FailoverDone > 0 {
		body += fmt.Sprintf("failover done t=%v; recovery done t=%v\n", r.FailoverDone, r.RecoveryDone)
	}
	body += fmt.Sprintf("nemesis: %d chaos drops, %d dup copies, %d reordered, %d partition drops, "+
		"%d gray drops; dataplane replayed %d duplicate writes\n",
		r.Net.ChaosDrops, r.Net.DupCopies, r.Net.Reordered, r.Net.PartitionDrops,
		r.Net.GrayDrops, r.Replayed)
	return r.format(fmt.Sprintf("chaos [%s] on %s", r.Schedule, r.Topology), body, r.Autopilot) +
		fmt.Sprintf("fingerprint: %s\n", r.Fingerprint)
}

// DumpHistory renders the recorded history one operation per line — the
// artifact a failing chaos run uploads so (schedule, seed) reproduces
// locally.
func (r *ChaosResult) DumpHistory() string {
	return r.dump(fmt.Sprintf("# chaos schedule=%s", r.Schedule))
}
