package experiments

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"slices"
	"sort"
	"strings"
	"time"

	"netchain/internal/controller"
	"netchain/internal/event"
	"netchain/internal/faultconn"
	"netchain/internal/health"
	"netchain/internal/lincheck"
	"netchain/internal/netsim"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/simclient"
	"netchain/internal/watch"
)

// Chaos is the nemesis-driven correctness scenario: concurrent clients
// run reads, writes and CAS lock handoffs (chaosLoad, chaosload.go) while a
// scripted fault schedule mangles the network — reordering, duplication,
// jitter, an asymmetric partition, a gray-degraded switch, and (in the full
// schedule) a fail-stop failover plus recovery — and internal/lincheck
// checks the recorded history. One spine (runChaosOn) runs it over a
// two-substrate seam (chaosSubstrate): the simulator (RunChaos, simChaos
// below), deterministic and pinned by its Fingerprint, or a live-UDP
// loopback cluster (RunRealChaos, realchaos.go).
//
// This is the evaluation the paper doesn't have: Figs. 9(d)/10/11 cover
// uniform loss and clean fail-stop, but the protocol's safety rests on
// ordering and session invariants that only bite under duplication,
// reordering and half-open reachability. Every future PR's correctness
// story runs through this scenario via `benchrunner -exp chaos|realchaos`
// and the nightly CI matrix.

// ChaosOpts parameterizes a chaos run on either substrate.
type ChaosOpts struct {
	Schedule     string // named nemesis schedule (see ChaosScheduleNames); default "full-nemesis"
	Seed         int64  // drives placement, client mixes and fault randomness; default 1
	OpsPerClient int    // operations each client issues; default 200 (150 on the wire)

	// Topology picks the simulated substrate (ring|spine-leaf:SxL|fattree:k,
	// default ring = the Fig. 8 testbed). Fabric runs deploy with
	// bottleneck-aware placement and one leaf held out as the recovery
	// spare, and aim every fault at group 0's chain: the half-open
	// partition cuts the first link of the mid→tail path, the gray window
	// degrades the tail leaf, and the fail-stop kills the mid leaf. The
	// wire runs the ring only.
	Topology string

	// Autopilot runs the scenario hands-free: the fail-stop becomes a
	// nemesis FailStop step with NO manual HandleFailure/Recover calls —
	// the φ-accrual detector must notice every fault and the autopilot
	// must repair it (demoting gray switches, recovering dead ones from
	// the spare pool) while the history stays linearizable. The wire has
	// no scripted operator, so it always runs the autopilot.
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

// ChaosResult reports one chaos run, on either substrate.
type ChaosResult struct {
	Schedule string
	Seed     int64
	Topology string // substrate the run used (ring|spine-leaf:SxL|fattree:k)
	// Autopilot reports a hands-free run: the repairs are its. Always set
	// on the wire.
	Autopilot bool

	Lin lincheck.Result
	// History is the recorded operation log — dumped as a CI artifact when
	// the check fails, so a failing (schedule, seed) reproduces locally.
	History    []lincheck.Op
	Ops        int           // operations in the recorded history
	Unknowns   int           // ops whose outcome the client never learned
	HistoryEnd time.Duration // the last response in the history
	Client     query.Stats   // the clients' retry cores, summed: sent, retries, timeouts, late replies

	// FailStopInjected reports whether the schedule kills a switch (so
	// callers can tell a legitimate eviction from a false one).
	FailStopInjected bool
	// FailoverDone/RecoveryDone are the simulator's churn milestones; zero
	// for schedules without fail-stop and on the wire.
	FailoverDone, RecoveryDone time.Duration
	Repairs                    []controller.RepairEvent
	Health                     []health.SwitchHealth
	Failovers                  int           // fail-stop evictions the autopilot executed
	Demotions                  int           // gray demotions the autopilot executed
	FalseEvictions             int           // failovers of switches the schedule never killed
	DetectLatency              time.Duration // fault injection → first repair verdict acted on
	RepairLatency              time.Duration // verdict → repair complete
	ChainsRepaired             bool          // failover schedules: every chain back at full length, dead switch gone

	NemesisLog []string

	// Simulator only.
	Net      netsim.Stats // fabric counters, incl. nemesis tallies
	Replayed uint64       // duplicate writes the dataplane replayed idempotently
	// Fingerprint digests the full history and counters; equal seeds must
	// produce equal fingerprints (the determinism acceptance check).
	Fingerprint string

	// Wire only.
	Inj faultconn.Stats // what the wire nemesis did
	// FaultFingerprint digests (seed, schedule) → the deterministic fault
	// decision stream (see faultconn.Fingerprint). Equal seeds and
	// schedules must produce equal fingerprints — the "same seed ⇒ same
	// chaos" acceptance check on a substrate where histories themselves
	// are scheduler-dependent.
	FaultFingerprint string
	// HistoryDigest identifies this run's recorded history (artifact
	// correlation, not a determinism pin — the wire is not a simulator).
	HistoryDigest string
	// Push-watch convergence through the fault-injected relay.
	WatchEvents    uint64
	WatchStats     watch.SubStats
	WatchConverged bool

	// What the substrate renders of itself: the title, its counter lines
	// and its fingerprint line; watched says a push-watch ran.
	title, counters, stamp string
	watched                bool
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

// chaosClients is how many clients run the workload, on either substrate.
const chaosClients = 3

// chaosSubstrate is the seam under a chaos run: only what the simulator
// (simChaos) and the live wire (wireChaos) do differently. runChaosOn is
// everything else, written once.
type chaosSubstrate interface {
	targets() chaosTargets              // the schedules' fault roles on the booted topology
	controller() *controller.Controller // the one every repair goes through
	// clock is the clients' (history timestamps, think time) and the
	// autopilot's, so the repair log reads on the same timeline.
	clock() event.Clock
	// prepare builds the workload at the substrate's register count and
	// makes every key exist holding its initial value.
	prepare(opsPerClient int) (*chaosLoad, error)
	// client returns how client c's calls reach the substrate and how long
	// it thinks between an outcome and its next call.
	client(c int) (issue func(query.Call, func(query.Outcome, error)), think time.Duration, err error)
	// nemesis returns what the faults are applied to and the clock timing
	// them; schedule time starts at the call. at places schedule time t on
	// the clients' clock.
	nemesis() (event.Clock, netsim.Applier)
	at(t event.Time) time.Duration
	// run starts the repairs — the autopilot, returned with its detector,
	// or the simulator's scripted operator (nil, nil) — and returns once
	// the workload and every repair are over.
	run(sc chaosScenario, schedule netsim.Schedule, res *ChaosResult) (*controller.Autopilot, *health.Detector, error)
	books() (clients []query.Stats, inFlight int) // the retry cores' counters, calls in flight
	// finish writes the substrate's counters into res, seals the history
	// digest h into its fingerprint and renders both for Format.
	finish(res *ChaosResult, h hash.Hash)
	close() error // and audit what can only be read once the substrate stopped
}

// runChaosOn is the one chaos run: it resolves the schedule, boots the
// substrate, preloads and drives the workload under the nemesis and the
// repairs, and checks the history once everything settled. It returns an
// error for harness failures (the cluster broke in a way no schedule
// explains); a non-linearizable history is reported in Result.Lin, not as
// an error, so callers can dump the history.
func runChaosOn(o ChaosOpts, boot func(ChaosOpts) (chaosSubstrate, error)) (_ *ChaosResult, err error) {
	o.defaults()
	sc, err := chaosScenarioNamed(o.Schedule)
	if err != nil {
		return nil, err
	}
	sub, err := boot(o)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, sub.close()) }()
	tg, clk := sub.targets(), sub.clock()

	load, err := sub.prepare(o.OpsPerClient)
	if err != nil {
		return nil, err
	}
	res := &ChaosResult{Schedule: o.Schedule, Seed: o.Seed, Autopilot: o.Autopilot, FailStopInjected: sc.failover}

	for c := 0; c < chaosClients; c++ {
		issue, think, err := sub.client(c)
		if err != nil {
			return nil, err
		}
		cc := load.client(o.Seed, c)
		clk.After(time.Duration(c)*time.Microsecond, func() { cc.drive(issue, clk, think) })
	}

	// The nemesis — under the autopilot the fail-stop itself becomes a
	// schedule step, with nobody left to call the controller by hand.
	schedule := sc.schedule(tg, o.Autopilot)
	nemClk, applier := sub.nemesis()
	nm := netsim.RunSchedule(nemClk, applier, schedule)

	pilot, det, err := sub.run(sc, schedule, res)
	if err != nil {
		return nil, err
	}

	if err := load.check(res); err != nil {
		return nil, err
	}
	if err := nm.Err(); err != nil {
		return nil, err
	}
	if pilot != nil {
		res.Repairs = pilot.History()
		res.Health = det.Snapshot(clk.Now())
	}
	res.tallyRepairs(sc, tg, sub.at(sc.faultAt), sub.controller())
	cores, inFlight := sub.books()
	if err := load.reconcile(res, inFlight, cores); err != nil {
		return nil, err
	}
	res.NemesisLog = nm.Log

	h := sha256.New()
	res.writeHistory(h)
	sub.finish(res, h)
	return res, nil
}

// writeHistory renders the history one operation per line — shared by the
// fingerprints and the failure dumps so an uploaded artifact always matches
// the hash that flagged the run.
func (r *ChaosResult) writeHistory(w io.Writer) {
	for _, op := range r.History {
		fmt.Fprintf(w, "c%d %v %s in=%q out=%q ok=%v found=%v unk=%v @%d..%d\n",
			op.Client, op.Kind, op.Key, op.Input, op.Output, op.OK, op.Found,
			op.Unknown, op.Invoke, op.Return)
	}
}

// tallyRepairs reads the autopilot's repair log: counts, false evictions,
// and the MTTR milestones of the schedule's repairable fault, injected at
// faultAt on the log's clock: the fail-stop victim's first failover and
// recovery from then on, or the grayed switch's first demotion and its
// completion.
func (r *ChaosResult) tallyRepairs(sc chaosScenario, tg chaosTargets, faultAt time.Duration, ctl *controller.Controller) {
	target, verdictAct, doneAct := tg.gray, controller.ActionDemote, controller.ActionDemoteDone
	if sc.failover {
		target, verdictAct, doneAct = tg.fail, controller.ActionFailover, controller.ActionRecoverDone
	}
	var verdict, done time.Duration
	for _, ev := range r.Repairs {
		switch ev.Action {
		case controller.ActionFailover:
			r.Failovers++
			if !sc.failover || ev.Switch != tg.fail {
				r.FalseEvictions++
			}
		case controller.ActionDemote:
			r.Demotions++
		}
		switch {
		case ev.Switch != target || done > 0:
		case verdict == 0 && ev.Action == verdictAct && ev.At >= faultAt:
			verdict = ev.At
		case verdict > 0 && ev.Action == doneAct:
			done = ev.At
		}
	}
	if sc.faultAt > 0 && verdict > 0 {
		r.DetectLatency = verdict - faultAt
		if done > 0 {
			r.RepairLatency = done - verdict
		}
	}
	r.ChainsRepaired = sc.failover && chainsRepaired(ctl, tg.fail)
}

// chainsRepaired reports whether, after a fail-stop, every chain is back
// at full length with the dead switch gone.
func chainsRepaired(ctl *controller.Controller, dead packet.Addr) bool {
	for _, rt := range ctl.Routes() {
		if len(rt.Hops) != 3 || slices.Contains(rt.Hops, dead) {
			return false
		}
	}
	return true
}

// Format renders the result for benchrunner output: the schedule and what
// the nemesis did, the history and the substrate's counters, the
// autopilot's repairs (if one ran), the verdict and the fingerprint.
func (r *ChaosResult) Format() string {
	s := fmt.Sprintf("%s\n%s\n", r.title, ChaosScheduleDoc(r.Schedule))
	for _, l := range r.NemesisLog {
		s += "  " + l + "\n"
	}
	s += fmt.Sprintf("history: %d ops (%d unknown), ended t=%v\n", r.Ops, r.Unknowns, r.HistoryEnd)
	s += fmt.Sprintf("clients: %d attempts sent, %d retries, %d timeouts, %d late replies\n",
		r.Client.Sent, r.Client.Retries, r.Client.Timeouts, r.Client.Late)
	if r.FailoverDone > 0 {
		s += fmt.Sprintf("failover done t=%v; recovery done t=%v\n", r.FailoverDone, r.RecoveryDone)
	}
	s += r.counters
	if r.Autopilot {
		s += fmt.Sprintf("autopilot: %d failovers (%d false), %d demotions; detection %v, repair %v; chains repaired: %v\n",
			r.Failovers, r.FalseEvictions, r.Demotions, r.DetectLatency, r.RepairLatency, r.ChainsRepaired)
		for _, ev := range r.Repairs {
			s += "  " + ev.String() + "\n"
		}
	}
	if r.Lin.OK {
		s += fmt.Sprintf("linearizable: YES (%d ops checked)\n", r.Lin.OpsChecked)
	} else {
		s += fmt.Sprintf("linearizable: NO — key %s: %s\n", r.Lin.Key, r.Lin.Reason)
	}
	return s + r.stamp
}

// DumpHistory renders the recorded history one operation per line — the
// artifact a failing chaos run uploads so (schedule, seed) reproduces
// locally.
func (r *ChaosResult) DumpHistory() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s ops=%d lin=%v\n", r.title, r.Ops, r.Lin.OK)
	r.writeHistory(&b)
	return b.String()
}

// Verdict is the one pass rule for a chaos run on either substrate: the
// history linearizes, a fail-stop schedule ends with every chain repaired,
// the autopilot evicted no switch the schedule did not kill, and a
// push-watch, where one ran, converged.
func (r *ChaosResult) Verdict() error {
	switch {
	case !r.Lin.OK:
		return fmt.Errorf("history not linearizable (key %s): %s", r.Lin.Key, r.Lin.Reason)
	case r.FailStopInjected && !r.ChainsRepaired:
		return errors.New("the fail-stop left a chain unrepaired")
	case r.FalseEvictions > 0:
		return fmt.Errorf("%d false fail-stop evictions", r.FalseEvictions)
	case r.watched && !r.WatchConverged:
		return errors.New("push-watch stream did not converge")
	}
	return nil
}

// RunChaos runs the chaos scenario on the simulator (see runChaosOn). The
// whole run is deterministic: two runs of the same options produce
// identical histories, counters and verdicts, which the Fingerprint pins.
func RunChaos(o ChaosOpts) (*ChaosResult, error) { return runChaos(o, nil) }

// runChaos is RunChaos with a script: when set, it is called once the
// workload, the nemesis and the repairs are armed and before the clock
// starts, to schedule a test's own controller actions (a planned resize)
// on d.Sim; fail aborts the run.
func runChaos(o ChaosOpts, script func(d *Deployment, fail func(error))) (*ChaosResult, error) {
	return runChaosOn(o, func(o ChaosOpts) (chaosSubstrate, error) { return bootSim(o, script) })
}

// simChaos is the simulator's side of a chaos run: a Deployment on the
// chosen topology, three of its hosts' clients, and either the scripted
// operator or the autopilot harness.
type simChaos struct {
	d         *Deployment
	tg        chaosTargets
	autopilot bool
	script    func(d *Deployment, fail func(error))

	load    *chaosLoad
	clients []*simclient.Client
}

func bootSim(o ChaosOpts, script func(d *Deployment, fail func(error))) (chaosSubstrate, error) {
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
	return &simChaos{d: d, tg: tg, autopilot: o.Autopilot, script: script}, nil
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

func (s *simChaos) targets() chaosTargets              { return s.tg }
func (s *simChaos) controller() *controller.Controller { return s.d.Ctl }
func (s *simChaos) clock() event.Clock                 { return s.d.Sim.Clock() }
func (s *simChaos) at(t event.Time) time.Duration      { return time.Duration(t) }
func (s *simChaos) close() error                       { return nil }

func (s *simChaos) nemesis() (event.Clock, netsim.Applier) { return s.d.Sim.Clock(), s.d.Net }

func (s *simChaos) prepare(opsPerClient int) (*chaosLoad, error) {
	s.load = newChaosLoad(14, opsPerClient) // 14 registers
	return s.load, s.load.preload(s.d.Preload)
}

// client puts client c on host c (host 3 stays quiet), retrying through
// fault windows instead of timing out.
func (s *simChaos) client(c int) (func(query.Call, func(query.Outcome, error)), time.Duration, error) {
	cfg := simclient.DefaultConfig()
	cfg.MaxRetries = 400
	client, err := s.d.Muxes[c].NewClient(cfg, s.d.Directory())
	if err != nil {
		return nil, 0, err
	}
	s.clients = append(s.clients, client)
	issue := func(call query.Call, done func(query.Outcome, error)) {
		s.load.issued()
		client.Do(call, func(res simclient.Result) {
			out, err := res.Outcome()
			s.load.returned(err)
			done(out, err)
		})
	}
	return issue, 400 * time.Microsecond, nil
}

// run arms the repairs — the autopilot harness, or for a fail-stop
// schedule the scripted operator: S1 dies at 22 ms, the operator runs fast
// failover, and its groups recover onto the spare S3 at 28 ms — and a
// test's script, then runs the simulator to quiescence. A fail-stop
// schedule must have finished its failover and its recovery by then.
func (s *simChaos) run(sc chaosScenario, _ netsim.Schedule, res *ChaosResult) (*controller.Autopilot, *health.Detector, error) {
	d := s.d
	var h *AutopilotHarness
	switch {
	case s.autopilot:
		var err error
		if h, err = StartAutopilot(d, AutopilotOpts{}); err != nil {
			return nil, nil, err
		}
		h.RecordMilestones(&res.FailoverDone, &res.RecoveryDone)
		// Stop the recurring beacons far past the workload (~80 ms) and
		// every repair, so Run() drains.
		d.Sim.At(msec(400), h.Stop)
	case sc.failover:
		dead, spare := s.tg.fail, s.tg.spare
		d.Sim.At(msec(22), func() {
			if err := d.Net.FailSwitch(dead); err != nil {
				s.load.fail(err)
				return
			}
			if err := d.Ctl.HandleFailure(dead, func() {
				res.FailoverDone = time.Duration(d.Sim.Now())
			}); err != nil {
				s.load.fail(fmt.Errorf("failover: %w", err))
			}
		})
		d.Sim.At(msec(28), func() {
			if err := d.Ctl.Recover(dead, []packet.Addr{spare}, func() {
				res.RecoveryDone = time.Duration(d.Sim.Now())
			}); err != nil {
				s.load.fail(fmt.Errorf("recover: %w", err))
			}
		})
	}
	if s.script != nil {
		s.script(d, s.load.fail)
	}
	d.Sim.Run()

	if sc.failover && (res.FailoverDone == 0 || res.RecoveryDone == 0) {
		var detail string
		if h != nil {
			for _, ev := range h.Pilot.History() {
				detail += "\n  " + ev.String()
			}
			detail += fmt.Sprintf("\n  deferred=%d\n%s", h.Pilot.Deferred(), h.HealthString())
		}
		return nil, nil, fmt.Errorf("experiments: churn incomplete (failover=%v recovery=%v)%s",
			res.FailoverDone, res.RecoveryDone, detail)
	}
	if h == nil {
		return nil, nil, nil
	}
	return h.Pilot, h.Det, nil
}

func (s *simChaos) books() (clients []query.Stats, inFlight int) {
	for _, c := range s.clients {
		clients = append(clients, c.Stats())
		inFlight += c.Outstanding()
	}
	return clients, inFlight
}

// finish adds the fabric's counters and what the autopilot did, and when,
// to the history digest: the Fingerprint, the simulator's determinism pin.
func (s *simChaos) finish(r *ChaosResult, h hash.Hash) {
	r.Topology = s.d.Fab.Spec.String()
	r.Net = s.d.Net.Stats()
	for _, sa := range s.d.SwitchAddrs() {
		if sw, ok := s.d.Net.Switch(sa); ok {
			r.Replayed += sw.Stats().WritesReplayed
		}
	}
	fmt.Fprintf(h, "net=%+v replayed=%d lin=%v ops=%d\n", r.Net, r.Replayed, r.Lin.OK, r.Lin.OpsChecked)
	for _, ev := range r.Repairs {
		fmt.Fprintf(h, "repair %v\n", ev)
	}
	r.Fingerprint = fmt.Sprintf("%x", h.Sum(nil))

	r.title = fmt.Sprintf("chaos [%s] on %s", r.Schedule, r.Topology)
	r.counters = fmt.Sprintf("nemesis: %d chaos drops, %d dup copies, %d reordered, %d partition drops, "+
		"%d gray drops; dataplane replayed %d duplicate writes\n",
		r.Net.ChaosDrops, r.Net.DupCopies, r.Net.Reordered, r.Net.PartitionDrops,
		r.Net.GrayDrops, r.Replayed)
	r.stamp = fmt.Sprintf("fingerprint: %s\n", r.Fingerprint)
}
