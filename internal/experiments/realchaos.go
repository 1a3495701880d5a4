package experiments

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"netchain/internal/controller"
	"netchain/internal/faultconn"
	"netchain/internal/health"
	"netchain/internal/kv"
	"netchain/internal/localcluster"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/transport"
	"netchain/internal/watch"
)

// RunRealChaos is the wire-side twin of RunChaos: the same named nemesis
// schedules, run against a live-UDP loopback cluster instead of the
// simulator. Real sockets, real goroutine scheduling, real wall-clock
// timeouts — and the faults are injected at the syscall boundary by
// internal/faultconn, driven by the identical netsim.Schedule values the
// sim consumes. Concurrent clients run the very same workload (chaosLoad,
// chaosload.go: one op mix, one lock bookkeeping, one lincheck recorder
// for both substrates), a push-watch subscriber converges through the
// fault-injected relay, and (because there is no scripted operator on a
// real wire) the φ-accrual monitor plus autopilot do every repair
// hands-free.
//
// What the sim run cannot give us — and this one does — is evidence that
// the protocol's invariants survive the parts the simulator idealizes:
// kernel buffering, OS timer slop, a switch's ingest goroutines racing
// across its sockets, and a relay whose lease state lives behind a real
// port. The controller programs the switches through in-process agents,
// as in the simulator; the TCP agent protocol is tested on its own in
// internal/transport.

// RealChaosOpts parameterizes a wire chaos run.
type RealChaosOpts struct {
	Schedule     string // named nemesis schedule (see ChaosScheduleNames); default "full-nemesis"
	Seed         int64  // drives fault randomness and client mixes; default 1
	Clients      int    // concurrent client sockets; default 3
	OpsPerClient int    // operations each client issues; default 150
	Registers    int    // independent register keys; default 12
}

const (
	realChaosTimeScale = 20                    // wall-clock stretch of schedule time
	realChaosHeartbeat = 10 * time.Millisecond // heartbeat and monitor cadence
)

func (o *RealChaosOpts) defaults() {
	if o.Schedule == "" {
		o.Schedule = "full-nemesis"
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Clients <= 0 || o.Clients > 3 {
		o.Clients = 3
	}
	if o.OpsPerClient == 0 {
		o.OpsPerClient = 150
	}
	if o.Registers == 0 {
		// Enough spread to stay under lincheck's per-key density ceiling
		// at the default op count.
		o.Registers = 12
	}
}

// RealChaosResult reports a wire chaos run.
type RealChaosResult struct {
	// Wire runs are always hands-free: the report's repairs are all the
	// autopilot's.
	ChaosReport
	Seed int64

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
}

// realCluster is the façade's live-UDP deployment (localcluster: relay,
// three chain members plus one spare, wall-clock controller, every
// datagram socket threaded through one faultconn.Injector) with a health
// plane on top — φ-accrual monitor, detector and autopilot — and the
// workload's client sockets.
type realCluster struct {
	cl  *localcluster.Cluster
	ctl *controller.Controller
	inj *faultconn.Injector
	sws []packet.Addr // members [0..2], spare [3]

	det   *health.Detector
	mon   *health.Monitor
	pilot *controller.Autopilot

	ops []*transport.Ops // one per client

	stops []func() error
}

func (rc *realCluster) Close() {
	for i := len(rc.stops) - 1; i >= 0; i-- {
		_ = rc.stops[i]()
	}
	rc.stops = nil
}

func newRealCluster(o RealChaosOpts) (*realCluster, error) {
	rc := &realCluster{inj: faultconn.New(o.Seed, faultconn.WithTimeScale(realChaosTimeScale))}
	ok := false
	defer func() {
		if !ok {
			rc.Close()
		}
	}()

	cl, err := localcluster.Start(localcluster.Config{
		Slots: 256, ClientTimeout: 25 * time.Millisecond, ClientRetries: 8, Faults: rc.inj,
	})
	if err != nil {
		return nil, err
	}
	rc.cl, rc.ctl = cl, cl.Controller()
	rc.stops = append(rc.stops, cl.Close)
	for i := 0; i < cl.Switches(); i++ {
		a, err := cl.SwitchAddr(i)
		if err != nil {
			return nil, err
		}
		rc.sws = append(rc.sws, a)
	}

	// Health plane: the monitor's socket runs through the nemesis too
	// (its probes can be delayed and its intake degraded), heartbeats
	// resolve the monitor's virtual address through the shared book. That
	// address sits outside the switch and host ranges so fault targeting
	// never aliases it.
	mv := packet.AddrFrom4(10, 255, 0, 1)
	rc.det = health.NewDetector(health.Config{HeartbeatEvery: realChaosHeartbeat})
	rc.mon, err = health.NewMonitor("127.0.0.1:0", mv, rc.det,
		health.WithMonitorFaults(rc.inj.Pipe(mv)))
	if err != nil {
		return nil, err
	}
	rc.stops = append(rc.stops, rc.mon.Close)
	rc.inj.RegisterEndpoint(mv, rc.mon.Endpoint())
	for _, a := range rc.sws {
		rc.mon.Watch(a)
	}
	rc.mon.StartProbes()
	if err := cl.StartHeartbeats(mv, rc.mon.Endpoint(), realChaosHeartbeat); err != nil {
		return nil, err
	}
	rc.pilot = controller.NewAutopilot(rc.ctl, rc.det, controller.WallClock{}, rc.mon.Now,
		controller.AutopilotConfig{Spares: []packet.Addr{rc.sws[3]}})

	// Clients (10.1.0.1, .2, ...) gateway through the survivors (S0 and the
	// gray S2, never the fail-stop victim S1): a client whose ToR powers off
	// is a host outage, not a protocol property this scenario measures.
	for i := 0; i < o.Clients; i++ {
		ops, err := cl.NewClient(2 * (i % 2))
		if err != nil {
			return nil, err
		}
		rc.ops = append(rc.ops, ops)
		rc.stops = append(rc.stops, ops.Client.Close)
	}
	ok = true
	return rc, nil
}

// realChaosTargets maps the schedule's fault roles onto the wire topology
// with the sim testbed's assignment (testbedTargets); the host-cut isolates
// client 1. The switch addressing is fixed (10.0.0.1–4), so the mapping is
// a pure function of the options — RealChaosFingerprint relies on that.
func realChaosTargets(sws []packet.Addr, clients int) chaosTargets {
	cut := packet.AddrFrom4(10, 1, 0, 1)
	if clients > 1 {
		cut = packet.AddrFrom4(10, 1, 0, 2)
	}
	return testbedTargets(sws, cut)
}

// RealChaosFingerprint digests the fault decision stream a wire run with
// these options would inject, without booting a cluster — callers use it
// to verify the "same seed ⇒ same chaos" reproducibility contract.
func RealChaosFingerprint(o RealChaosOpts) (string, error) {
	o.defaults()
	sc, err := chaosScenarioNamed(o.Schedule)
	if err != nil {
		return "", err
	}
	sws := make([]packet.Addr, 4)
	for i := range sws {
		sws[i] = packet.AddrFrom4(10, 0, 0, byte(i+1))
	}
	tg := realChaosTargets(sws, o.Clients)
	return faultconn.Fingerprint(o.Seed, sc.schedule(tg, true)), nil
}

// RunRealChaos executes one wire chaos run. Harness failures (the cluster
// broke in a way no schedule explains) return an error; a
// non-linearizable history is reported in Result.Lin so callers can dump
// the history artifact.
func RunRealChaos(o RealChaosOpts) (*RealChaosResult, error) {
	o.defaults()
	sc, err := chaosScenarioNamed(o.Schedule)
	if err != nil {
		return nil, err
	}
	rc, err := newRealCluster(o)
	if err != nil {
		return nil, err
	}
	defer rc.Close()

	// Preload: slots through the controller (they land on every chain
	// member via the wire agents), values through a real client.
	load := newChaosLoad(o.Registers, o.OpsPerClient)
	// Client 0 also carries the preload and the watcher's resync reads; they
	// pass through the workload's ledger like every other call.
	do0 := load.counted(rc.ops[0].Do)
	err = load.preload(func(k kv.Key, val kv.Value) error {
		if _, err := rc.ctl.Insert(k); err != nil {
			return err
		}
		_, err := do0(query.Call{Op: kv.OpWrite, Key: k, Value: val})
		return err
	})
	if err != nil {
		return nil, err
	}

	res := &RealChaosResult{Seed: o.Seed}
	res.Schedule, res.FailStopInjected = o.Schedule, sc.failover

	// Push-watch subscriber through the fault-injected relay: the first
	// few registers, resynced on stream gaps by linearizable re-reads.
	watchKeys := make([]kv.Key, 0, 4)
	for i := 0; i < o.Registers && i < 4; i++ {
		watchKeys = append(watchKeys, kv.KeyFromString(load.names[i]))
	}
	sub := watch.NewSub(watchKeys, func(k kv.Key) uint16 { return rc.ctl.Route(k).Group }, 256)
	follower := watch.NewFollower(sub, func(k kv.Key) (kv.Value, kv.Version, error) {
		out, err := do0(query.Call{Op: kv.OpRead, Key: k})
		return out.Value, out.Version, err
	})
	wconn, err := rc.cl.Subscribe(packet.AddrFrom4(10, 3, 0, 1), sub.Groups(), follower.Deliver)
	if err != nil {
		return nil, fmt.Errorf("watch subscribe: %w", err)
	}
	defer wconn.Close()
	watchCtx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	var watchWG sync.WaitGroup
	var watchEvents uint64
	watchWG.Add(2)
	go func() { // drain the event channel; overflow self-heals via dirty marks
		defer watchWG.Done()
		for range sub.Events() {
			watchEvents++
		}
	}()
	go func() {
		defer watchWG.Done()
		follower.Run(watchCtx, 25*time.Millisecond, 0)
	}()

	// The nemesis: same schedule builders as the sim, plus the fail-stop
	// step for failover schedules — on the wire there is no scripted
	// operator, so the autopilot must notice and repair it.
	tg := realChaosTargets(rc.sws, o.Clients)
	schedule := sc.schedule(tg, true)
	res.FaultFingerprint = faultconn.Fingerprint(o.Seed, schedule)

	rc.pilot.Start()
	defer rc.pilot.Stop()

	// Workload start is the schedule's t=0.
	rc.inj.ResetClock()
	schedStart := rc.mon.Now()
	rc.inj.RunSchedule(schedule)

	start := time.Now()
	now := func() int64 { return int64(time.Since(start)) }
	var wg sync.WaitGroup
	for c := 0; c < o.Clients; c++ {
		wg.Add(1)
		go func(cid int) {
			defer wg.Done() // each client thinks 3 ms between ops
			load.client(o.Seed, cid).loop(load.counted(rc.ops[cid].Do), now, func() { time.Sleep(3 * time.Millisecond) })
		}(c)
	}
	wg.Wait()
	if err := load.check(&res.ChaosReport); err != nil {
		return nil, err
	}

	// Let the schedule's last window elapse, then wait for the autopilot
	// to finish repairing what the nemesis broke.
	lastAt := time.Duration(0)
	for _, st := range schedule {
		if end := time.Duration(float64(st.At+st.For) * realChaosTimeScale); end > lastAt {
			lastAt = end
		}
	}
	if since := rc.mon.Now() - schedStart; since < lastAt {
		time.Sleep(lastAt - since)
	}
	if sc.failover {
		deadline := time.Now().Add(20 * time.Second) // repair ceiling
		for time.Now().Before(deadline) {
			done := false
			for _, ev := range rc.pilot.History() {
				if ev.Action == controller.ActionRecoverDone {
					done = true
				}
			}
			if done {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Quiesce: stop injecting (pipes become pass-through), then give the
	// watch subscriber one clean resync pass and check convergence
	// against direct linearizable reads.
	rc.inj.Stop()
	sub.MarkDirty()
	time.Sleep(50 * time.Millisecond)
	res.WatchConverged = true
	for _, k := range watchKeys {
		out, rerr := do0(query.Call{Op: kv.OpRead, Key: k})
		ver := out.Version
		if rerr != nil {
			res.WatchConverged = false
			continue
		}
		deadline := time.Now().Add(2 * time.Second)
		for {
			present, sver, watched := sub.State(k)
			if watched && present && !sver.Less(ver) {
				break
			}
			if time.Now().After(deadline) {
				res.WatchConverged = false
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	stopWatch()
	watchWG.Wait() // Run closed the Sub, so the drain loop ended too
	res.WatchEvents = watchEvents
	res.WatchStats = sub.Stats()

	res.Repairs = rc.pilot.History()
	res.Health = rc.det.Snapshot(rc.mon.Now())
	res.tallyRepairs(sc, tg.fail, schedStart+time.Duration(float64(sc.faultAt)*realChaosTimeScale), rc.ctl)

	var cores []query.Stats
	inFlight := 0
	for _, ops := range rc.ops {
		cores = append(cores, ops.Client.Stats().Stats)
		inFlight += ops.Client.InFlight()
	}
	if err := load.reconcile(&res.ChaosReport, inFlight, cores); err != nil {
		return nil, err
	}
	res.Inj = rc.inj.Stats()
	res.NemesisLog = rc.inj.Log()

	h := sha256.New()
	res.writeHistory(h)
	res.HistoryDigest = fmt.Sprintf("%x", h.Sum(nil))[:16]
	return res, nil
}

// Format renders the result for benchrunner output.
func (r *RealChaosResult) Format() string {
	body := fmt.Sprintf("history: %d ops (%d unknown)\n%s", r.Ops, r.Unknowns, r.clientLine())
	body += fmt.Sprintf("nemesis: %d chaos drops, %d burst drops, %d partition drops, %d gray drops, "+
		"%d fail drops, %d delayed, %d dups, %d reordered, %d gray stalls\n",
		r.Inj.ChaosDrops, r.Inj.BurstDrops, r.Inj.PartitionDrops, r.Inj.GrayDrops,
		r.Inj.FailDrops, r.Inj.Delayed, r.Inj.DupCopies, r.Inj.Reordered, r.Inj.GrayStalls)
	body += fmt.Sprintf("watch: %d events, converged: %v (stats %+v)\n", r.WatchEvents, r.WatchConverged, r.WatchStats)
	return r.format(fmt.Sprintf("realchaos [%s] seed=%d on live UDP", r.Schedule, r.Seed), body, true) +
		fmt.Sprintf("fault fingerprint: %s  history digest: %s\n", r.FaultFingerprint, r.HistoryDigest)
}

// DumpHistory renders the recorded history one operation per line — the
// artifact a failing run uploads so (schedule, seed) reproduces locally.
func (r *RealChaosResult) DumpHistory() string {
	return r.dump(fmt.Sprintf("# realchaos schedule=%s seed=%d", r.Schedule, r.Seed))
}
