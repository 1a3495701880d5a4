package experiments

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"netchain/internal/controller"
	"netchain/internal/core"
	"netchain/internal/faultconn"
	"netchain/internal/health"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/relay"
	"netchain/internal/ring"
	"netchain/internal/swsim"
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
// kernel buffering, OS timer slop, racing ingest workers, TCP'd control
// RPC, and a relay whose lease state lives behind a real port.

// RealChaosOpts parameterizes a wire chaos run.
type RealChaosOpts struct {
	Schedule     string        // named nemesis schedule (see ChaosScheduleNames); default "full-nemesis"
	Seed         int64         // drives fault randomness and client mixes; default 1
	Clients      int           // concurrent client sockets; default 3
	OpsPerClient int           // operations each client issues; default 150
	Registers    int           // independent register keys; default 8
	Pause        time.Duration // think time between a client's ops; default 3 ms
	Timeout      time.Duration // per-attempt client timeout; default 25 ms
	TimeScale    float64       // wall-clock stretch of schedule time; default 20
	Heartbeat    time.Duration // heartbeat/monitor cadence; default 10 ms
	RepairWait   time.Duration // post-workload ceiling for autopilot repairs; default 20 s
}

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
	if o.Pause == 0 {
		o.Pause = 3 * time.Millisecond
	}
	if o.Timeout == 0 {
		o.Timeout = 25 * time.Millisecond
	}
	if o.TimeScale == 0 {
		o.TimeScale = 20
	}
	if o.Heartbeat == 0 {
		o.Heartbeat = 10 * time.Millisecond
	}
	if o.RepairWait == 0 {
		o.RepairWait = 20 * time.Second
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

// realCluster is the live-UDP deployment: three chain members plus one
// spare, each a real core.Switch behind a transport.SwitchNode and an RPC
// agent, a wall-clock controller, a relay tier, a φ-accrual health
// monitor, and an autopilot — every socket threaded through one
// faultconn.Injector.
type realCluster struct {
	inj *faultconn.Injector
	sws []packet.Addr // members [0..2], spare [3]
	ctl *controller.Controller
	rs  *relay.Server

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

func (rc *realCluster) route(k kv.Key) (query.Route, error) {
	rt := rc.ctl.Route(k) // an empty chain surfaces as kv.ErrUnavailable when the frame is built
	return query.Route{Group: rt.Group, Hops: rt.Hops}, nil
}

func newRealCluster(o RealChaosOpts) (*realCluster, error) {
	rc := &realCluster{inj: faultconn.New(o.Seed, faultconn.WithTimeScale(o.TimeScale))}
	book := transport.NewAddressBook()
	agents := make(map[packet.Addr]controller.Agent)
	var nodes []*transport.SwitchNode
	ok := false
	defer func() {
		if !ok {
			rc.Close()
		}
	}()

	// Relay tier first so switch nodes can point their event egress at it.
	relayAddr := packet.AddrFrom4(10, 2, 0, 1)
	rs, err := relay.Start(relay.Config{Addr: relayAddr, Faults: rc.inj.Pipe(relayAddr)})
	if err != nil {
		return nil, err
	}
	rc.rs = rs
	rc.stops = append(rc.stops, rs.Close)
	rc.inj.RegisterEndpoint(relayAddr, rs.IngestEndpoint())
	rc.inj.RegisterEndpoint(relayAddr, rs.ControlEndpoint())

	// Four switches: three chain members and one recovery spare.
	for i := 0; i < 4; i++ {
		addr := packet.AddrFrom4(10, 0, 0, byte(i+1))
		sw, err := core.NewSwitch(addr, swsim.Config{
			Stages: 8, SlotBytes: 16, SlotsPerStage: 256, PPS: 1e9,
		})
		if err != nil {
			return nil, err
		}
		node, err := transport.NewSwitchNode(sw, book, "127.0.0.1:0",
			transport.WithFaultPipe(rc.inj.Pipe(addr)))
		if err != nil {
			return nil, err
		}
		node.SetEventSink(relayAddr, rs.IngestEndpoint())
		rc.inj.RegisterEndpoint(addr, node.Endpoint())
		rc.sws = append(rc.sws, addr)
		nodes = append(nodes, node)
		rc.stops = append(rc.stops, node.Close)

		rpcAddr, stopAgent, err := transport.ServeAgent(sw, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		rc.stops = append(rc.stops, stopAgent)
		// The agent dial is deliberately unwrapped: the sim's chaos runs
		// use LocalAgent, whose control channel survives a fail-stopped
		// dataplane — the wire keeps that parity so the autopilot can
		// still program rules into the surviving switches.
		agent, err := transport.DialAgent(rpcAddr.String())
		if err != nil {
			return nil, err
		}
		rc.stops = append(rc.stops, agent.Close)
		agents[addr] = agent
	}

	ringV, err := ring.New(ring.Config{VNodesPerSwitch: 8, Replicas: 3, Seed: 0x6e63}, rc.sws[:3])
	if err != nil {
		return nil, err
	}
	ccfg := controller.DefaultConfig()
	ccfg.RuleDelay = time.Millisecond
	ccfg.SyncPerItem = 0
	rc.ctl, err = controller.New(ccfg, ringV, controller.WallClock{},
		func(a packet.Addr) (controller.Agent, bool) {
			ag, found := agents[a]
			return ag, found
		},
		func(failed packet.Addr) []packet.Addr {
			var out []packet.Addr
			for _, a := range rc.sws {
				if a != failed {
					out = append(out, a)
				}
			}
			return out
		})
	if err != nil {
		return nil, err
	}

	// Health plane: the monitor's socket runs through the nemesis too
	// (its probes can be delayed and its intake degraded), heartbeats
	// resolve the monitor's virtual address through the shared book. That
	// address sits outside the switch and host ranges so fault targeting
	// never aliases it.
	mv := packet.AddrFrom4(10, 255, 0, 1)
	rc.det = health.NewDetector(health.Defaults(o.Heartbeat))
	rc.mon, err = health.NewMonitor("127.0.0.1:0", mv, rc.det,
		health.WithMonitorFaults(rc.inj.Pipe(mv)))
	if err != nil {
		return nil, err
	}
	rc.stops = append(rc.stops, rc.mon.Close)
	rc.inj.RegisterEndpoint(mv, rc.mon.Endpoint())
	book.Set(mv, rc.mon.Endpoint())
	for _, a := range rc.sws {
		rc.det.Track(a, rc.mon.Now())
		rc.mon.Watch(a)
	}
	rc.mon.StartProbes(2*o.Heartbeat, 8*o.Heartbeat)
	for _, n := range nodes {
		if err := n.StartHeartbeats(mv, o.Heartbeat); err != nil {
			return nil, err
		}
	}

	rc.pilot = controller.NewAutopilot(rc.ctl, rc.det, controller.WallClock{}, rc.mon.Now,
		controller.AutopilotConfig{
			Interval: o.Heartbeat,
			Spares:   []packet.Addr{rc.sws[3]},
		})

	// Clients gateway through the survivors (S0 and the gray S2, never
	// the fail-stop victim S1): a client whose ToR powers off is a host
	// outage, not a protocol property this scenario measures.
	for i := 0; i < o.Clients; i++ {
		caddr := packet.AddrFrom4(10, 1, 0, byte(i+1))
		gw := rc.sws[0]
		if i%2 == 1 {
			gw = rc.sws[2]
		}
		tc, err := transport.NewClient(book, transport.ClientConfig{
			Addr:    caddr,
			Gateway: gw,
			Bind:    "127.0.0.1:0",
			Timeout: o.Timeout,
			Retries: 8,
			Faults:  rc.inj.Pipe(caddr),
		})
		if err != nil {
			return nil, err
		}
		rc.inj.RegisterEndpoint(caddr, tc.LocalEndpoint())
		rc.ops = append(rc.ops, &transport.Ops{Client: tc, Dir: rc.route})
		rc.stops = append(rc.stops, tc.Close)
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
	sig := make(chan struct{}, 1)
	deliver := func(ev query.Event) {
		if sub.ApplyEvent(ev) {
			select {
			case sig <- struct{}{}:
			default:
			}
		}
	}
	wAddr := packet.AddrFrom4(10, 3, 0, 1)
	wconn, err := relay.Subscribe(rc.rs.Mode(), rc.rs.ControlEndpoint(), sub.Groups(), deliver,
		relay.WithSubFaults(rc.inj.Pipe(wAddr)))
	if err != nil {
		return nil, fmt.Errorf("watch subscribe: %w", err)
	}
	defer wconn.Close()
	var watchWG sync.WaitGroup
	watchStop := make(chan struct{})
	var watchEvents uint64
	watchWG.Add(2)
	go func() { // drain the event channel; overflow self-heals via dirty marks
		defer watchWG.Done()
		for range sub.Events() {
			watchEvents++
		}
	}()
	readDirty := func() {
		for _, k := range sub.TakeDirty() {
			out, rerr := do0(query.Call{Op: kv.OpRead, Key: k})
			switch {
			case rerr == nil:
				sub.ApplyRead(k, true, out.Value, out.Version)
			case errors.Is(rerr, kv.ErrNotFound):
				sub.ApplyRead(k, false, nil, out.Version)
			default:
				sub.MarkDirty(k)
			}
		}
	}
	go func() {
		defer watchWG.Done()
		readDirty()
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-watchStop:
				return
			case <-sig:
				readDirty()
			case <-tick.C:
				readDirty()
			}
		}
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
	if err := rc.inj.RunSchedule(schedule); err != nil {
		return nil, err
	}

	start := time.Now()
	now := func() int64 { return int64(time.Since(start)) }
	var wg sync.WaitGroup
	for c := 0; c < o.Clients; c++ {
		wg.Add(1)
		go func(cid int) {
			defer wg.Done()
			load.client(o.Seed, cid).loop(load.counted(rc.ops[cid].Do), now, func() { time.Sleep(o.Pause) })
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
		if end := time.Duration(float64(st.At+st.For) * o.TimeScale); end > lastAt {
			lastAt = end
		}
	}
	if since := rc.mon.Now() - schedStart; since < lastAt {
		time.Sleep(lastAt - since)
	}
	if sc.failover {
		deadline := time.Now().Add(o.RepairWait)
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
	close(watchStop)
	wconn.Close()
	sub.Close()
	watchWG.Wait()
	res.WatchEvents = watchEvents
	res.WatchStats = sub.Stats()

	res.Repairs = rc.pilot.History()
	res.Health = rc.det.Snapshot(rc.mon.Now())
	res.tallyRepairs(sc, tg.fail, schedStart+time.Duration(float64(sc.faultAt)*o.TimeScale), rc.ctl)

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
