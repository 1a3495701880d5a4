package experiments

import (
	"context"
	"fmt"
	"hash"
	"slices"
	"sync"
	"time"

	"netchain/internal/controller"
	"netchain/internal/event"
	"netchain/internal/faultconn"
	"netchain/internal/health"
	"netchain/internal/kv"
	"netchain/internal/localcluster"
	"netchain/internal/netsim"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/transport"
	"netchain/internal/watch"
)

// RunRealChaos runs the chaos scenario (see runChaosOn) on a live-UDP
// loopback cluster: real sockets, goroutine scheduling and wall-clock
// timeouts, with the faults injected at the syscall boundary by
// internal/faultconn. A push-watch subscriber converges through the
// fault-injected relay, and with no scripted operator on a real wire the
// φ-accrual monitor plus autopilot do every repair, so o.Autopilot is
// always on; o.Topology must be the ring. It is the evidence that the
// protocol's invariants survive what the simulator idealizes: kernel
// buffering, OS timer slop, a switch's ingest goroutines racing across its
// sockets, and a relay whose lease state lives behind a real port.
func RunRealChaos(o ChaosOpts) (*ChaosResult, error) {
	if o.OpsPerClient == 0 {
		o.OpsPerClient = realChaosOps
	}
	o.Autopilot = true
	return runChaosOn(o, bootWire)
}

const (
	realChaosOps       = 150                   // default operations per client
	realChaosRegisters = 12                    // under lincheck's per-key density ceiling at the default op count
	realChaosTimeScale = 20                    // wall-clock stretch of schedule time
	realChaosHeartbeat = 10 * time.Millisecond // heartbeat and monitor cadence
)

// wireChaos is the wire's side of a chaos run: the façade's live-UDP
// deployment (localcluster: relay, three chain members plus one spare,
// wall-clock controller, every datagram socket threaded through one
// faultconn.Injector) with a health plane on top — φ-accrual monitor,
// detector and autopilot — the workload's client sockets and a push-watch
// subscriber.
type wireChaos struct {
	cl  *localcluster.Cluster
	ctl *controller.Controller
	inj *faultconn.Injector
	sws []packet.Addr // members [0..2], spare [3]

	det   *health.Detector
	mon   *transport.Monitor
	pilot *controller.Autopilot

	ops   []*transport.Ops // one per client
	stops []func() error

	load      *chaosLoad
	do0       func(query.Call) (query.Outcome, error) // client 0 through the workload's ledger
	calls     sync.WaitGroup                          // one Done per call a client makes
	start     time.Duration                           // schedule t=0 on the clients' clock
	sub       *watch.Sub
	follower  *watch.Follower
	watchKeys []kv.Key
	events    uint64
	drained   chan struct{}
}

func bootWire(o ChaosOpts) (chaosSubstrate, error) {
	if o.Topology != "ring" {
		return nil, fmt.Errorf("experiments: the wire runs chaos on the ring only, not %q", o.Topology)
	}
	w := &wireChaos{inj: faultconn.New(o.Seed, faultconn.WithTimeScale(realChaosTimeScale))}
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()

	cl, err := localcluster.Start(localcluster.Config{
		Slots: 256, ClientTimeout: 25 * time.Millisecond, ClientRetries: 8, Faults: w.inj,
	})
	if err != nil {
		return nil, err
	}
	w.cl, w.ctl = cl, cl.Controller()
	w.stops = append(w.stops, cl.Close)
	for i := 0; i < cl.Switches(); i++ {
		a, err := cl.SwitchAddr(i)
		if err != nil {
			return nil, err
		}
		w.sws = append(w.sws, a)
	}

	// Health plane: the monitor's socket runs through the nemesis too
	// (its probes can be delayed and its intake degraded), heartbeats
	// resolve the monitor's virtual address through the shared book. That
	// address sits outside the switch and host ranges so fault targeting
	// never aliases it.
	mv := packet.AddrFrom4(10, 255, 0, 1)
	w.det = health.NewDetector(health.Config{HeartbeatEvery: realChaosHeartbeat})
	w.mon, err = transport.NewMonitor("127.0.0.1:0", mv, w.det,
		transport.WithMonitorFaults(w.inj.Pipe(mv)))
	if err != nil {
		return nil, err
	}
	w.stops = append(w.stops, w.mon.Close)
	for _, a := range w.sws {
		w.mon.Watch(a)
	}
	w.mon.StartProbes()
	if err := cl.StartHeartbeats(mv, w.mon.Endpoint(), realChaosHeartbeat); err != nil {
		return nil, err
	}
	w.pilot = controller.NewAutopilot(w.ctl, w.det, w.mon.Clock(),
		controller.AutopilotConfig{Spares: []packet.Addr{w.sws[3]}})

	// Clients (10.1.0.1, .2, ...) gateway through the survivors (S0 and the
	// gray S2, never the fail-stop victim S1): a client whose ToR powers off
	// is a host outage, not a protocol property this scenario measures.
	for i := 0; i < chaosClients; i++ {
		ops, err := cl.NewClient(2 * (i % 2))
		if err != nil {
			return nil, err
		}
		w.ops = append(w.ops, ops)
		w.stops = append(w.stops, ops.Client.Close)
	}
	ok = true
	return w, nil
}

// realChaosTargets maps the schedule's fault roles onto the wire topology
// with the sim testbed's assignment (testbedTargets); the host-cut isolates
// client 1. The switch addressing is fixed (10.0.0.1–4), so the mapping is
// a pure function of the options — RealChaosFingerprint relies on that.
func realChaosTargets(sws []packet.Addr) chaosTargets {
	return testbedTargets(sws, packet.AddrFrom4(10, 1, 0, 2))
}

// RealChaosFingerprint digests the fault decision stream a wire run with
// these options would inject, without booting a cluster — callers use it
// to verify the "same seed ⇒ same chaos" reproducibility contract.
func RealChaosFingerprint(o ChaosOpts) (string, error) {
	o.defaults()
	sc, err := chaosScenarioNamed(o.Schedule)
	if err != nil {
		return "", err
	}
	sws := make([]packet.Addr, 4)
	for i := range sws {
		sws[i] = packet.AddrFrom4(10, 0, 0, byte(i+1))
	}
	return faultconn.Fingerprint(o.Seed, sc.schedule(realChaosTargets(sws), true)), nil
}

func (w *wireChaos) targets() chaosTargets              { return realChaosTargets(w.sws) }
func (w *wireChaos) controller() *controller.Controller { return w.ctl }

// clock is the monitor's, the autopilot's: the clients and the watch
// follower keep time on it too.
func (w *wireChaos) clock() event.Clock { return w.mon.Clock() }

func (w *wireChaos) at(t event.Time) time.Duration {
	return w.start + time.Duration(float64(t)*realChaosTimeScale)
}

// close stops everything in reverse boot order, then audits the stopped
// switches' ledgers (localcluster.Cluster.Ledgers).
func (w *wireChaos) close() error {
	for i := len(w.stops) - 1; i >= 0; i-- {
		_ = w.stops[i]()
	}
	w.stops = nil
	if w.cl == nil {
		return nil
	}
	return w.cl.Ledgers()
}

// prepare inserts the keys through the controller (they land on every
// chain member via the agents) and writes their values through client 0,
// then subscribes a push-watch to the first registers through the
// fault-injected relay, resynced on stream gaps by linearizable re-reads.
func (w *wireChaos) prepare(opsPerClient int) (*chaosLoad, error) {
	w.load = newChaosLoad(realChaosRegisters, opsPerClient)
	// Client 0 also carries the preload and the watcher's resync reads; they
	// pass through the workload's ledger like every other call.
	w.do0 = w.load.counted(w.ops[0].Do)
	err := w.load.preload(func(k kv.Key, val kv.Value) error {
		if _, err := w.ctl.Insert(k); err != nil {
			return err
		}
		_, err := w.do0(query.Call{Op: kv.OpWrite, Key: k, Value: val})
		return err
	})
	if err != nil {
		return nil, err
	}

	for i := 0; i < 4; i++ {
		w.watchKeys = append(w.watchKeys, kv.KeyFromString(w.load.names[i]))
	}
	w.sub = watch.NewSub(w.watchKeys, func(k kv.Key) uint16 { return w.ctl.Route(k).Group }, 256)
	w.follower = watch.NewFollower(w.sub, w.clock(), watch.Serial(func(k kv.Key) (kv.Value, kv.Version, error) {
		out, err := w.do0(query.Call{Op: kv.OpRead, Key: k})
		return out.Value, out.Version, err
	}))
	wconn, err := w.cl.Subscribe(packet.AddrFrom4(10, 3, 0, 1), w.sub.Groups(), w.follower.Deliver)
	if err != nil {
		return nil, fmt.Errorf("watch subscribe: %w", err)
	}
	w.stops = append(w.stops, wconn.Close)
	w.follower.Start(context.Background(), 25*time.Millisecond, 0, nil)
	w.stops = append(w.stops, func() error { w.follower.Close(); return nil })
	w.drained = make(chan struct{})
	go func() { // drain the event channel; overflow self-heals via dirty marks
		defer close(w.drained)
		for range w.sub.Events() {
			w.events++
		}
	}()
	return w.load, nil
}

// client c issues each call on its own goroutine and thinks 3 ms between
// ops.
func (w *wireChaos) client(c int) (func(query.Call, func(query.Outcome, error)), time.Duration, error) {
	do := w.load.counted(w.ops[c].Do)
	w.calls.Add(w.load.opsPerClient)
	issue := func(call query.Call, done func(query.Outcome, error)) {
		go func() {
			done(do(call))
			w.calls.Done()
		}()
	}
	return issue, 3 * time.Millisecond, nil
}

// nemesis restarts the injector's clock: schedule time is stretched wall
// time from the workload's start.
func (w *wireChaos) nemesis() (event.Clock, netsim.Applier) {
	w.inj.ResetClock()
	w.start = w.clock().Now()
	return w.inj.Clock(), w.inj
}

// run starts the autopilot and waits for the clients, lets the schedule's
// last window elapse, then waits for the autopilot to finish repairing
// what the nemesis broke. It then stops injecting (pipes become
// pass-through), gives the watch subscriber one clean resync pass and
// checks its convergence against direct linearizable reads.
func (w *wireChaos) run(sc chaosScenario, schedule netsim.Schedule, res *ChaosResult) (*controller.Autopilot, *health.Detector, error) {
	w.pilot.Start()
	w.stops = append(w.stops, func() error { w.pilot.Stop(); return nil })
	w.calls.Wait()
	var last event.Time
	for _, st := range schedule {
		last = max(last, st.At+st.For)
	}
	if wait := w.at(last) - w.clock().Now(); wait > 0 {
		time.Sleep(wait)
	}
	if sc.failover {
		deadline := time.Now().Add(20 * time.Second) // repair ceiling
		recovered := func(ev controller.RepairEvent) bool { return ev.Action == controller.ActionRecoverDone }
		for !slices.ContainsFunc(w.pilot.History(), recovered) && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
		}
	}

	w.inj.Stop()
	w.sub.MarkDirty()
	time.Sleep(50 * time.Millisecond)
	converged := func(k kv.Key) bool {
		out, err := w.do0(query.Call{Op: kv.OpRead, Key: k})
		for deadline := time.Now().Add(2 * time.Second); err == nil && time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
			if present, ver, watched := w.sub.State(k); watched && present && !ver.Less(out.Version) {
				return true
			}
		}
		return false
	}
	res.watched, res.WatchConverged = true, true
	for _, k := range w.watchKeys {
		res.WatchConverged = converged(k) && res.WatchConverged
	}
	w.follower.Close()
	<-w.drained // Close closed the Sub, so the drain loop ended
	res.WatchEvents, res.WatchStats = w.events, w.sub.Stats()
	res.FaultFingerprint = faultconn.Fingerprint(res.Seed, schedule)
	return w.pilot, w.det, nil
}

func (w *wireChaos) books() (clients []query.Stats, inFlight int) {
	for _, ops := range w.ops {
		clients = append(clients, ops.Client.Stats().Stats)
		inFlight += ops.Client.InFlight()
	}
	return clients, inFlight
}

// finish adds the injector's counters; the history digest identifies the
// run, it pins nothing.
func (w *wireChaos) finish(r *ChaosResult, h hash.Hash) {
	r.Topology = "ring"
	r.Inj = w.inj.Stats()
	r.HistoryDigest = fmt.Sprintf("%x", h.Sum(nil))[:16]

	r.title = fmt.Sprintf("realchaos [%s] seed=%d on live UDP", r.Schedule, r.Seed)
	r.counters = fmt.Sprintf("nemesis: %d chaos drops, %d burst drops, %d partition drops, %d gray drops, "+
		"%d fail drops, %d delayed, %d dups, %d reordered, %d gray stalls\n",
		r.Inj.ChaosDrops, r.Inj.BurstDrops, r.Inj.PartitionDrops, r.Inj.GrayDrops,
		r.Inj.FailDrops, r.Inj.Delayed, r.Inj.DupCopies, r.Inj.Reordered, r.Inj.GrayStalls) +
		fmt.Sprintf("watch: %d events, converged: %v (stats %+v)\n", r.WatchEvents, r.WatchConverged, r.WatchStats)
	r.stamp = fmt.Sprintf("fault fingerprint: %s  history digest: %s\n", r.FaultFingerprint, r.HistoryDigest)
}
