package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"netchain"
)

// opClass splits latencies by what the op does on the chain.
type opClass int

const (
	clsRead opClass = iota
	clsWrite
	clsCAS
	numClasses
)

// classNames label a class's spans; classMetrics its netchain.* rows.
var (
	classNames   = [numClasses]string{"Read", "Write", "CAS"}
	classMetrics = [numClasses]string{"read", "write", "cas"}
)

type loopKind int

const (
	loopSatRead  loopKind = iota // closed loop, window of async reads
	loopSatWrite                 // closed loop, window of async writes
	loopMixed                    // closed loop, one blocking call outstanding
	loopPaced                    // open loop with fail/recover cycles
)

// spec is one named workload. The names are fixed: later issues cite them;
// why each was chosen is recorded in BENCHMARK.json and README.md.
type spec struct {
	name      string
	loop      loopKind
	valueSize int
	switches  int
	window    int    // ClientWindow; 0 leaves admission to the generator
	gateways  [2]int // client i attaches through gateways[i]
	timeout   time.Duration
	retries   int
	headline  opClass // the class whose path packet.wire_bytes_per_op counts
	windows   int     // timed windows per run; a timing metric is the median of their values
}

const (
	numKeys    = 1024
	numClients = 2
	// failover-paced sends 5000 ops/s per client as 5 ops on every
	// millisecond tick. The Go runtime parks sleepers on its netpoller,
	// whose timeouts are whole milliseconds, so a finer schedule would only
	// be met late; even this one runs half a tick late at the median
	// (loadgen.lateness_p99_us). Blocking in nanosleep(2) instead halved the
	// lateness but tripled its run-to-run spread (288 to 370 us p50 from due
	// time), so the steadier clock stays.
	pacedTick  = time.Millisecond
	pacedBurst = 5
	// closedTimeout keeps the retransmit timer far from any scheduling
	// hiccup of a shared 2-core box, so that on the closed-loop workloads
	// one datagram sent per op and zero retries is a checkable invariant.
	closedTimeout = time.Second
)

var specs = []spec{
	{
		name: "read-sat", loop: loopSatRead, valueSize: 16, switches: 4, window: 32,
		gateways: [2]int{0, 1}, timeout: closedTimeout, retries: 5, headline: clsRead, windows: 5,
	},
	{
		name: "write-sat", loop: loopSatWrite, valueSize: 128, switches: 4, window: 32,
		gateways: [2]int{0, 1}, timeout: closedTimeout, retries: 5, headline: clsWrite, windows: 5,
	},
	{
		name: "mixed-unloaded", loop: loopMixed, valueSize: 64, switches: 4, window: 0,
		gateways: [2]int{0, 1}, timeout: closedTimeout, retries: 5, headline: clsRead, windows: 5,
	},
	{
		name: "failover-paced", loop: loopPaced, valueSize: 64, switches: 6, window: 0,
		gateways: [2]int{0, 0}, timeout: 20 * time.Millisecond, retries: 8, headline: clsWrite, windows: 3,
	},
}

func findSpec(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// window is what one client records during one timed window.
type window struct {
	done atomic.Uint64
	lat  [numClasses]*hist
}

// harness is the state a run's generators share. It knows nothing of the
// cluster, so the same generators can run against memClient.
type harness struct {
	sp     spec
	ks     *keyspace
	stop   atomic.Bool
	phase  atomic.Int32           // timed window being recorded, -1 outside one
	tracer atomic.Pointer[tracer] // set while a traced segment runs
	root   int                    // span the op spans hang under

	attempted atomic.Int64
	failed    atomic.Int64
	// Open loop: attempts that ended in ErrUnavailable, and in any other
	// error, and were submitted again. Neither is a failed op.
	refused     atomic.Int64
	resubmitted atomic.Int64

	mu       sync.Mutex
	findings []string // violations, as printed

	ackedAt  [numClients]stamps // failover-paced: when each write was acknowledged
	lateness *hist              // open loop: how far behind its schedule the generator ran
}

// stamps is an append-only list of times, written by reply callbacks.
type stamps struct {
	mu sync.Mutex
	at []time.Time
}

func (s *stamps) add(t time.Time) {
	s.mu.Lock()
	s.at = append(s.at, t)
	s.mu.Unlock()
}

func newHarness(sp spec, ks *keyspace) *harness {
	h := &harness{sp: sp, ks: ks, lateness: newHist()}
	h.phase.Store(-1)
	return h
}

// violate records a failed op or a broken invariant; the run then reports
// correct=false and exits non-zero. The first twenty are kept for the report.
func (h *harness) violate(format string, args ...any) {
	h.failed.Add(1)
	h.mu.Lock()
	if len(h.findings) < 20 {
		h.findings = append(h.findings, fmt.Sprintf("VIOLATION "+format, args...))
	}
	h.mu.Unlock()
}

// gen is one load generator: one goroutine driving one client.
type gen struct {
	h        *harness
	c        int // client index, also the parity of the keys it writes
	cl       kvClient
	pick     *keyPicker
	wins     []*window
	inflight atomic.Int64
	ops      int64 // ops issued; only the generator goroutine touches it
}

func newGen(h *harness, c int, cl kvClient, seed int64) *gen {
	theta := 0.0
	if h.sp.loop == loopMixed {
		theta = 0.99
	}
	g := &gen{h: h, c: c, cl: cl, pick: newKeyPicker(seed<<8|int64(c), numKeys, theta)}
	// Two segments' worth: the traced pass times an untraced segment and a
	// traced one on the same generators.
	for i := 0; i < 2*h.sp.windows; i++ {
		w := &window{}
		for cls := range w.lat {
			w.lat[cls] = newHist()
		}
		g.wins = append(g.wins, w)
	}
	return g
}

func (g *gen) run() {
	switch g.h.sp.loop {
	case loopSatRead:
		for !g.h.stop.Load() {
			g.readAsync(g.pick.key(), time.Now())
		}
	case loopSatWrite:
		for !g.h.stop.Load() {
			g.writeAsync(own(g.pick.key(), g.c), time.Now())
		}
	case loopMixed:
		for !g.h.stop.Load() {
			switch r := g.pick.rng.Float64(); {
			case r < 0.8:
				g.read(g.pick.key())
			case r < 0.9:
				g.write(own(g.pick.key(), g.c))
			default:
				g.lockPair(g.pick.rng.Intn(locksPerClient))
			}
		}
	case loopPaced:
		g.runPaced()
	}
}

// finish records one completed op. from is when the op was issued, or when
// it was due in the open loop.
func (g *gen) finish(cls opClass, from time.Time, err error) {
	now := time.Now()
	if err != nil {
		return
	}
	if w := g.h.phase.Load(); w >= 0 {
		g.wins[w].lat[cls].add(int64(now.Sub(from)))
		g.wins[w].done.Add(1)
	}
	if t := g.h.tracer.Load(); t != nil {
		t.op(g.h.root, classNames[cls], from, now)
	}
}

// checkRead verifies a read of key i issued when floor was the key's last
// acknowledged seq: the value must be intact, belong to the key, and carry
// a seq its writer has issued and that is not older than floor.
func (g *gen) checkRead(i int, floor uint64, v netchain.Value, err error) error {
	if err != nil {
		return err
	}
	seq, err := checkValue(v, g.h.ks.size, uint32(i))
	if err != nil {
		return err
	}
	if seq < floor {
		return fmt.Errorf("stale read: seq %d after seq %d was acknowledged", seq, floor)
	}
	if issued := g.h.ks.next[i].Load(); seq > issued {
		return fmt.Errorf("read seq %d but only %d were written", seq, issued)
	}
	return nil
}

// readDone checks and records a completed read; writeDone a completed write.
// A stale read fails the pass on every workload, failover-paced's faults
// included: that is the linearizability the paper claims through failures.
func (g *gen) readDone(i int, floor uint64, from time.Time, v netchain.Value, err error) {
	if err = g.checkRead(i, floor, v, err); err != nil {
		g.h.violate("read key %d: %v", i, err)
	}
	g.finish(clsRead, from, err)
}

func (g *gen) writeDone(i int, seq uint64, from time.Time, err error) {
	if err != nil {
		g.h.violate("write key %d seq %d: %v", i, seq, err)
	} else {
		g.h.ks.ack(i, seq)
	}
	g.finish(clsWrite, from, err)
}

func (g *gen) readAsync(i int, from time.Time) {
	h := g.h
	floor := h.ks.acked[i].Load()
	h.attempted.Add(1)
	g.inflight.Add(1)
	g.cl.ReadAsync(h.ks.keys[i], func(v netchain.Value, _ netchain.Version, err error) {
		g.readDone(i, floor, from, v, err)
		g.inflight.Add(-1)
	})
}

func (g *gen) writeAsync(i int, from time.Time) {
	h := g.h
	seq := h.ks.next[i].Add(1)
	h.attempted.Add(1)
	g.inflight.Add(1)
	g.cl.WriteAsync(h.ks.keys[i], newValue(h.ks.size, uint32(i), seq), func(_ netchain.Version, err error) {
		g.writeDone(i, seq, from, err)
		g.inflight.Add(-1)
	})
}

func (g *gen) read(i int) {
	h := g.h
	floor := h.ks.acked[i].Load()
	h.attempted.Add(1)
	from := time.Now()
	v, _, err := g.cl.Read(h.ks.keys[i])
	g.readDone(i, floor, from, v, err)
}

func (g *gen) write(i int) {
	h := g.h
	seq := h.ks.next[i].Add(1)
	h.attempted.Add(1)
	from := time.Now()
	_, err := g.cl.Write(h.ks.keys[i], newValue(h.ks.size, uint32(i), seq))
	g.writeDone(i, seq, from, err)
}

// lockPair takes and frees one of the client's own locks: two uncontended
// compare-and-swaps, each timed on its own.
func (g *gen) lockPair(j int) {
	k, owner := lockKey(g.c, j), uint64(g.c)+1
	for _, step := range []struct {
		name string
		call func(netchain.Key, uint64) (bool, error)
	}{{"acquire", g.cl.Acquire}, {"release", g.cl.Release}} {
		g.h.attempted.Add(1)
		from := time.Now()
		ok, err := step.call(k, owner)
		if err == nil && !ok {
			err = errors.New("refused on an uncontended lock")
		}
		if err != nil {
			g.h.violate("%s lock %d of client %d: %v", step.name, j, g.c, err)
		}
		g.finish(clsCAS, from, err)
	}
}

// pacedOp is one open-loop op; it keeps its due time across attempts.
type pacedOp struct {
	write bool
	key   int
	seq   uint64
	floor uint64
	due   time.Time
	retry time.Time // when to submit it again after a failed attempt
}

// An attempt that ends in an error (refused by a migration freeze, or out
// of retransmissions) is submitted again after retryPause, as an
// application would, until retryGrace past the op's due time; only then
// does the op count as failed. A wrong reply fails it at once.
const (
	retryGrace = time.Second
	retryPause = time.Millisecond
)

// runPaced issues ops on a fixed schedule, whatever the cluster does.
// Latency always runs from the op's due time.
func (g *gen) runPaced() {
	h := g.h
	start := time.Now()
	// due is when op n is to be sent: pacedBurst ops on every tick.
	due := func(n int64) time.Time { return start.Add(time.Duration(n/pacedBurst) * pacedTick) }
	var (
		mu      sync.Mutex
		waiting []*pacedOp // in retry order: every pause is the same
	)
	again := func(op *pacedOp, err error) {
		if errors.Is(err, netchain.ErrUnavailable) {
			h.refused.Add(1)
		} else {
			h.resubmitted.Add(1)
		}
		op.retry = time.Now().Add(retryPause)
		mu.Lock()
		waiting = append(waiting, op)
		mu.Unlock()
	}
	submit := func(op *pacedOp) {
		g.inflight.Add(1)
		if op.write {
			g.cl.WriteAsync(h.ks.keys[op.key], newValue(h.ks.size, uint32(op.key), op.seq), func(_ netchain.Version, err error) {
				defer g.inflight.Add(-1)
				if err != nil {
					again(op, err)
					return
				}
				h.ackedAt[g.c].add(time.Now())
				h.ks.busy[op.key].Store(false)
				g.writeDone(op.key, op.seq, op.due, nil)
			})
			return
		}
		g.cl.ReadAsync(h.ks.keys[op.key], func(v netchain.Value, _ netchain.Version, err error) {
			defer g.inflight.Add(-1)
			if err != nil {
				again(op, err)
				return
			}
			g.readDone(op.key, op.floor, op.due, v, nil)
		})
	}
	// resubmit sends again every waiting op whose pause is over and returns
	// when the next one's will be (zero when none waits).
	resubmit := func(now time.Time) time.Time {
		for {
			mu.Lock()
			if len(waiting) == 0 || waiting[0].retry.After(now) {
				var next time.Time
				if len(waiting) > 0 {
					next = waiting[0].retry
				}
				mu.Unlock()
				return next
			}
			op := waiting[0]
			waiting = waiting[1:]
			mu.Unlock()
			if now.Sub(op.due) > retryGrace {
				h.violate("key %d: no attempt succeeded within %v of its due time", op.key, retryGrace)
				if op.write {
					h.ks.busy[op.key].Store(false)
				}
				continue
			}
			submit(op)
		}
	}
	for !h.stop.Load() {
		now := time.Now()
		next := resubmit(now)
		for ; !due(g.ops).After(now); g.ops++ {
			at := due(g.ops)
			h.lateness.add(int64(now.Sub(at)))
			h.attempted.Add(1)
			op := &pacedOp{key: g.pick.key(), due: at, write: g.pick.rng.Intn(2) == 0}
			if op.write {
				// A write needs a key of this client's with none in flight;
				// with eight neighbours busy the op becomes a read.
				if k := g.freeOwnKey(op.key); k >= 0 {
					op.key, op.seq = k, h.ks.next[k].Add(1)
				} else {
					op.write = false
				}
			}
			if !op.write {
				op.floor = h.ks.acked[op.key].Load()
			}
			submit(op)
		}
		if at := due(g.ops); next.IsZero() || at.Before(next) {
			next = at
		}
		time.Sleep(time.Until(next))
	}
	// Attempts that failed at the very end are settled before the audit.
	for {
		next := resubmit(time.Now())
		if next.IsZero() && g.inflight.Load() == 0 {
			return
		}
		time.Sleep(retryPause)
	}
}

// freeOwnKey returns a key of this client near i with no write in flight
// and marks it busy, or -1 when eight neighbours are all busy.
func (g *gen) freeOwnKey(i int) int {
	for n := 0; n < 8; n++ {
		k := own((i+2*n)%numKeys, g.c)
		if g.h.ks.busy[k].CompareAndSwap(false, true) {
			return k
		}
	}
	return -1
}

// env is a booted cluster with its two clients and the shared harness.
type env struct {
	*harness
	cluster *netchain.Cluster
	clients [numClients]*netchain.Client
	gens    [numClients]*gen
	wg      sync.WaitGroup

	lastFault time.Time // when the last FailSwitch or Recover returned
}

// seedWindow bounds the seeding writes in flight: the paced workloads run
// with an uncapped client window, and a thousand-frame burst would test
// the kernel's socket buffer, not the set-up path.
const seedWindow = 32

// boot starts the workload's cluster, attaches the clients, inserts every
// key and seeds it with seq 1. This is the work setup_s times.
func boot(sp spec, ks *keyspace) (*netchain.Cluster, [numClients]*netchain.Client, error) {
	var clients [numClients]*netchain.Client
	cluster, err := netchain.StartLocalCluster(netchain.ClusterConfig{
		Switches: sp.switches, Replicas: 3,
		ClientWindow: sp.window, ClientTimeout: sp.timeout, ClientRetries: sp.retries,
		// One ingest socket per switch. With the default, one SO_REUSEPORT
		// socket per core, the kernel hashes each flow's ephemeral ports to
		// pick the ingest goroutine that serves it, and identical runs of
		// read-sat differed by 20 % (333K to 406K ops/s) on that lottery;
		// with one socket they stay within 3 %.
		IngestSockets: 1,
	})
	if err != nil {
		return nil, clients, fmt.Errorf("start cluster: %w", err)
	}
	fail := func(err error) (*netchain.Cluster, [numClients]*netchain.Client, error) {
		shutdown(cluster, clients)
		return nil, clients, err
	}
	for c := range clients {
		if clients[c], err = cluster.NewClient(sp.gateways[c]); err != nil {
			return fail(fmt.Errorf("client %d: %w", c, err))
		}
	}
	for i, k := range ks.keys {
		if err := cluster.Insert(k); err != nil {
			return fail(fmt.Errorf("insert key %d: %w", i, err))
		}
	}
	if sp.loop == loopMixed {
		for c := range clients {
			for j := 0; j < locksPerClient; j++ {
				if err := cluster.Insert(lockKey(c, j)); err != nil {
					return fail(fmt.Errorf("insert lock %d/%d: %w", c, j, err))
				}
			}
		}
	}
	var (
		slots   = make(chan struct{}, seedWindow)
		seedErr atomic.Pointer[error]
	)
	for i, k := range ks.keys {
		slots <- struct{}{}
		ks.next[i].Store(1)
		ks.acked[i].Store(1)
		ks.busy[i].Store(false)
		clients[i%numClients].WriteAsync(k, newValue(ks.size, uint32(i), 1), func(_ netchain.Version, err error) {
			if err != nil {
				seedErr.CompareAndSwap(nil, &err)
			}
			<-slots
		})
	}
	for i := 0; i < seedWindow; i++ {
		slots <- struct{}{}
	}
	if p := seedErr.Load(); p != nil {
		return fail(fmt.Errorf("seed: %w", *p))
	}
	return cluster, clients, nil
}

func shutdown(cluster *netchain.Cluster, clients [numClients]*netchain.Client) {
	for _, cl := range clients {
		if cl != nil {
			_ = cl.Close()
		}
	}
	_ = cluster.Close()
}

// newEnv boots the workload's cluster and returns it with how long the
// boot took.
func newEnv(sp spec, seed int64) (*env, time.Duration, error) {
	ks := newKeyspace(numKeys, sp.valueSize)
	e := &env{harness: newHarness(sp, ks)}
	t0 := time.Now()
	var err error
	if e.cluster, e.clients, err = boot(sp, ks); err != nil {
		return nil, 0, err
	}
	took := time.Since(t0)
	for c := range e.gens {
		e.gens[c] = newGen(e.harness, c, e.clients[c], seed)
	}
	return e, took, nil
}

func (e *env) start() {
	for _, g := range e.gens {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			g.run()
		}()
	}
}

// halt stops the generators and waits for every op in flight to complete.
func (e *env) halt() {
	e.stop.Store(true)
	e.wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for _, g := range e.gens {
		for g.inflight.Load() != 0 {
			if time.Now().After(deadline) {
				e.violate("%d ops of client %d never completed", g.inflight.Load(), g.c)
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// audit reads every key back once the load has stopped: each must hold an
// intact value whose seq is at least the last one acknowledged, so no
// acknowledged write was lost, through failovers and recoveries included.
func (e *env) audit() {
	g := e.gens[0]
	for i := range e.ks.keys {
		floor := e.ks.acked[i].Load()
		e.attempted.Add(1)
		v, _, err := e.clients[0].Read(e.ks.keys[i])
		if err = g.checkRead(i, floor, v, err); err != nil {
			e.violate("audit key %d: %v", i, err)
		}
	}
}

func (e *env) close() { shutdown(e.cluster, e.clients) }
