package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netchain/internal/controller"
	"netchain/internal/health"
	"netchain/internal/kv"
	"netchain/internal/lincheck"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/transport"
)

// chaosLoad is the one workload both chaos harnesses run: register keys plus
// two contended locks, per-client seeded mixes of reads, writes and CAS lock
// handoffs, and the lincheck history they leave. It knows no substrate:
// RunChaos steps its clients by callback on the simulator's clock
// (chaosClient.drive), RunRealChaos loops over them with blocking wire calls
// (chaosClient.loop), and both feed every completion as (query.Call,
// query.Outcome, error) into the same recorder.
type chaosLoad struct {
	names        []string // registers first, then locks
	registers    int
	opsPerClient int
	initial      map[string]string // the state lincheck starts every key from

	mu      sync.Mutex // wire clients record concurrently
	history []lincheck.Op
	err     error // first harness failure

	// The workload's own ledger of the calls it handed to clients, kept apart
	// from the clients' counters so reconcile can hold one against the other.
	// Timed-out calls are deliberately not tallied here: that count is the
	// retry core's to get right.
	submitted, acked, closed atomic.Uint64
}

func newChaosLoad(registers, opsPerClient int) *chaosLoad {
	l := &chaosLoad{registers: registers, opsPerClient: opsPerClient, initial: map[string]string{}}
	for i := 0; i < registers; i++ {
		l.names = append(l.names, fmt.Sprintf("k%d", i))
	}
	l.names = append(l.names, "lockA", "lockB")
	return l
}

// preload hands every key and its initial value (locks start free) to put,
// which makes them exist on the substrate.
func (l *chaosLoad) preload(put func(k kv.Key, val kv.Value) error) error {
	for i, name := range l.names {
		val := kv.Value("init-" + name)
		if i >= l.registers {
			val = query.OwnerValue(0, nil)
		}
		if err := put(kv.KeyFromString(name), val); err != nil {
			return fmt.Errorf("preload %q: %w", name, err)
		}
		l.initial[name] = string(val)
	}
	return nil
}

func (l *chaosLoad) fail(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		l.err = err
	}
}

func (l *chaosLoad) issued() { l.submitted.Add(1) }

func (l *chaosLoad) returned(err error) {
	switch {
	case errors.Is(err, kv.ErrTimeout):
	case errors.Is(err, transport.ErrClosed):
		l.closed.Add(1)
	default:
		l.acked.Add(1) // a reply arrived, whatever its status said
	}
}

// counted wraps a blocking client entry so its calls pass through the ledger.
func (l *chaosLoad) counted(do func(query.Call) (query.Outcome, error)) func(query.Call) (query.Outcome, error) {
	return func(c query.Call) (query.Outcome, error) {
		l.issued()
		out, err := do(c)
		l.returned(err)
		return out, err
	}
}

// reconcile closes the client-side books once the run is over (ROADMAP
// 5(b)): every call the workload submitted was acknowledged, timed out,
// failed by Close or is still in flight, and every attempt the clients sent
// is a first send or a counted retry. clients are the retry cores' counters,
// summed into r.Client.
func (l *chaosLoad) reconcile(r *ChaosReport, inFlight int, clients []query.Stats) error {
	for _, st := range clients {
		r.Client.Sent += st.Sent
		r.Client.Retries += st.Retries
		r.Client.Timeouts += st.Timeouts
		r.Client.Late += st.Late
	}
	sub, ack, closed := l.submitted.Load(), l.acked.Load(), l.closed.Load()
	if sub != ack+r.Client.Timeouts+closed+uint64(inFlight) {
		return fmt.Errorf("experiments: client calls not conserved: submitted %d != acked %d + timed out %d + closed %d + in flight %d",
			sub, ack, r.Client.Timeouts, closed, inFlight)
	}
	if r.Client.Sent != sub+r.Client.Retries {
		return fmt.Errorf("experiments: client sends not conserved: sent %d != submitted %d + retries %d",
			r.Client.Sent, sub, r.Client.Retries)
	}
	return nil
}

// chaosClient is one client's op stream and lock bookkeeping.
type chaosClient struct {
	load    *chaosLoad
	id      int
	owner   uint64 // unique per client, the lock protocol's invariant
	rng     *rand.Rand
	holding map[string]bool // locks this client believes it holds
	n       int
}

func (l *chaosLoad) client(seed int64, id int) *chaosClient {
	return &chaosClient{
		load: l, id: id, owner: uint64(id + 1),
		rng:     rand.New(rand.NewSource(seed*1000 + int64(id))),
		holding: map[string]bool{},
	}
}

// next draws the client's next operation: 50% read a random register, 38%
// write one, 12% fight over a lock — acquire it, or release it if held.
func (c *chaosClient) next() (name string, call query.Call, ok bool) {
	l := c.load
	if c.n >= l.opsPerClient {
		return "", query.Call{}, false
	}
	switch r := c.rng.Float64(); {
	case r < 0.5:
		name = l.names[c.rng.Intn(l.registers)]
		call = query.Call{Op: kv.OpRead, Key: kv.KeyFromString(name)}
	case r < 0.88:
		name = l.names[c.rng.Intn(l.registers)]
		call = query.Call{Op: kv.OpWrite, Key: kv.KeyFromString(name),
			Value: kv.Value(fmt.Sprintf("c%d-n%d", c.id, c.n))}
	default:
		name = l.names[l.registers+c.rng.Intn(len(l.names)-l.registers)]
		call = query.Acquire(kv.KeyFromString(name), c.owner)
		if c.holding[name] {
			call = query.Release(call.Key, c.owner)
		}
	}
	c.n++
	return name, call, true
}

// done folds one completed operation into the history and the client's
// lock bookkeeping. invoke and ret are on the substrate's own timeline.
func (c *chaosClient) done(name string, call query.Call, out query.Outcome, err error, invoke, ret int64) {
	op := lincheck.Op{Client: c.id, Key: name, Invoke: invoke, Return: ret}
	switch call.Op {
	case kv.OpRead:
		op.Kind = lincheck.Read
	case kv.OpWrite:
		op.Kind, op.Input = lincheck.Write, string(call.Value)
	case kv.OpCAS:
		op.Kind, op.Expect, op.Input = lincheck.CAS, call.Expect, string(call.Value)
	}
	switch {
	case errors.Is(err, kv.ErrTimeout):
		// The outcome never arrived: the return window stays open and the
		// checker decides whether and when the op took effect.
		op.Return, op.Unknown = lincheck.Infinity, true
	case errors.Is(err, kv.ErrUnavailable):
		return // refused by a migration freeze or a dead chain: constrains nothing
	case errors.Is(err, kv.ErrNotFound) && op.Kind == lincheck.Read:
		// Observed absent: Found stays false.
	case errors.Is(err, kv.ErrNotFound):
		return // refused before taking effect
	case err != nil:
		c.load.fail(fmt.Errorf("client %d: %v %s: %w", c.id, op.Kind, name, err))
		return
	case op.Kind == lincheck.Read:
		op.OK, op.Found, op.Output = true, true, string(out.Value)
	case op.Kind == lincheck.Write || out.Swapped:
		op.OK = true
	case out.Assumed || call.Expect != 0:
		// An acquire that bounced off our own owner id (we hold the lock,
		// query.Outcome.Assumed), or a failed release (owners being unique,
		// the stored owner no longer being us means our release DID apply
		// and this reply belongs to a duplicate or retry): which attempt
		// took effect, and when, is unknowable from here.
		op.Unknown = true
	default:
		op.Output = string(out.Value) // a lost acquire observed the holder
	}
	if op.Kind == lincheck.CAS && err == nil {
		// Timeouts and refusals leave holding as it was: a bounced release
		// took no effect (still ours), and a wrong guess self-corrects — an
		// acquire while we secretly own the lock comes back Assumed.
		switch {
		case out.Swapped || out.Assumed:
			c.holding[name] = call.Expect == 0
		case call.Expect != 0:
			c.holding[name] = false
		}
	}
	c.load.mu.Lock()
	c.load.history = append(c.load.history, op)
	c.load.mu.Unlock()
}

// drive runs the client by callback, the simulator's entry: issue submits
// a call and reports its outcome later, after schedules the next step one
// think time on.
func (c *chaosClient) drive(issue func(query.Call, func(query.Outcome, error)),
	now func() int64, after func(func())) {
	name, call, ok := c.next()
	if !ok {
		return
	}
	invoke := now()
	issue(call, func(out query.Outcome, err error) {
		c.done(name, call, out, err, invoke, now())
		after(func() { c.drive(issue, now, after) })
	})
}

// loop runs the client with blocking calls, the wire's entry: do resolves
// one call, pause is the think time.
func (c *chaosClient) loop(do func(query.Call) (query.Outcome, error), now func() int64, pause func()) {
	for {
		name, call, ok := c.next()
		if !ok {
			return
		}
		invoke := now()
		out, err := do(call)
		c.done(name, call, out, err, invoke, now())
		pause()
	}
}

// ChaosReport is the part of a chaos result both substrates report alike:
// the recorded history with its tally and linearizability verdict, and what
// the autopilot did (zero-valued when none ran) read against the schedule.
type ChaosReport struct {
	Schedule string
	Lin      lincheck.Result
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
	Repairs          []controller.RepairEvent
	Health           []health.SwitchHealth
	Failovers        int           // fail-stop evictions the autopilot executed
	Demotions        int           // gray demotions the autopilot executed
	FalseEvictions   int           // failovers of switches the schedule never killed
	DetectLatency    time.Duration // fault injection → first repair verdict acted on
	RepairLatency    time.Duration // verdict → repair complete
	ChainsRepaired   bool          // failover schedules: every chain back at full length, dead switch gone

	NemesisLog []string
}

// check closes the workload into r, or returns the first harness failure.
func (l *chaosLoad) check(r *ChaosReport) error {
	if l.err != nil {
		return l.err
	}
	r.History, r.Ops = l.history, len(l.history)
	for _, op := range l.history {
		if op.Unknown {
			r.Unknowns++
		}
		if op.Return != lincheck.Infinity && time.Duration(op.Return) > r.HistoryEnd {
			r.HistoryEnd = time.Duration(op.Return)
		}
	}
	r.Lin = lincheck.Check(l.history, l.initial)
	return nil
}

// writeHistory renders the history one operation per line — shared by the
// fingerprints and the failure dumps so an uploaded artifact always matches
// the hash that flagged the run.
func (r *ChaosReport) writeHistory(w io.Writer) {
	for _, op := range r.History {
		fmt.Fprintf(w, "c%d %v %s in=%q out=%q ok=%v found=%v unk=%v @%d..%d\n",
			op.Client, op.Kind, op.Key, op.Input, op.Output, op.OK, op.Found,
			op.Unknown, op.Invoke, op.Return)
	}
}

// clientLine renders the clients' retry-core counters.
func (r *ChaosReport) clientLine() string {
	return fmt.Sprintf("clients: %d attempts sent, %d retries, %d timeouts, %d late replies\n",
		r.Client.Sent, r.Client.Retries, r.Client.Timeouts, r.Client.Late)
}

// dump is the failure artifact: header, tally, then the history.
func (r *ChaosReport) dump(header string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s ops=%d lin=%v\n", header, r.Ops, r.Lin.OK)
	r.writeHistory(&b)
	return b.String()
}

// tallyRepairs reads the autopilot's repair log: counts, false evictions,
// and the MTTR milestones relative to the schedule's repairable fault (the
// victim's fail-stop, or the gray onset), injected at faultAt on the log's clock.
func (r *ChaosReport) tallyRepairs(sc chaosScenario, victim packet.Addr, faultAt time.Duration, ctl *controller.Controller) {
	firstAt := map[controller.RepairAction]time.Duration{}
	for _, ev := range r.Repairs {
		switch ev.Action {
		case controller.ActionFailover:
			r.Failovers++
			if !sc.failover || ev.Switch != victim {
				r.FalseEvictions++
				continue
			}
		case controller.ActionDemote:
			r.Demotions++
		}
		if _, seen := firstAt[ev.Action]; !seen {
			firstAt[ev.Action] = ev.At
		}
	}
	verdict, done := firstAt[controller.ActionDemote], firstAt[controller.ActionDemoteDone]
	if sc.failover {
		verdict, done = firstAt[controller.ActionFailover], firstAt[controller.ActionRecoverDone]
	}
	if sc.faultAt > 0 && verdict > 0 {
		r.DetectLatency = verdict - faultAt
		if done > 0 {
			r.RepairLatency = done - verdict
		}
	}
	r.ChainsRepaired = sc.failover && chainsRepaired(ctl, victim)
}

// format renders the report: the schedule and what the nemesis did, the
// substrate's own body, the autopilot's repairs (if one ran), the verdict.
func (r *ChaosReport) format(title, body string, autopilot bool) string {
	s := fmt.Sprintf("%s\n%s\n", title, ChaosScheduleDoc(r.Schedule))
	for _, l := range r.NemesisLog {
		s += "  " + l + "\n"
	}
	s += body
	if autopilot {
		s += fmt.Sprintf("autopilot: %d failovers (%d false), %d demotions; detection %v, repair %v; chains repaired: %v\n",
			r.Failovers, r.FalseEvictions, r.Demotions, r.DetectLatency, r.RepairLatency, r.ChainsRepaired)
		for _, ev := range r.Repairs {
			s += "  " + ev.String() + "\n"
		}
	}
	if r.Lin.OK {
		return s + fmt.Sprintf("linearizable: YES (%d ops checked)\n", r.Lin.OpsChecked)
	}
	return s + fmt.Sprintf("linearizable: NO — key %s: %s\n", r.Lin.Key, r.Lin.Reason)
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
