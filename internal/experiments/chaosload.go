package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/lincheck"
	"netchain/internal/query"
	"netchain/internal/transport"
)

// chaosLoad is the one workload a chaos run drives: register keys plus two
// contended locks, per-client seeded mixes of reads, writes and CAS lock
// handoffs, and the lincheck history they leave. It knows no substrate:
// runChaosOn steps its clients by callback (chaosClient.drive) on the
// substrate's clock, the simulator's or the wall's, and every completion
// comes back as (query.Call, query.Outcome, error) into the same recorder.
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
func (l *chaosLoad) reconcile(r *ChaosResult, inFlight int, clients []query.Stats) error {
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

// drive runs the client on clk: issue submits a call and reports its
// outcome later, and the next call goes out think after each outcome.
func (c *chaosClient) drive(issue func(query.Call, func(query.Outcome, error)), clk event.Clock, think time.Duration) {
	name, call, ok := c.next()
	if !ok {
		return
	}
	invoke := int64(clk.Now())
	issue(call, func(out query.Outcome, err error) {
		c.done(name, call, out, err, invoke, int64(clk.Now()))
		clk.After(think, func() { c.drive(issue, clk, think) })
	})
}

// check closes the workload into r, or returns the first harness failure.
func (l *chaosLoad) check(r *ChaosResult) error {
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
