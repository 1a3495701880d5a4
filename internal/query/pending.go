package query

import (
	"math/rand"
	"slices"
	"sync"
	"time"

	"netchain/internal/kv"
)

// Retry pacing. §4.3 makes retransmission the client's job and leaves the
// policy open; this is the one every NetChain client runs. The first
// attempt waits Timeout; each retry doubles the wait up to four timeouts
// and randomizes it by ±20 %, so clients that timed out together do not
// retransmit in lockstep and a partition's retry storm decays to a bounded
// probe rate.
const (
	backoffFactor = 2
	backoffCap    = 4 // × Timeout
	backoffJitter = 0.2
)

// Stats counts what the retry core did since it was built.
type Stats struct {
	Sent     uint64 // attempts handed to the driver to transmit: first sends plus Retries
	Retries  uint64 // retransmitted attempts
	Timeouts uint64 // calls that exhausted every attempt
	Late     uint64 // replies matching no pending call (late or duplicate)
}

// Entry is one call as the core hands it back to its driver.
type Entry[E any] struct {
	QID       uint64
	Call      E             // what the driver registered
	Retries   int           // retransmissions so far
	Submitted time.Duration // the now of Submit
	LastSent  time.Duration // the now of the latest attempt

	deadline time.Duration
}

// Due is one verdict of OnTick. A nil Err asks the driver to transmit the
// call again under the same QID; kv.ErrTimeout says every attempt is spent
// and the call, already removed, is the driver's to complete.
type Due[E any] struct {
	Entry[E]
	Err error
}

// Pending is the client's retry engine, free of I/O and of any clock: the
// table of calls awaiting a reply, query id allocation, the deadline and
// backoff rule, and exhaustion into kv.ErrTimeout. Drivers feed it time —
// simclient from event.Sim, transport.Client from its receive and timeout
// loops — and now is whatever monotonic timeline the driver keeps. Submit
// and OnTick say what to transmit; the driver does it.
//
// A retransmit is the same query: every attempt carries the call's one QID.
// The switch adjudicates write/CAS duplicates by (src, port, qid, op, value
// hash), so a retry under a fresh id would look like a new operation, be
// stamped with a fresh version, and could re-apply after a competing write,
// resurrecting an overwritten value (a non-linearizable history under a
// slow gray tail). Under the same id the dataplane replays its pinned
// verdict, and a late reply to an earlier attempt answers the call —
// harmless, since any adjudicated reply to this identity is valid.
//
// Whoever removes a call from the table completes it, exactly once: OnReply
// for a reply, OnTick for exhaustion, Cancel for an attempt that could not
// be built, Drain for shutdown. Safe for concurrent use; entries are held by
// value, so a driver retransmitting a Due never touches state a racing
// completion has already released.
type Pending[E any] struct {
	timeout time.Duration
	retries int

	mu      sync.Mutex
	nextQID uint64
	calls   map[uint64]Entry[E]
	rng     *rand.Rand // jitter; drawn in QID order so a seed fixes the stream
	stats   Stats
	closed  error // set by Drain: what later Submits return
}

// NewPending builds a table whose calls wait timeout for their first reply
// and retransmit up to retries times. seed fixes the jitter stream.
func NewPending[E any](timeout time.Duration, retries int, seed int64) *Pending[E] {
	return &Pending[E]{
		timeout: timeout,
		retries: retries,
		calls:   make(map[uint64]Entry[E]),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// ScanEvery is how often a driver should call OnTick. Deadlines are coarse
// by design: arming and stopping one runtime deadline per query costs two
// heap operations and an allocation on a path that runs at line rate, where
// a scan walks a few hundred entries every quarter timeout. A retransmit is
// at most that late, which is noise against the timeout itself.
func (p *Pending[E]) ScanEvery() time.Duration { return p.timeout / 4 }

// Submit registers call and returns the query id its first attempt, and
// every later one, must carry. Registration precedes transmission so a
// reply can never race past its entry. After Drain it returns Drain's error.
func (p *Pending[E]) Submit(call E, now time.Duration) (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed != nil {
		return 0, p.closed
	}
	p.nextQID++
	qid := p.nextQID
	p.calls[qid] = Entry[E]{QID: qid, Call: call, Submitted: now, LastSent: now, deadline: now + p.timeout}
	p.stats.Sent++
	return qid, nil
}

// OnReply claims the call a reply answers. ok is false — and the reply is
// counted Late — when the id matches nothing: a duplicate delivery, or the
// answer to a call already given up on.
func (p *Pending[E]) OnReply(qid uint64) (Entry[E], bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.calls[qid]
	if !ok {
		p.stats.Late++
		return Entry[E]{}, false
	}
	delete(p.calls, qid)
	return c, true
}

// Cancel withdraws a call whose attempt the driver could not build or hand
// to its substrate; ok is false when something else completed it first.
func (p *Pending[E]) Cancel(qid uint64) (Entry[E], bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.calls[qid]
	delete(p.calls, qid)
	return c, ok
}

// OnTick returns, in QID order, every call whose deadline has passed: to be
// retransmitted with a fresh, backed-off deadline, or removed and failed
// once its retries are spent.
func (p *Pending[E]) OnTick(now time.Duration) []Due[E] {
	p.mu.Lock()
	defer p.mu.Unlock()
	var expired []uint64
	for qid, c := range p.calls {
		if c.deadline <= now {
			expired = append(expired, qid)
		}
	}
	slices.Sort(expired)
	due := make([]Due[E], 0, len(expired))
	for _, qid := range expired {
		c := p.calls[qid]
		if c.Retries >= p.retries {
			delete(p.calls, qid)
			p.stats.Timeouts++
			due = append(due, Due[E]{Entry: c, Err: kv.ErrTimeout})
			continue
		}
		c.Retries++
		c.LastSent = now
		c.deadline = now + p.backoff(c.Retries)
		p.calls[qid] = c
		p.stats.Retries++
		p.stats.Sent++
		due = append(due, Due[E]{Entry: c})
	}
	return due
}

// backoff is how long the retry-th retransmission waits for its reply.
func (p *Pending[E]) backoff(retry int) time.Duration {
	d, ceil := p.timeout, backoffCap*p.timeout
	for i := 0; i < retry && d < ceil; i++ {
		d *= backoffFactor
	}
	d = min(d, ceil)
	return time.Duration(float64(d) * (1 + backoffJitter*(2*p.rng.Float64()-1)))
}

// Drain empties the table and closes it: the returned calls are the
// caller's to fail with err, and every later Submit returns err.
func (p *Pending[E]) Drain(err error) []Entry[E] {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = err
	out := make([]Entry[E], 0, len(p.calls))
	for qid, c := range p.calls {
		delete(p.calls, qid)
		out = append(out, c)
	}
	return out
}

// InFlight returns the number of calls awaiting a reply.
func (p *Pending[E]) InFlight() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.calls)
}

// Stats returns a snapshot of the counters.
func (p *Pending[E]) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
