// Package lock provides distributed exclusive locks and a two-phase-
// locking transaction executor — the §8.5 application. Locks map onto
// NetChain compare-and-swap queries (the Tofino CAS primitive: "a lock can
// only be released by the client that owns the lock by comparing the
// client ID in the value field") or onto the baseline's ephemeral nodes.
//
// The transaction executor implements the evaluation's workload: each
// transaction try-locks ten keys (one hot, nine cold), executes for a
// fixed in-memory duration, then releases — aborting and retrying when any
// lock is unavailable, which is exactly the contention cost the paper
// measures as the contention index grows.
package lock

import (
	"math/rand"

	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/query"
	"netchain/internal/simclient"
	"netchain/internal/workload"
	"netchain/internal/zab"
)

// Service is a try-lock provider.
type Service interface {
	// Acquire attempts to take lock for owner; ok reports success.
	Acquire(lock kv.Key, owner uint64, done func(ok bool, err error))
	// Release returns the lock if held by owner.
	Release(lock kv.Key, owner uint64, done func(ok bool, err error))
}

// NetChainLocks implements Service over a NetChain client using CAS
// queries. Lock free = owner field 0.
type NetChainLocks struct {
	Client *simclient.Client
}

// Acquire CASes 0 → owner and Release CASes owner → 0. Either counts as
// done when the stored owner is already the one proposed — the earlier
// reply was lost and the retry must be benign (§4.3); that rule lives in
// query.Outcome.Landed, shared with the wire client.
func (l NetChainLocks) Acquire(lock kv.Key, owner uint64, done func(bool, error)) {
	l.Client.Do(query.Acquire(lock, owner), landed(done))
}

func (l NetChainLocks) Release(lock kv.Key, owner uint64, done func(bool, error)) {
	l.Client.Do(query.Release(lock, owner), landed(done))
}

func landed(done func(bool, error)) func(simclient.Result) {
	return func(res simclient.Result) {
		out, err := res.Outcome()
		done(out.Landed, err)
	}
}

// ZabLocks implements Service over the baseline cluster's ephemeral-node
// locks (Curator-style, §8.5).
type ZabLocks struct {
	Cluster *zab.Cluster
}

func (l ZabLocks) Acquire(lock kv.Key, owner uint64, done func(bool, error)) {
	l.Cluster.Acquire(lock, owner, done)
}

func (l ZabLocks) Release(lock kv.Key, owner uint64, done func(bool, error)) {
	l.Cluster.Release(lock, owner, done)
}

// ExecutorConfig tunes a transaction client.
type ExecutorConfig struct {
	// ExecTime is the in-memory transaction execution time while holding
	// all locks (§6 cites 100 µs transactions).
	ExecTime event.Time
	// BackoffMax is the maximum random retry delay after an abort.
	BackoffMax event.Time
	// Seed drives backoff randomness.
	Seed int64
}

// DefaultExecutorConfig mirrors §6's 100 µs in-memory transactions.
func DefaultExecutorConfig() ExecutorConfig {
	return ExecutorConfig{
		ExecTime:   event.Duration(100_000),
		BackoffMax: event.Duration(200_000),
		Seed:       1,
	}
}

// Executor runs two-phase-locking transactions in a closed loop: acquire
// every lock of the next transaction in parallel (try-lock), execute,
// release. Any failed acquire aborts the attempt: held locks are
// released, the executor backs off and retries the same transaction.
type Executor struct {
	sim   *event.Sim
	svc   Service
	wl    *workload.TxnWorkload
	keys  []kv.Key
	owner uint64
	cfg   ExecutorConfig
	rng   *rand.Rand

	running bool

	// Committed counts completed transactions; Aborts counts attempts
	// that failed to take all locks.
	Committed uint64
	Aborts    uint64
}

// NewExecutor builds a transaction client. keys maps workload lock
// indexes to key names; owner must be unique per client and non-zero.
func NewExecutor(sim *event.Sim, svc Service, wl *workload.TxnWorkload,
	keys []kv.Key, owner uint64, cfg ExecutorConfig) *Executor {
	if owner == 0 {
		panic("lock: owner must be non-zero")
	}
	return &Executor{
		sim: sim, svc: svc, wl: wl, keys: keys, owner: owner, cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed ^ int64(owner))),
	}
}

// Start begins the closed transaction loop until Stop.
func (e *Executor) Start() {
	e.running = true
	e.nextTxn()
}

// Stop halts the loop after the current transaction attempt.
func (e *Executor) Stop() { e.running = false }

func (e *Executor) nextTxn() {
	if !e.running {
		return
	}
	txn := e.wl.Next()
	e.attempt(txn)
}

func (e *Executor) attempt(txn workload.Transaction) {
	if !e.running {
		return
	}
	n := len(txn.Locks)
	results := make([]bool, n)
	doneCount := 0
	for i, li := range txn.Locks {
		i, li := i, li
		e.svc.Acquire(e.keys[li], e.owner, func(ok bool, err error) {
			results[i] = ok && err == nil
			doneCount++
			if doneCount == n {
				e.acquired(txn, results)
			}
		})
	}
}

func (e *Executor) acquired(txn workload.Transaction, results []bool) {
	all := true
	for _, ok := range results {
		if !ok {
			all = false
			break
		}
	}
	if !all {
		e.Aborts++
		// Release whatever we hold, then back off and retry the txn.
		held := 0
		for _, ok := range results {
			if ok {
				held++
			}
		}
		retry := func() {
			backoff := event.Time(0)
			if e.cfg.BackoffMax > 0 {
				backoff = event.Time(e.rng.Int63n(int64(e.cfg.BackoffMax)))
			}
			e.sim.After(backoff, func() { e.attempt(txn) })
		}
		if held == 0 {
			retry()
			return
		}
		releases := 0
		for i, ok := range results {
			if !ok {
				continue
			}
			e.svc.Release(e.keys[txn.Locks[i]], e.owner, func(bool, error) {
				releases++
				if releases == held {
					retry()
				}
			})
		}
		return
	}
	// All locks held: execute, then release everything.
	e.sim.After(e.cfg.ExecTime, func() {
		releases := 0
		for _, li := range txn.Locks {
			e.svc.Release(e.keys[li], e.owner, func(bool, error) {
				releases++
				if releases == len(txn.Locks) {
					e.Committed++
					e.nextTxn()
				}
			})
		}
	})
}
