// Package zab is the server-based baseline NetChain is evaluated against:
// a ZooKeeper-like coordination service — a leader sequencing writes
// through a quorum atomic broadcast (ZAB [37]) with reads served by any
// replica — running over simulated TCP on commodity servers.
//
// The paper compares against Apache ZooKeeper 3.5.2 on three servers
// (§8). This package implements the actual replication protocol (leader
// proposal, follower acks, majority commit, per-key versions, ephemeral
// lock semantics) under an explicit cost model whose constants are
// calibrated to the paper's measured envelope:
//
//	read-only throughput  ≈ 230 KQPS   (3 servers)
//	write-only throughput ≈ 27 KQPS    (leader-bound)
//	read latency          ≈ 170 µs     (kernel TCP stacks)
//	write latency         ≈ 2350 µs    (quorum + group commit)
//	loss sensitivity      ≈ TCP RTO stalls (Fig. 9(d))
//
// The service-time constants are exposed so benches can sweep them; the
// TCP loss model charges a retransmission timeout per lost message leg,
// which is what collapses ZooKeeper's throughput at 1–10% loss in the
// paper while NetChain's UDP retries shrug it off.
package zab

import (
	"fmt"
	"math/rand"
	"time"

	"netchain/internal/event"
	"netchain/internal/kv"
)

// Config is the cluster cost model.
type Config struct {
	Servers          int           // replica count (paper: 3)
	ClientRTT        time.Duration // client<->server round trip through kernel stacks
	ServerRTT        time.Duration // server<->server round trip
	ReadCPU          time.Duration // per-read service time on one replica
	WriteLeaderCPU   time.Duration // per-write service time on the leader
	WriteFollowerCPU time.Duration // per-write service time on each follower
	CommitFloor      time.Duration // group-commit + fsync latency floor per write
	LossRate         float64       // per-message-leg loss probability
	RTO              time.Duration // TCP retransmission timeout charged per loss
	Seed             int64
}

// DefaultConfig returns constants calibrated to the paper's ZooKeeper
// anchors (see package comment).
func DefaultConfig() Config {
	return Config{
		Servers:          3,
		ClientRTT:        150 * time.Microsecond,
		ServerRTT:        100 * time.Microsecond,
		ReadCPU:          13 * time.Microsecond,
		WriteLeaderCPU:   36 * time.Microsecond,
		WriteFollowerCPU: 36 * time.Microsecond,
		CommitFloor:      2050 * time.Microsecond,
		LossRate:         0,
		RTO:              80 * time.Millisecond,
		Seed:             1,
	}
}

type record struct {
	value   kv.Value
	version uint64
}

// Cluster is a simulated ZooKeeper-like ensemble. All methods must be
// called from the simulator goroutine (event callbacks).
type Cluster struct {
	sim  *event.Sim
	cfg  Config
	rng  *rand.Rand
	busy []event.Time // per-server CPU availability; index 0 is the leader
	next int          // round-robin read balancer
	zxid uint64

	store map[kv.Key]record
	locks map[kv.Key]uint64 // ephemeral-node lock owners

	// Counters for the harness.
	Reads, Writes, LockOps uint64
}

// NewCluster builds an ensemble over the simulator.
func NewCluster(sim *event.Sim, cfg Config) (*Cluster, error) {
	if cfg.Servers < 1 {
		return nil, fmt.Errorf("zab: need at least one server")
	}
	return &Cluster{
		sim:   sim,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		busy:  make([]event.Time, cfg.Servers),
		store: make(map[kv.Key]record),
		locks: make(map[kv.Key]uint64),
	}, nil
}

// leg models one message traversal of half an RTT over TCP: each loss
// stalls the stream for one RTO before the retransmission goes through.
func (c *Cluster) leg(half time.Duration) event.Time {
	d := event.Duration(half)
	for i := 0; i < 8 && c.cfg.LossRate > 0 && c.rng.Float64() < c.cfg.LossRate; i++ {
		d += event.Duration(c.cfg.RTO)
	}
	return d
}

// cpu reserves service time on server i starting no earlier than at,
// returning the completion time.
func (c *Cluster) cpu(i int, at event.Time, svc time.Duration) event.Time {
	start := c.busy[i]
	if start < at {
		start = at
	}
	c.busy[i] = start + event.Duration(svc)
	return c.busy[i]
}

// Read serves a read from the next replica round-robin (ZooKeeper clients
// spread sessions; any server answers reads locally). The CPU is reserved
// when the request actually arrives, so a TCP stall delays only its own
// query, never the server timeline.
func (c *Cluster) Read(k kv.Key, done func(v kv.Value, err error)) {
	c.Reads++
	server := c.next
	c.next = (c.next + 1) % c.cfg.Servers
	arrive := c.sim.Now() + c.leg(c.cfg.ClientRTT/2)
	c.sim.At(arrive, func() {
		finish := c.cpu(server, c.sim.Now(), c.cfg.ReadCPU)
		reply := finish + c.leg(c.cfg.ClientRTT/2)
		c.sim.At(reply, func() {
			rec, ok := c.store[k]
			if !ok {
				done(nil, kv.ErrNotFound)
				return
			}
			done(rec.value.Clone(), nil)
		})
	})
}

// Write commits a value through the leader-quorum path.
func (c *Cluster) Write(k kv.Key, v kv.Value, done func(err error)) {
	c.Writes++
	c.commit(func() {
		rec := c.store[k]
		rec.value = v.Clone()
		rec.version = c.zxid
		c.store[k] = rec
	}, done)
}

// Delete removes a key through the write path.
func (c *Cluster) Delete(k kv.Key, done func(err error)) {
	c.Writes++
	c.commit(func() { delete(c.store, k) }, done)
}

// Acquire attempts to create the ephemeral lock node (fails if held), as
// Curator does for exclusive locks (§8.5).
func (c *Cluster) Acquire(lock kv.Key, owner uint64, done func(ok bool, err error)) {
	c.LockOps++
	c.commit(func() {}, func(err error) {
		if err != nil {
			done(false, err)
			return
		}
		if cur, held := c.locks[lock]; held && cur != owner {
			done(false, nil)
			return
		}
		c.locks[lock] = owner
		done(true, nil)
	})
}

// Release deletes the lock node if owned by owner.
func (c *Cluster) Release(lock kv.Key, owner uint64, done func(ok bool, err error)) {
	c.LockOps++
	c.commit(func() {}, func(err error) {
		if err != nil {
			done(false, err)
			return
		}
		if cur, held := c.locks[lock]; !held || cur != owner {
			done(false, nil)
			return
		}
		delete(c.locks, lock)
		done(true, nil)
	})
}

// commit runs the ZAB write path: client→leader leg, leader proposal CPU,
// parallel follower proposal/ack legs with per-follower CPU, majority
// quorum, commit (group-commit floor), reply leg. apply mutates state at
// commit time; done fires when the client sees the reply. Every CPU
// reservation happens at the simulated arrival instant of the message
// that triggers it.
func (c *Cluster) commit(apply func(), done func(err error)) {
	arrive := c.sim.Now() + c.leg(c.cfg.ClientRTT/2)
	c.sim.At(arrive, func() {
		proposed := c.cpu(0, c.sim.Now(), c.cfg.WriteLeaderCPU)
		c.sim.At(proposed, func() { c.propose(apply, done) })
	})
}

// propose runs at the instant the leader finishes sequencing: it fans the
// proposal out and commits once a majority (leader included) has acked.
func (c *Cluster) propose(apply func(), done func(err error)) {
	need := c.cfg.Servers/2 + 1 - 1 // follower acks needed beyond the leader
	finish := func() {
		committed := c.sim.Now() + event.Duration(c.cfg.CommitFloor)
		c.sim.At(committed, func() {
			c.zxid++
			apply()
			reply := c.sim.Now() + c.leg(c.cfg.ClientRTT/2)
			c.sim.At(reply, func() { done(nil) })
		})
	}
	if need <= 0 {
		finish()
		return
	}
	got := 0
	for i := 1; i < c.cfg.Servers; i++ {
		i := i
		at := c.sim.Now() + c.leg(c.cfg.ServerRTT/2)
		c.sim.At(at, func() {
			fin := c.cpu(i, c.sim.Now(), c.cfg.WriteFollowerCPU)
			ackAt := fin + c.leg(c.cfg.ServerRTT/2)
			c.sim.At(ackAt, func() {
				got++
				if got == need {
					finish()
				}
			})
		})
	}
}

// Store returns the current committed value (test introspection).
func (c *Cluster) Store(k kv.Key) (kv.Value, bool) {
	rec, ok := c.store[k]
	return rec.value, ok
}

// LockOwner returns the current lock holder (test introspection).
func (c *Cluster) LockOwner(lock kv.Key) (uint64, bool) {
	o, ok := c.locks[lock]
	return o, ok
}
