// Package controller implements the NetChain control plane (§5): the
// reconfiguration half of Vertical Paxos. It owns the consistent-hash ring
// and the per-virtual-group session counters, performs fast failover
// (Algorithm 2) by programming the failed switch's neighbors, and failure
// recovery (Algorithm 3) by syncing state onto a replacement switch and
// atomically switching each virtual group's chain in two phases.
//
// The controller is substrate-agnostic: switch access goes through the
// Agent interface (the simulator binds it to core.Switch directly; the
// real deployment binds it to transport.WireAgent, a framed binary channel
// standing in for the paper's Python controller speaking xmlrpc to switch
// agents), and time goes through the Scheduler interface (simulated or
// wall-clock).
package controller

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netchain/internal/core"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/ring"
)

// Agent is the control-plane view of one switch (the paper's per-switch
// agent driving the ASIC through the compiler-generated API, §7). State
// access is batch-first: a verb is one round trip on the wire however many
// keys it names, so a group's state copy costs the same few round trips at
// 1 key and at 10 000. The batch verbs attempt every element and return
// the first failure.
type Agent interface {
	InstallKeys(keys []kv.Key) error
	RemoveKeys(keys []kv.Key) error
	SetSession(group uint16, session uint32) error
	FreezeWrites(group uint16, frozen bool) error
	InstallRule(dst packet.Addr, group int, r core.Rule) error
	RemoveRule(dst packet.Addr, group int) error
	// ReadItems dumps the records of keys: the items found, in the order
	// asked, and the keys the switch holds no slot for.
	ReadItems(keys []kv.Key) (items []core.Item, missing []kv.Key, err error)
	WriteItems(items []core.Item) error
	// Keys lists every key the switch currently holds a slot for —
	// readmission wipes a returning switch's residual state with it.
	Keys() ([]kv.Key, error)
}

// LocalAgent adapts a core.Switch to the Agent interface for in-process
// use (simulation and tests).
type LocalAgent struct{ Switch *core.Switch }

func (a LocalAgent) InstallKeys(keys []kv.Key) error { return a.Switch.InstallKeys(keys) }
func (a LocalAgent) RemoveKeys(keys []kv.Key) error  { return a.Switch.RemoveKeys(keys) }
func (a LocalAgent) SetSession(g uint16, s uint32) error {
	a.Switch.SetSession(g, s)
	return nil
}
func (a LocalAgent) FreezeWrites(g uint16, frozen bool) error {
	a.Switch.SetWriteFreeze(g, frozen)
	return nil
}
func (a LocalAgent) InstallRule(dst packet.Addr, g int, r core.Rule) error {
	a.Switch.InstallRule(dst, g, r)
	return nil
}
func (a LocalAgent) RemoveRule(dst packet.Addr, g int) error {
	a.Switch.RemoveRule(dst, g)
	return nil
}
func (a LocalAgent) ReadItems(keys []kv.Key) ([]core.Item, []kv.Key, error) {
	items, missing := a.Switch.ReadItems(keys)
	return items, missing, nil
}
func (a LocalAgent) WriteItems(items []core.Item) error { return a.Switch.WriteItems(items) }
func (a LocalAgent) Keys() ([]kv.Key, error)            { return a.Switch.Keys(), nil }

// Scheduler abstracts time so the controller's multi-step procedures can
// run under simulated or wall-clock time.
type Scheduler interface {
	After(d time.Duration, fn func())
}

// WallClock schedules on real time.
type WallClock struct{}

// After implements Scheduler using time.AfterFunc.
func (WallClock) After(d time.Duration, fn func()) { time.AfterFunc(d, fn) }

// Config carries the control-plane timing model.
type Config struct {
	// RuleDelay is the latency of programming one batch of rules into the
	// neighbor switches (controller RPC + table write).
	RuleDelay time.Duration
	// SyncPerItem is the control-plane cost of copying one key-value item
	// between switches during recovery. The paper's Python/Thrift path is
	// slow — their 20K-item store takes ~150 s (Fig. 10), i.e. several ms
	// per item.
	SyncPerItem time.Duration
	// PreSync enables Algorithm 3 Step 1: bulk-copy state *before*
	// stopping writes, so the stop window covers only the delta. The
	// paper describes this optimization but its measured prototype blocks
	// writes for the full sync (Fig. 10(a)); default off to match, on for
	// the ablation bench.
	PreSync bool
}

// preSyncDelta is the residual stop-window duration when PreSync is
// enabled (the delta copy).
const preSyncDelta = 50 * time.Millisecond

// DefaultConfig returns timings calibrated to Fig. 10: ~150 s to recover a
// 20K-item store.
func DefaultConfig() Config {
	return Config{
		RuleDelay:   10 * time.Millisecond,
		SyncPerItem: 7 * time.Millisecond,
		PreSync:     false,
	}
}

// Route is what a client needs to reach a key: its virtual group and the
// current chain (head first). Clients derive write packets (dst = head,
// list = rest) and read packets (dst = tail, list = reversed rest).
type Route = query.Route

// Controller is the NetChain control plane. It is assumed reliable
// (replicated in practice, §3); a single instance here.
type Controller struct {
	mu        sync.Mutex
	cfg       Config
	ring      *ring.Ring
	sched     Scheduler
	agent     func(packet.Addr) (Agent, bool)
	neighbors func(packet.Addr) []packet.Addr

	chains   map[ring.GroupID]ring.Chain // current chain per group (reflects failover/recovery)
	sessions map[ring.GroupID]uint32
	keys     map[ring.GroupID][]kv.Key
	failed   map[packet.Addr]bool

	// moved maps keys whose ring placement changed in an in-flight resize
	// to the group still serving them: the route a client gets stays on the
	// donor chain until the receiving group's migration flips.
	moved map[kv.Key]ring.GroupID
	// agentErrors counts best-effort agent calls that failed (see bestEffort).
	agentErrors atomic.Uint64

	// resizing guards against overlapping long-running reconfigurations.
	resizing bool
	// migratingGroups marks groups whose resize migration has not flipped
	// yet: Insert refuses keys landing there (a slot installed on the old
	// chain after the state copy snapshots would be lost at the flip, and
	// would dodge the leaver GC).
	migratingGroups map[ring.GroupID]bool
	// droppedKeys records keys GC'd while a resize was in flight: their
	// pending moves are cancelled so the migration cannot resurrect a
	// deleted key (reinstalled slots, re-tracked in c.keys).
	droppedKeys map[kv.Key]bool

	// OnGroupRecovered, if set, is called (under the scheduler goroutine)
	// after each virtual group's two-phase switch completes — during
	// failure recovery and during planned resize migrations alike.
	OnGroupRecovered func(g ring.GroupID)
}

// New builds a controller over an existing ring. agent resolves a switch
// address to its control connection; neighbors lists a switch's physical
// neighbors (where Algorithm 2 rules go).
func New(cfg Config, r *ring.Ring, sched Scheduler,
	agent func(packet.Addr) (Agent, bool),
	neighbors func(packet.Addr) []packet.Addr) (*Controller, error) {
	if r.Groups() > 1<<16 {
		return nil, fmt.Errorf("controller: %d virtual groups exceed the packet group field", r.Groups())
	}
	c := &Controller{
		cfg:             cfg,
		ring:            r,
		sched:           sched,
		agent:           agent,
		neighbors:       neighbors,
		chains:          r.Chains(),
		sessions:        make(map[ring.GroupID]uint32),
		keys:            make(map[ring.GroupID][]kv.Key),
		failed:          make(map[packet.Addr]bool),
		moved:           make(map[kv.Key]ring.GroupID),
		migratingGroups: make(map[ring.GroupID]bool),
		droppedKeys:     make(map[kv.Key]bool),
	}
	return c, nil
}

// Ring exposes the partitioning state (read-only use).
func (c *Controller) Ring() *ring.Ring { return c.ring }

// Route returns the current route for key k. During a live resize, a key
// whose ring placement already changed keeps routing to its donor group
// until the receiving group's migration flips, so clients never observe a
// chain that does not yet hold the key's data.
func (c *Controller) Route(k kv.Key) Route {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.routeLocked(c.servingGroupLocked(k))
}

// servingGroupLocked resolves the group currently serving k: the ring
// placement, overridden by the in-flight-resize move table.
func (c *Controller) servingGroupLocked(k kv.Key) ring.GroupID {
	if g, ok := c.moved[k]; ok {
		return g
	}
	return c.ring.GroupForKey(k)
}

// GroupRoute returns the current route for a virtual group.
func (c *Controller) GroupRoute(g ring.GroupID) Route {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.routeLocked(g)
}

// routeLocked hands out the published chain itself: a chain in c.chains is
// never mutated, only replaced by a fresh slice (New, HandleFailure, the
// adopt path and the flip), and no caller writes into Hops.
func (c *Controller) routeLocked(g ring.GroupID) Route {
	return Route{Group: uint16(g), Hops: c.chains[g].Hops}
}

// Routes snapshots every group's route (client agent refresh).
func (c *Controller) Routes() map[uint16]Route {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint16]Route, len(c.chains))
	for g := range c.chains {
		out[uint16(g)] = c.routeLocked(g)
	}
	return out
}

// Insert allocates slots for key k on every switch of its chain (§4.1:
// "Insert queries require the control plane to set up entries in switch
// tables") and returns the route the client should write through.
func (c *Controller) Insert(k kv.Key) (Route, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.servingGroupLocked(k)
	ch, ok := c.chains[g]
	if !ok || len(ch.Hops) == 0 || c.migratingGroups[c.ring.GroupForKey(k)] {
		// The key maps to a group whose resize migration has not flipped
		// yet: a slot installed on the serving chain now would miss the
		// state copy and be lost at the flip. Callers retry after the
		// group activates.
		return Route{}, fmt.Errorf("controller: group %d is mid-migration, retry insert", g)
	}
	// Tail first, and rolled back in the opposite direction: a switch that
	// holds the slot always has every successor holding it, so a write
	// racing the insert is answered NotFound by the first hop that lacks
	// the slot before anything was applied upstream of it. Single-element
	// batches: one lean round trip per chain hop.
	batch := []kv.Key{k}
	for i := len(ch.Hops) - 1; i >= 0; i-- {
		a, ok := c.agent(ch.Hops[i])
		err := errors.New("no agent")
		if ok {
			err = a.InstallKeys(batch)
		}
		if err != nil {
			c.removeKeys(ch.Hops[i+1:], batch)
			return Route{}, fmt.Errorf("controller: insert on %v: %w", ch.Hops[i], err)
		}
	}
	c.keys[g] = append(c.keys[g], k)
	return c.routeLocked(g), nil
}

// GC removes a deleted key's slots from its chain (Delete garbage
// collection, §4.1). The client must have tombstoned the key first.
func (c *Controller) GC(k kv.Key) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.servingGroupLocked(k)
	if c.resizing {
		// Cancel any pending move of this key: a resize migration finding
		// the donor unreadable would otherwise reinstall slots for (and
		// re-track) a key the client just deleted.
		c.droppedKeys[k] = true
		delete(c.moved, k)
	}
	c.removeKeys(c.chains[g].Hops, []kv.Key{k})
	keys := c.keys[g]
	for i, kk := range keys {
		if kk == k {
			c.keys[g] = append(keys[:i], keys[i+1:]...)
			break
		}
	}
	return nil
}

// removeKeys frees keys' slots on every reachable switch of hops in order,
// one batch per switch. Best effort: a switch that never held a key, or is
// unreachable, has nothing left to collect.
func (c *Controller) removeKeys(hops []packet.Addr, keys []kv.Key) {
	if len(keys) == 0 {
		return
	}
	for _, h := range hops {
		if a, ok := c.agent(h); ok {
			c.bestEffort(a.RemoveKeys(keys))
		}
	}
}

// bestEffort accounts for an agent call a reconfiguration does not stop
// for: the procedure carries on either way (the next step, or the next
// migration, repairs what a lost call left behind), but a failure is
// counted rather than dropped.
func (c *Controller) bestEffort(err error) {
	if err != nil {
		c.agentErrors.Add(1)
	}
}

// AgentErrors returns how many best-effort agent calls have failed.
func (c *Controller) AgentErrors() uint64 { return c.agentErrors.Load() }

// KeyCount returns the number of live keys tracked per group (diagnostics).
func (c *Controller) KeyCount(g ring.GroupID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.keys[g])
}

// Session returns the current session number of a group.
func (c *Controller) Session(g ring.GroupID) uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessions[g]
}

// ---------------------------------------------------------------------------
// Fast failover: Algorithm 2.

// HandleFailure reconfigures the network around a failed switch: installs
// next-hop rules on every neighbor and degrades every affected chain to
// its remaining nodes. done (optional) fires when the rules are active.
func (c *Controller) HandleFailure(failedSw packet.Addr, done func()) error {
	c.mu.Lock()
	if c.failed[failedSw] {
		c.mu.Unlock()
		return fmt.Errorf("controller: %v already failed over", failedSw)
	}
	c.failed[failedSw] = true

	// Degrade chains and bump sessions where the head changed (§5.2: the
	// new head's writes must dominate the dead head's in-flight writes).
	// The promoted head learns its session BEFORE the degraded chain is
	// published: a head that Route already names but that still stamps with
	// its old session has its writes dropped as stale by the replicas, and
	// its duplicate ring replays the stale stamp for every retransmission.
	for g, ch := range c.chains {
		if !ch.Contains(failedSw) {
			continue
		}
		hops := make([]packet.Addr, 0, len(ch.Hops)-1)
		for _, h := range ch.Hops {
			if h != failedSw {
				hops = append(hops, h)
			}
		}
		if ch.Head() == failedSw && len(hops) > 0 {
			c.sessions[g]++
			if a, ok := c.agent(hops[0]); ok {
				c.bestEffort(a.SetSession(uint16(g), c.sessions[g]))
			}
		}
		c.chains[g] = ring.Chain{Group: g, Hops: hops}
	}
	neighbors := c.neighbors(failedSw)
	c.mu.Unlock()

	c.sched.After(c.cfg.RuleDelay, func() {
		for _, nb := range neighbors {
			if a, ok := c.agent(nb); ok {
				c.bestEffort(a.InstallRule(failedSw, core.WildcardGroup, core.Rule{Action: core.ActNextHop}))
			}
		}
		if done != nil {
			done()
		}
	})
	return nil
}

// ---------------------------------------------------------------------------
// Migration engine: the per-virtual-group stop, sync and atomic switch of
// Algorithm 3, shared by failure recovery, planned resize, rehome and
// demote/restore. A migration processes one virtual group at a time (§5.2:
// only 1/groups of the key space loses write availability at any instant)
// and every kind goes through the same stop window:
//
//	freeze → drain → copy → flip → hold → collect → thaw
//
// The planners only say what changes (chains, donor moves, bookkeeping);
// migrateNext owns when writes stop and when they may resume.

// maxDrainPolls bounds how long a migration waits for in-flight writes to
// drain before it copies anyway (the pre-barrier behaviour).
const maxDrainPolls = 8

// migration is one virtual group's reconfiguration, as plain data.
type migration struct {
	group ring.GroupID
	old   ring.Chain // chain serving the group when the migration starts
	next  ring.Chain // chain after the flip

	// adoptOnly skips the window: the new chain is a subset or a same-head
	// reorder of the serving one (no data movement, no stop needed).
	adoptOnly bool

	// donors lists the keys the group absorbs from other groups in a
	// resize, each with the chain still serving them: frozen, drained and
	// collected together with old.
	donors []donorMoves
	// sessionFloor raises the group's session before the bump so writes
	// stamped after the flip dominate versions imported from donor groups
	// (their sessions advanced independently).
	sessionFloor uint32
	// bumpSession forces a session bump even when the head is unchanged
	// (a group that absorbs keys needs its future writes to dominate the
	// donors' stamps).
	bumpSession bool
	// preSync bulk-copies state *before* the stop window so only the delta
	// is copied inside it (Algorithm 3 Step 1).
	preSync bool
	// failed and neighbors are set by failure recovery: traffic still
	// addressed to the failed switch is dropped at its neighbors for the
	// window and redirected to the replacement from the flip on.
	failed    packet.Addr
	neighbors []packet.Addr
	// flip runs under c.mu right after the serving chain is swapped —
	// key-ownership bookkeeping for resize moves.
	flip func()
}

// liveChainLocked filters switches marked failed out of a planned chain
// (their groups re-heal through Recover, not by re-installing them).
func (c *Controller) liveChainLocked(ch ring.Chain) ring.Chain {
	live := ring.Chain{Group: ch.Group, Hops: make([]packet.Addr, 0, len(ch.Hops))}
	for _, h := range ch.Hops {
		if !c.failed[h] {
			live.Hops = append(live.Hops, h)
		}
	}
	return live
}

// runMigrations executes n migrations sequentially. build is invoked
// lazily when each group's turn arrives so it observes the chains as
// earlier migrations (and any concurrent failovers) left them; returning
// nil skips the group. done (optional) fires after the last group.
func (c *Controller) runMigrations(n int, build func(i int) *migration, done func()) {
	c.migrateNext(n, build, 0, done)
}

func (c *Controller) migrateNext(n int, build func(i int) *migration, i int, done func()) {
	if i >= n {
		if done != nil {
			done()
		}
		return
	}
	m := build(i)
	if m == nil {
		c.migrateNext(n, build, i+1, done)
		return
	}
	if m.adoptOnly {
		c.mu.Lock()
		c.chains[m.group] = c.liveChainLocked(m.next)
		c.mu.Unlock()
		c.migrateNext(n, build, i+1, done)
		return
	}
	adds := additions(m.old, m.next)
	moved := 0
	for _, d := range m.donors {
		moved += len(d.keys)
	}
	// The modelled cost of the state copy: the group's items onto every
	// joining member, the absorbed keys onto the whole new chain.
	syncDur := time.Duration(c.KeyCount(m.group)*len(adds)+moved*len(m.next.Hops)) * c.cfg.SyncPerItem
	copyState := func() {
		// Members joining the chain receive the group's current keys from
		// a reference replica (§5.2 "Handling special cases").
		for _, add := range adds {
			if ref, ok := referenceSwitch(m.next, add, m.old); ok {
				c.copyGroup(m.group, ref, add)
			}
		}
		c.copyMoves(m.donors, m.next)
	}
	copyAndFlip := func() {
		copyState()
		// Switches that failed while this group's stop window ran are
		// filtered here, at flip time — installing them would overwrite the
		// degradation a concurrent HandleFailure applied and route clients
		// at a dead hop.
		c.mu.Lock()
		next := c.liveChainLocked(m.next)
		// Only the serving head is ever told the group's session, so any
		// other switch taking over as head — a joining one or a replica
		// moving up — needs a bump of its own.
		serving := c.chains[m.group]
		headChanged := len(next.Hops) > 0 && (len(serving.Hops) == 0 || serving.Head() != next.Head())
		if c.sessions[m.group] < m.sessionFloor {
			c.sessions[m.group] = m.sessionFloor
		}
		if headChanged || m.bumpSession {
			c.sessions[m.group]++
			// The head learns its session before the chain that names it
			// is published (see HandleFailure).
			if len(next.Hops) > 0 {
				if a, ok := c.agent(next.Head()); ok {
					c.bestEffort(a.SetSession(uint16(m.group), c.sessions[m.group]))
				}
			}
		}
		c.chains[m.group] = next
		if m.flip != nil {
			m.flip()
		}
		c.mu.Unlock()
		if len(adds) > 0 {
			// Traffic still addressed to the failed switch follows the
			// replacement that took its chain position.
			c.neighborRules(m, core.Rule{Action: core.ActRedirect, To: adds[0]})
		}
		// Every freeze outlives the flip by one rule delay: a write that
		// resolved the old route just before the flip may still be in
		// flight, and a member that thawed at the flip would stamp it and
		// have it acknowledged on a chain the state copy has already left —
		// an acknowledged write the new chain's tail would never see.
		// Reads that resolved the old route drain off the wire in the same
		// delay, so only then are the slots the new chain no longer needs
		// collected (exact placement: a key lives on its chain's switches
		// and nowhere else — removing a slot under an in-flight read would
		// turn an existing key into a spurious NotFound), and only once
		// they are gone does anything thaw: from then on a stale-routed
		// write fails with NotFound instead of silently committing.
		c.sched.After(c.cfg.RuleDelay, func() {
			for _, d := range m.donors {
				c.removeKeys(additions(m.next, d.chain), d.keys)
			}
			if leavers := additions(m.next, m.old); len(leavers) > 0 {
				c.removeKeys(leavers, m.ownKeys(c.groupKeys(m.group)))
			}
			c.setFreeze(m, false)
			if cb := c.OnGroupRecovered; cb != nil {
				cb(m.group)
			}
			c.migrateNext(n, build, i+1, done)
		})
	}
	// The stop window's length is a guess about the network: a write
	// stamped before the freeze and still in flight when the copy reads
	// its reference would be acknowledged by the old tail yet missing on
	// the new chain. So after the window the engine polls the drain
	// barrier, one rule delay apart, before it copies.
	var awaitDrain func(polls int)
	awaitDrain = func(polls int) {
		if polls < maxDrainPolls && !c.drained(m) {
			c.sched.After(c.cfg.RuleDelay, func() { awaitDrain(polls + 1) })
			return
		}
		copyAndFlip()
	}
	stop := func(window time.Duration) {
		c.neighborRules(m, core.Rule{Action: core.ActDrop})
		c.setFreeze(m, true)
		c.sched.After(c.cfg.RuleDelay+window, func() { awaitDrain(0) })
	}
	if m.preSync {
		// Bulk copy while the old chain keeps serving; only the delta is
		// copied inside the stop window.
		c.sched.After(syncDur, func() {
			copyState()
			stop(preSyncDelta)
		})
	} else {
		stop(syncDur)
	}
}

// setFreeze installs or lifts the write freeze of the window: every member
// of the serving chain and of every donor chain, for its group (behind
// failover rules any member a stale route lists first can act as head).
// Frozen members bounce fresh writes with StatusUnavailable while ordered
// chain writes keep draining and reads — and every other group — keep
// serving.
func (c *Controller) setFreeze(m *migration, frozen bool) {
	set := func(g ring.GroupID, ch ring.Chain) {
		for _, h := range ch.Hops {
			if a, ok := c.agent(h); ok {
				c.bestEffort(a.FreezeWrites(uint16(g), frozen))
			}
		}
	}
	set(m.group, m.old)
	for _, d := range m.donors {
		set(d.from, d.chain)
	}
}

// neighborRules programs r for the migrating group on every neighbor of
// the switch a recovery replaces; a no-op for planned migrations, which
// have no dead address for a rule to match.
func (c *Controller) neighborRules(m *migration, r core.Rule) {
	for _, nb := range m.neighbors {
		if a, ok := c.agent(nb); ok {
			c.bestEffort(a.InstallRule(m.failed, int(m.group), r))
		}
	}
}

// drained is the drain barrier: the writes stamped before the freeze took
// hold have reached every replica of the serving chain and of every donor
// chain.
func (c *Controller) drained(m *migration) bool {
	if !c.chainAgrees(m.old, c.groupKeys(m.group)) {
		return false
	}
	for _, d := range m.donors {
		if !c.chainAgrees(d.chain, d.keys) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Failure recovery: Algorithm 3, one virtual group at a time (§5.2).

// Recover reassigns the failed switch's virtual nodes round-robin over the
// pool of live replacement switches (§5.2 spreads them "to multiple
// switches rather than a single switch"), then restores each affected
// group's chain to full strength through the migration engine. done
// (optional) fires after the last group. Pool switches outside the ring
// membership are admitted without virtual nodes of their own (the
// testbed's spare S3).
func (c *Controller) Recover(failedSw packet.Addr, pool []packet.Addr, done func()) error {
	c.mu.Lock()
	if !c.failed[failedSw] {
		c.mu.Unlock()
		return fmt.Errorf("controller: recover before failover of %v", failedSw)
	}
	if len(pool) == 0 {
		c.mu.Unlock()
		return fmt.Errorf("controller: empty replacement pool")
	}
	for _, p := range pool {
		if p == failedSw || c.failed[p] {
			c.mu.Unlock()
			return fmt.Errorf("controller: replacement %v is failed", p)
		}
		if !c.ring.IsMember(p) {
			if err := c.ring.AddMember(p); err != nil {
				c.mu.Unlock()
				return err
			}
		}
	}
	// Affected groups: those whose ring chain still references the failed
	// switch. Deterministic order for reproducible experiments.
	affected := c.ring.GroupsOfSwitch(failedSw)
	sort.Slice(affected, func(i, j int) bool { return affected[i] < affected[j] })
	if err := c.ring.Reassign(failedSw, func(i int) packet.Addr { return pool[i%len(pool)] }); err != nil {
		c.mu.Unlock()
		return err
	}
	neighbors := c.neighbors(failedSw)
	c.mu.Unlock()

	c.runMigrations(len(affected), func(i int) *migration {
		return c.buildRecoverMigration(failedSw, neighbors, affected[i])
	}, done)
	return nil
}

// buildRecoverMigration plans one group's recovery: the degraded chain
// regains the replacement that took the failed switch's ring position.
// The drop rules it asks for only stop traffic still addressed to the dead
// switch; after fast failover the degraded chain serves under its own
// addresses, which is why recovery needs the engine's freeze like every
// planned migration.
func (c *Controller) buildRecoverMigration(failedSw packet.Addr,
	neighbors []packet.Addr, g ring.GroupID) *migration {
	c.mu.Lock()
	newChain, err := c.ring.ChainForGroup(g)
	degraded := c.chains[g]
	c.mu.Unlock()
	if err != nil {
		return nil
	}
	return &migration{
		group: g,
		old:   degraded,
		next:  newChain,
		// Replacement coincides with existing members: just adopt.
		adoptOnly: len(additions(degraded, newChain)) == 0,
		preSync:   c.cfg.PreSync,
		failed:    failedSw,
		neighbors: neighbors,
	}
}

// copyGroup copies every item of group g from ref to dst (the actual data
// movement behind the modelled sync duration): one bulk read on the
// reference, one bulk write on the replacement, whatever the key count.
func (c *Controller) copyGroup(g ring.GroupID, ref, dst packet.Addr) {
	if src, ok := c.agent(ref); ok {
		c.copyItems(src, c.groupKeys(g), []packet.Addr{dst})
	}
}

// groupKeys snapshots the keys tracked for group g.
func (c *Controller) groupKeys(g ring.GroupID) []kv.Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]kv.Key(nil), c.keys[g]...)
}

// copyItems reads keys from src and installs what it finds on every
// reachable switch of dsts. Keys src cannot produce (mid-insert, src
// unreachable, or no src at all: nil) still get their slots so chain
// writes land.
func (c *Controller) copyItems(src Agent, keys []kv.Key, dsts []packet.Addr) {
	if len(keys) == 0 {
		return
	}
	var items []core.Item
	missing := keys
	if src != nil {
		if found, absent, err := src.ReadItems(keys); err == nil {
			items, missing = found, absent
		}
	}
	for _, h := range dsts {
		to, ok := c.agent(h)
		if !ok {
			continue
		}
		if len(missing) > 0 {
			c.bestEffort(to.InstallKeys(missing)) // a slot already there is as good
		}
		if len(items) > 0 {
			c.bestEffort(to.WriteItems(items))
		}
	}
}

// chainAgrees reports whether every member of ch holds the same version of
// every key in keys — the drain barrier: a write the head stamped that has
// not reached every replica yet shows as a version gap. Head against tail
// is not enough: a write routed on an earlier order of the same members
// (before a demotion) can be held by both and still be on its way to the
// member between them. A member that has been failed over since, or that
// cannot be read, counts as agreeing: nothing will reach it any more (the
// copy then proceeds as it did before the barrier existed).
func (c *Controller) chainAgrees(ch ring.Chain, keys []kv.Key) bool {
	c.mu.Lock()
	ch = c.liveChainLocked(ch)
	c.mu.Unlock()
	if len(ch.Hops) < 2 || len(keys) == 0 {
		return true
	}
	// Tail first: a write that lands between two reads then shows at the
	// upstream member only, a gap, instead of hiding behind a stale
	// upstream read.
	var want map[kv.Key]kv.Version
	for i := len(ch.Hops) - 1; i >= 0; i-- {
		a, ok := c.agent(ch.Hops[i])
		if !ok {
			continue
		}
		items, _, err := a.ReadItems(keys)
		if err != nil {
			continue
		}
		if want == nil {
			want = make(map[kv.Key]kv.Version, len(items))
			for _, it := range items {
				want[it.Key] = it.Version
			}
			continue
		}
		for _, it := range items {
			if v, ok := want[it.Key]; ok && v != it.Version {
				return false
			}
		}
	}
	return true
}

// ownKeys drops from keys those the group absorbed from its donors at the
// flip: a leaver never held them unless it served a donor chain, and the
// donor collection has already freed them there, so asking again would
// count a spurious agent error.
func (m *migration) ownKeys(keys []kv.Key) []kv.Key {
	if len(m.donors) == 0 {
		return keys
	}
	absorbed := make(map[kv.Key]bool)
	for _, d := range m.donors {
		for _, k := range d.keys {
			absorbed[k] = true
		}
	}
	return slices.DeleteFunc(keys, func(k kv.Key) bool { return absorbed[k] })
}

// additions lists switches present in next but not in cur, chain order.
func additions(cur, next ring.Chain) []packet.Addr {
	var out []packet.Addr
	for _, h := range next.Hops {
		if !cur.Contains(h) {
			out = append(out, h)
		}
	}
	return out
}

// referenceSwitch picks the live switch to copy state from: the new
// node's successor in the chain, falling back to its predecessor when the
// new node is the tail (§5.2 "Handling special cases"). Only members of
// the degraded chain hold data, so additions are skipped.
func referenceSwitch(next ring.Chain, newSw packet.Addr, degraded ring.Chain) (packet.Addr, bool) {
	idx := -1
	for i, h := range next.Hops {
		if h == newSw {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0, false
	}
	for i := idx + 1; i < len(next.Hops); i++ {
		if degraded.Contains(next.Hops[i]) {
			return next.Hops[i], true
		}
	}
	for i := idx - 1; i >= 0; i-- {
		if degraded.Contains(next.Hops[i]) {
			return next.Hops[i], true
		}
	}
	return 0, false
}
