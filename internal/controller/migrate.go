package controller

import (
	"errors"
	"slices"
	"time"

	"netchain/internal/core"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/ring"
)

// Migration engine: the per-virtual-group stop, sync and atomic switch of
// Algorithm 3, shared by failure recovery, planned resize, rehome and
// demote/restore. A migration processes one virtual group at a time (§5.2:
// only 1/groups of the key space loses write availability at any instant)
// and every kind goes through the same stop window:
//
//	freeze → drain → copy → flip → hold → collect → thaw
//
// The planners only say what changes (chains, donor moves, bookkeeping);
// a migration is plain data whose phase says where in the window it is,
// step moves it one phase on, and drive — the one loop — waits out each
// phase on the clock and takes up the next group.

// maxDrainPolls bounds how long a migration waits for in-flight writes to
// drain before it copies anyway (the pre-barrier behaviour).
const maxDrainPolls = 8

// phase is where a migration is in the stop window. A migration waits on
// the clock only in presync, drain and hold; the other phases pass within
// one step.
type phase uint8

const (
	phasePlanned phase = iota // built at its group's turn, nothing done yet
	phasePresync              // bulk copy while the old chain keeps serving (PreSync)
	phaseFreeze               // drop rules and write freeze go in
	phaseDrain                // the window, then the drain barrier's polls
	phaseFlip                 // copy the state, publish the next chain
	phaseHold                 // the freeze outlives the flip; then collect and thaw
	phaseDone
)

// migration is one virtual group's reconfiguration, as plain data.
type migration struct {
	group ring.GroupID
	old   ring.Chain // chain serving the group when the migration starts
	next  ring.Chain // chain after the flip

	phase  phase
	polls  int           // drain barrier polls that found writes in flight
	window time.Duration // the stop window before the first drain poll

	// adoptOnly skips the window: the new chain is a subset or a same-head
	// reorder of the serving one (no data movement, no stop needed).
	adoptOnly bool

	// moves lists the keys the group absorbs from other groups in a resize,
	// key order; donors the same keys per donor group, each with the chain
	// still serving them: frozen, drained and collected together with old.
	// Absorbing keys bumps the group's session even when its head stays,
	// so its future writes dominate the donors' stamps.
	moves  []keyMove
	donors []donorMoves
	// sessionFloor raises the group's session before the bump so writes
	// stamped after the flip dominate versions imported from donor groups
	// (their sessions advanced independently).
	sessionFloor uint32
	// guard lifts the group's insert guard at the flip (resize, rehome).
	guard bool
	// preSync bulk-copies state *before* the stop window so only the delta
	// is copied inside it (Algorithm 3 Step 1).
	preSync bool
	// failed and neighbors are set by failure recovery: traffic still
	// addressed to the failed switch is dropped at its neighbors for the
	// window and redirected to the replacement from the flip on.
	failed    packet.Addr
	neighbors []packet.Addr
}

// run is one operation's migrations, stepped one group at a time.
type run struct {
	groups []ring.GroupID // still to migrate, in order
	// build plans a group when its turn arrives, so it observes the chains
	// as earlier migrations (and any concurrent failovers) left them; nil
	// skips the group.
	build func(ring.GroupID) *migration
	m     *migration // the group in flight
	done  func()     // optional, fires after the last group

	// A planned reconfiguration holds the resize latch until its last
	// group. guard has Insert refuse its groups' keys until each flips;
	// prepare (optional) runs once, outside c.mu, before the first group;
	// retired groups are dismantled when the latch is released.
	latched, guard bool
	prepare        func()
	retired        []ring.GroupID
}

// reconfigure starts a planned reconfiguration — resize, rehome or chain
// reorder — behind the resize latch, which keeps them one at a time. plan
// runs under c.mu once the latch is free: it checks the request, moves the
// ring and returns the run, or nil when it refuses (its error) or finds
// nothing to do.
func (c *Controller) reconfigure(plan func() (*run, error)) error {
	c.mu.Lock()
	if c.resizing {
		c.mu.Unlock()
		return errors.New("controller: resize already in progress")
	}
	r, err := plan()
	if r == nil {
		c.mu.Unlock()
		return err
	}
	slices.Sort(r.groups) // deterministic order for reproducible experiments
	for _, g := range r.groups {
		if r.guard {
			c.migratingGroups[g] = true
		}
	}
	c.resizing, r.latched = true, true
	c.runs++
	c.mu.Unlock()
	if r.prepare != nil {
		r.prepare()
	}
	c.drive(r)
	return nil
}

// drive is the engine's one loop: it steps the group in flight until a
// phase has to wait, arms the clock for the wait, and takes up the next
// group as each one finishes. A transition that needs no wait runs at
// once, within the same clock callback.
func (c *Controller) drive(r *run) {
	for {
		switch {
		case r.m != nil && r.m.phase != phaseDone:
			wait, armed := c.step(r.m)
			if c.stepped != nil {
				c.stepped(r.m)
			}
			if armed {
				c.clk.After(wait, func() { c.drive(r) })
				return
			}
		case len(r.groups) > 0:
			r.m = r.build(r.groups[0])
			r.groups = r.groups[1:]
		default:
			c.finish(r)
			return
		}
	}
}

// finish ends a run: it dismantles the retired groups and releases the
// latch a planned reconfiguration took, with the books GC kept while any
// migration was in flight.
func (c *Controller) finish(r *run) {
	c.mu.Lock()
	for _, g := range r.retired {
		delete(c.chains, g)
		delete(c.keys, g)
		delete(c.sessions, g)
	}
	if r.latched {
		c.resizing = false
		clear(c.migratingGroups)
	}
	if c.runs--; c.runs == 0 {
		clear(c.droppedKeys)
	}
	c.mu.Unlock()
	if r.done != nil {
		r.done()
	}
}

// step runs m's current phase and moves m to its next one. It returns how
// long the next phase waits; armed is false when it runs at once. A zero
// wait is still armed: the simulated event order depends on it.
func (c *Controller) step(m *migration) (wait time.Duration, armed bool) {
	switch m.phase {
	case phasePlanned:
		if m.adoptOnly {
			c.mu.Lock()
			c.chains[m.group] = c.liveChainLocked(m.next)
			c.mu.Unlock()
			m.phase = phaseDone
			return 0, false
		}
		// The modelled cost of the state copy: the group's items onto every
		// joining member, the absorbed keys onto the whole new chain.
		m.window = time.Duration(c.KeyCount(m.group)*len(additions(m.old, m.next))+
			len(m.moves)*len(m.next.Hops)) * c.cfg.SyncPerItem
		if m.preSync {
			m.phase = phasePresync
			return m.window, true
		}
		m.phase = phaseFreeze
	case phasePresync:
		// Only the delta is copied inside the stop window.
		c.copyState(m)
		m.phase, m.window = phaseFreeze, preSyncDelta
	case phaseFreeze:
		c.neighborRules(m, core.Rule{Action: core.ActDrop})
		c.setFreeze(m, true)
		m.phase = phaseDrain
		return c.cfg.RuleDelay + m.window, true
	case phaseDrain:
		// The stop window's length is a guess about the network: a write
		// stamped before the freeze and still in flight when the copy reads
		// its reference would be acknowledged by the old tail yet missing on
		// the new chain. So after the window the engine polls the drain
		// barrier, one rule delay apart, before it copies.
		if m.polls < maxDrainPolls && !c.drained(m) {
			m.polls++
			return c.cfg.RuleDelay, true
		}
		m.phase = phaseFlip
	case phaseFlip:
		c.copyState(m)
		c.flip(m)
		if adds := additions(m.old, m.next); len(adds) > 0 {
			// Traffic still addressed to the failed switch follows the
			// replacement that took its chain position.
			c.neighborRules(m, core.Rule{Action: core.ActRedirect, To: adds[0]})
		}
		// Every freeze outlives the flip by one rule delay: a write that
		// resolved the old route just before the flip may still be in
		// flight, and a member that thawed at the flip would stamp it and
		// have it acknowledged on a chain the state copy has already left —
		// an acknowledged write the new chain's tail would never see.
		m.phase = phaseHold
		return c.cfg.RuleDelay, true
	case phaseHold:
		// Reads that resolved the old route have drained off the wire in the
		// hold, so only now are the slots the new chain no longer needs
		// collected (exact placement: a key lives on its chain's switches
		// and nowhere else — removing a slot under an in-flight read would
		// turn an existing key into a spurious NotFound), and only once
		// they are gone does anything thaw: from then on a stale-routed
		// write fails with NotFound instead of silently committing.
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
		m.phase = phaseDone
	}
	return 0, false
}

// copyState is the actual data movement behind the modelled copy time: it
// copies the group's current keys from a reference replica onto every
// member joining the chain (§5.2 "Handling special cases") — one bulk read
// on the reference, one bulk write on the joining member, whatever the key
// count — and the keys the group absorbs from each donor onto the whole
// new chain.
func (c *Controller) copyState(m *migration) {
	for _, add := range additions(m.old, m.next) {
		if ref, ok := referenceSwitch(m.next, add, m.old); ok {
			if src, ok := c.agent(ref); ok {
				c.copyItems(src, c.groupKeys(m.group), []packet.Addr{add})
			}
		}
	}
	c.copyMoves(m.donors, m.next)
}

// flip publishes the group's next chain, with the session and key books
// that go with it.
func (c *Controller) flip(m *migration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Switches that failed while this group's stop window ran are filtered
	// here, at flip time — installing them would overwrite the degradation
	// a concurrent HandleFailure applied and route clients at a dead hop.
	next := c.liveChainLocked(m.next)
	// Only the serving head is ever told the group's session, so any other
	// switch taking over as head — a joining one or a replica moving up —
	// needs a bump of its own.
	serving := c.chains[m.group]
	headChanged := len(next.Hops) > 0 && (len(serving.Hops) == 0 || serving.Head() != next.Head())
	if c.sessions[m.group] < m.sessionFloor {
		c.sessions[m.group] = m.sessionFloor
	}
	if headChanged || len(m.moves) > 0 {
		c.sessions[m.group]++
		// The head learns its session before the chain that names it is
		// published (see HandleFailure).
		if len(next.Hops) > 0 {
			if a, ok := c.agent(next.Head()); ok {
				c.bestEffort(a.SetSession(uint16(m.group), c.sessions[m.group]))
			}
		}
	}
	c.chains[m.group] = next
	if m.guard {
		delete(c.migratingGroups, m.group)
	}
	// Keys GC'd mid-migration stay deleted — and because a GC under
	// wall-clock time can slip in between the copy's key snapshot and the
	// item landing on the new chain, the flip scrubs every dropped key of
	// this group off the chain it is about to serve from.
	var scrub []kv.Key
	for k := range c.droppedKeys {
		if c.ring.GroupForKey(k) == m.group {
			scrub = append(scrub, k)
		}
	}
	c.removeKeys(m.next.Hops, scrub)
	// The absorbed keys now belong to the group and route through its
	// just-flipped chain.
	for _, mv := range m.moves {
		if c.droppedKeys[mv.key] {
			continue
		}
		ks := c.keys[mv.from]
		for i, k := range ks {
			if k == mv.key {
				c.keys[mv.from] = append(ks[:i], ks[i+1:]...)
				break
			}
		}
		c.keys[m.group] = append(c.keys[m.group], mv.key)
		delete(c.moved, mv.key)
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
