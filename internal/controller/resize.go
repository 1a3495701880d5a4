package controller

import (
	"fmt"
	"sort"

	"netchain/internal/core"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/ring"
)

// Planned elastic reconfiguration (scale-out / scale-in): the controller
// recomputes virtual-group placement through ring.Resize, then runs the
// shared migration engine over every affected group. This file plans —
// which groups, which chains, which keys change groups — and keeps the
// key-ownership books; the stop window is the engine's (migrateNext).

// keyMove records one key changing virtual groups across a resize (its ring
// segment was split by a new virtual node or merged into its successor by a
// removed one).
type keyMove struct {
	key  kv.Key
	from ring.GroupID
}

// AddSwitch live-migrates the cluster onto a layout that includes sw: the
// switch joins the ring with its own virtual nodes and the affected groups'
// state is copied over before routes flip. done (optional) fires after the
// last group migrates. The returned Diff names every group whose chain
// changed.
func (c *Controller) AddSwitch(sw packet.Addr, done func()) (ring.Diff, error) {
	return c.Resize([]packet.Addr{sw}, nil, done)
}

// RemoveSwitch live-drains sw out of the cluster: its virtual groups retire
// and their key ranges merge into the clockwise successor groups, which
// absorb the data before routes flip. The switch keeps serving until every
// group it participated in has migrated away; afterwards it holds no state
// and can be shut down. done (optional) fires after the last group.
func (c *Controller) RemoveSwitch(sw packet.Addr, done func()) (ring.Diff, error) {
	return c.Resize(nil, []packet.Addr{sw}, done)
}

// Resize performs a combined planned membership change. One resize (or an
// in-flight one) at a time; failure handling remains available throughout —
// only the group currently mid-migration briefly refuses fresh writes.
func (c *Controller) Resize(add, remove []packet.Addr, done func()) (ring.Diff, error) {
	c.mu.Lock()
	if c.resizing {
		c.mu.Unlock()
		return ring.Diff{}, fmt.Errorf("controller: resize already in progress")
	}
	var readmitted []packet.Addr
	for _, sw := range add {
		// Explicitly adding a previously-failed switch is the operator's
		// readmission: its old ring positions were reassigned by Recover,
		// so it rejoins like any new switch — fresh virtual nodes, state
		// copied over before routes flip — and failure handling applies
		// to it again from here on.
		if c.failed[sw] {
			delete(c.failed, sw)
			readmitted = append(readmitted, sw)
		}
	}
	existingGroups := make([]ring.GroupID, 0, len(c.chains))
	for g := range c.chains {
		existingGroups = append(existingGroups, g)
	}
	for _, sw := range remove {
		if c.failed[sw] {
			c.mu.Unlock()
			return ring.Diff{}, fmt.Errorf("controller: %v already failed; use Recover", sw)
		}
	}
	// Snapshot the pre-resize placement of every tracked key, then move the
	// ring. Keys whose group changes keep routing to the donor group (via
	// c.moved) until the receiving group's migration flips.
	oldGroupOf := make(map[kv.Key]ring.GroupID)
	for g, ks := range c.keys {
		for _, k := range ks {
			oldGroupOf[k] = g
		}
	}
	diff, err := c.ring.Resize(add, remove)
	if err != nil {
		c.mu.Unlock()
		return ring.Diff{}, err
	}
	movedInto := make(map[ring.GroupID][]keyMove)
	for k, og := range oldGroupOf {
		ng := c.ring.GroupForKey(k)
		if ng != og {
			c.moved[k] = og
			movedInto[ng] = append(movedInto[ng], keyMove{key: k, from: og})
		}
	}
	for _, moves := range movedInto {
		sort.Slice(moves, func(i, j int) bool {
			a, b := moves[i].key, moves[j].key
			for x := range a {
				if a[x] != b[x] {
					return a[x] < b[x]
				}
			}
			return false
		})
	}
	// Affected groups: every non-retired delta plus every group absorbing
	// keys; deterministic order for reproducible experiments. Retired
	// groups need no migration of their own — their keys travel with the
	// absorbing groups' migrations — but are dismantled at the end.
	affectedSet := make(map[ring.GroupID]bool)
	var retired []ring.GroupID
	for g, d := range diff.Deltas {
		if d.Retired() {
			retired = append(retired, g)
			continue
		}
		affectedSet[g] = true
	}
	for g := range movedInto {
		affectedSet[g] = true
	}
	affected := make([]ring.GroupID, 0, len(affectedSet))
	for g := range affectedSet {
		affected = append(affected, g)
		c.migratingGroups[g] = true
	}
	sort.Slice(affected, func(i, j int) bool { return affected[i] < affected[j] })
	c.resizing = true
	c.mu.Unlock()

	// Scrub every readmitted switch before its new groups migrate onto
	// it: wipe the residual replicas it still holds from before it
	// failed (their groups are served by replacements now — a
	// stale-routed read must get NotFound, never an old value), and lift
	// the Algorithm 2/3 rules its neighbors still carry for it (the
	// wildcard next-hop and per-group redirects that bridged the outage
	// would otherwise hijack every frame addressed to the returning
	// switch, bypassing its data plane forever).
	for _, sw := range readmitted {
		if a, ok := c.agent(sw); ok {
			if ks, err := a.Keys(); err == nil && len(ks) > 0 {
				c.bestEffort(a.RemoveKeys(ks))
			}
		}
		for _, nb := range c.neighbors(sw) {
			if a, ok := c.agent(nb); ok {
				c.bestEffort(a.RemoveRule(sw, core.WildcardGroup))
				for _, g := range existingGroups {
					c.bestEffort(a.RemoveRule(sw, int(g)))
				}
			}
		}
	}

	c.runMigrations(len(affected), func(i int) *migration {
		g := affected[i]
		return c.buildResizeMigration(g, movedInto[g])
	}, func() { c.endResize(retired, done) })
	return diff, nil
}

// endResize dismantles the retired groups and releases the latch a resize,
// rehome or reorder took, with the books GC kept while it was held.
func (c *Controller) endResize(retired []ring.GroupID, done func()) {
	c.mu.Lock()
	for _, g := range retired {
		delete(c.chains, g)
		delete(c.keys, g)
		delete(c.sessions, g)
	}
	c.resizing = false
	c.migratingGroups = make(map[ring.GroupID]bool)
	c.droppedKeys = make(map[kv.Key]bool)
	c.mu.Unlock()
	if done != nil {
		done()
	}
}

// Resizing reports whether a planned reconfiguration is in flight.
func (c *Controller) Resizing() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resizing
}

// buildResizeMigration plans one group's move onto its ring chain, with
// the keys it absorbs from donor groups (none for a rehome, where no key
// changes groups).
func (c *Controller) buildResizeMigration(g ring.GroupID, moves []keyMove) *migration {
	c.mu.Lock()
	newChain, err := c.ring.ChainForGroup(g)
	if err != nil {
		c.mu.Unlock()
		return nil
	}
	m := &migration{
		group:       g,
		old:         c.chains[g], // zero-valued for groups born in this resize
		next:        c.liveChainLocked(newChain),
		donors:      movesByDonor(moves),
		bumpSession: len(moves) > 0,
	}
	// Donor serving chains and session floor: the receiving group's next
	// session must dominate every version stamped under a donor's session,
	// or replicas would reject post-migration writes as stale.
	for i := range m.donors {
		d := &m.donors[i]
		d.chain = c.chains[d.from]
		if s := c.sessions[d.from]; s > m.sessionFloor {
			m.sessionFloor = s
		}
	}
	c.mu.Unlock()

	if len(moves) == 0 && len(additions(m.old, m.next)) == 0 {
		if m.old.Equal(m.next) {
			return nil
		}
		// Pure reorder of the serving members: no data to move, no head
		// change — adopt. A changed head, or members leaving without
		// replacement, run the window (session bump / leaver collection)
		// with an empty copy set.
		m.adoptOnly = len(additions(m.next, m.old)) == 0 && len(m.old.Hops) > 0 &&
			len(m.next.Hops) > 0 && m.old.Head() == m.next.Head()
	}
	m.flip = func() {
		// Key-ownership bookkeeping, under c.mu: the absorbed keys now
		// belong to g and route through its (just-flipped) chain, and
		// the group accepts inserts again. Keys GC'd mid-resize stay
		// deleted — and because a GC under wall-clock time can slip in
		// between the copy's drop check and the item landing on the new
		// chain, the flip scrubs every dropped key of this group off
		// the chain it is about to serve from.
		delete(c.migratingGroups, g)
		var scrub []kv.Key
		for k := range c.droppedKeys {
			if c.ring.GroupForKey(k) == g {
				scrub = append(scrub, k)
			}
		}
		c.removeKeys(m.next.Hops, scrub)
		for _, mv := range moves {
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
			c.keys[g] = append(c.keys[g], mv.key)
			delete(c.moved, mv.key)
		}
	}
	return m
}

// donorMoves is the keys one donor group hands to an absorbing group, and
// the chain serving them until the absorbing group flips.
type donorMoves struct {
	from  ring.GroupID
	chain ring.Chain
	keys  []kv.Key
}

// movesByDonor groups a migration's key moves per donor group, donors in
// order of first appearance (moves are key-sorted, so the order is
// deterministic), so each donor/destination pair costs one batch.
func movesByDonor(moves []keyMove) []donorMoves {
	var out []donorMoves
	idx := make(map[ring.GroupID]int)
	for _, mv := range moves {
		i, ok := idx[mv.from]
		if !ok {
			i = len(out)
			idx[mv.from] = i
			out = append(out, donorMoves{from: mv.from})
		}
		out[i].keys = append(out[i].keys, mv.key)
	}
	return out
}

// copyMoves replicates the keys a group absorbs from each donor chain's
// tail — the replica guaranteed to hold only committed writes — onto
// every member of the destination chain, allocating slots as needed. Keys
// the client GC'd since the resize started are not copied — the deletion
// wins over the move. A donor that cannot be read (key mid-insert, chain
// fully failed) still gets its keys' slots installed so post-migration
// writes land.
func (c *Controller) copyMoves(donors []donorMoves, dst ring.Chain) {
	for _, dm := range donors {
		c.mu.Lock()
		keys := make([]kv.Key, 0, len(dm.keys))
		for _, k := range dm.keys {
			if !c.droppedKeys[k] {
				keys = append(keys, k)
			}
		}
		c.mu.Unlock()
		var src Agent // stays nil when the donor has no reachable tail
		if len(dm.chain.Hops) > 0 {
			if a, ok := c.agent(dm.chain.Tail()); ok {
				src = a
			}
		}
		c.copyItems(src, keys, dst.Hops)
	}
}
