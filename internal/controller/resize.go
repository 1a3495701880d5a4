package controller

import (
	"fmt"
	"maps"
	"slices"

	"netchain/internal/core"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/ring"
)

// Planned elastic reconfiguration (scale-out / scale-in): the controller
// recomputes virtual-group placement through ring.Resize, then runs the
// shared migration engine over every affected group. This file plans —
// which groups, which chains, which keys change groups; the stop window
// and the key-ownership books kept at the flip are the engine's
// (migrate.go).

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
	var diff ring.Diff
	err := c.reconfigure(func() (*run, error) {
		existingGroups := slices.Collect(maps.Keys(c.chains))
		for _, sw := range remove {
			if c.failed[sw] {
				return nil, fmt.Errorf("controller: %v already failed; use Recover", sw)
			}
		}
		// Snapshot the pre-resize placement of every tracked key, then move
		// the ring. Keys whose group changes keep routing to the donor group
		// (via c.moved) until the receiving group's migration flips.
		oldGroupOf := make(map[kv.Key]ring.GroupID)
		for g, ks := range c.keys {
			for _, k := range ks {
				oldGroupOf[k] = g
			}
		}
		var err error
		if diff, err = c.ring.Resize(add, remove); err != nil {
			return nil, err
		}
		// Explicitly adding a previously-failed switch is the operator's
		// readmission: its old ring positions were reassigned by Recover,
		// so it rejoins like any new switch — fresh virtual nodes, state
		// copied over before routes flip — and failure handling applies to
		// it again from here on. Only an accepted resize readmits: a
		// refused one leaves the switch failed over.
		var readmitted []packet.Addr
		for _, sw := range add {
			if c.failed[sw] {
				delete(c.failed, sw)
				readmitted = append(readmitted, sw)
			}
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
			slices.SortFunc(moves, func(a, b keyMove) int { return a.key.Compare(b.key) })
		}
		// Affected groups: every non-retired delta plus every group
		// absorbing keys. Retired groups need no migration of their own —
		// their keys travel with the absorbing groups' migrations — but are
		// dismantled at the end.
		r := &run{guard: true, done: done, build: func(g ring.GroupID) *migration {
			return c.buildResizeMigration(g, movedInto[g])
		}}
		for g, d := range diff.Deltas {
			if d.Retired() {
				r.retired = append(r.retired, g)
			} else if movedInto[g] == nil {
				r.groups = append(r.groups, g)
			}
		}
		r.groups = slices.AppendSeq(r.groups, maps.Keys(movedInto))
		// Scrub every readmitted switch before its new groups migrate onto
		// it: wipe the residual replicas it still holds from before it
		// failed (their groups are served by replacements now — a
		// stale-routed read must get NotFound, never an old value), and
		// lift the Algorithm 2/3 rules its neighbors still carry for it
		// (the wildcard next-hop and per-group redirects that bridged the
		// outage would otherwise hijack every frame addressed to the
		// returning switch, bypassing its data plane forever).
		r.prepare = func() {
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
		}
		return r, nil
	})
	return diff, err
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
		group: g,
		old:   c.chains[g], // zero-valued for groups born in this resize
		next:  c.liveChainLocked(newChain),
		moves: moves,
		guard: true,
	}
	// The moves per donor group, donors in order of first appearance (moves
	// are key-sorted, so the order is deterministic), so each
	// donor/destination pair costs one batch. With each donor go its
	// serving chain and its session: the receiving group's next session
	// must dominate every version stamped under a donor's session, or
	// replicas would reject post-migration writes as stale.
	for _, mv := range moves {
		i := slices.IndexFunc(m.donors, func(d donorMoves) bool { return d.from == mv.from })
		if i < 0 {
			i = len(m.donors)
			m.donors = append(m.donors, donorMoves{from: mv.from, chain: c.chains[mv.from]})
			m.sessionFloor = max(m.sessionFloor, c.sessions[mv.from])
		}
		m.donors[i].keys = append(m.donors[i].keys, mv.key)
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
	return m
}

// donorMoves is the keys one donor group hands to an absorbing group, and
// the chain serving them until the absorbing group flips.
type donorMoves struct {
	from  ring.GroupID
	chain ring.Chain
	keys  []kv.Key
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
		keys := slices.DeleteFunc(slices.Clone(dm.keys), func(k kv.Key) bool { return c.droppedKeys[k] })
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
