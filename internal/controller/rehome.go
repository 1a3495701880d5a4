package controller

import (
	"fmt"
	"sort"
	"time"

	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/ring"
)

// Rehome live-migrates the given virtual groups onto explicitly planned
// chains — the verb behind bottleneck-aware placement on fabrics. The
// ring's key→group mapping is untouched (ring.SetPlacement only moves
// where each group's chain lives), so unlike Resize no keys change
// groups: each affected group runs the shared two-phase migration —
// freeze fresh writes on the serving chain, copy state onto joining
// members from a reference replica, atomically flip the route, GC the
// leavers. done (optional) fires after the last group. One long-running
// reconfiguration at a time: Rehome shares the resize latch.
func (c *Controller) Rehome(plans map[ring.GroupID][]packet.Addr, done func()) error {
	c.mu.Lock()
	if c.resizing {
		c.mu.Unlock()
		return fmt.Errorf("controller: reconfiguration already in progress")
	}
	if len(plans) == 0 {
		c.mu.Unlock()
		return fmt.Errorf("controller: rehome with no plans")
	}
	for g, hops := range plans {
		for _, h := range hops {
			if c.failed[h] {
				c.mu.Unlock()
				return fmt.Errorf("controller: rehome of group %d onto failed switch %v", g, h)
			}
		}
	}
	if err := c.ring.SetPlacement(plans); err != nil {
		c.mu.Unlock()
		return err
	}
	affected := make([]ring.GroupID, 0, len(plans))
	for g := range plans {
		affected = append(affected, g)
		c.migratingGroups[g] = true
	}
	sort.Slice(affected, func(i, j int) bool { return affected[i] < affected[j] })
	c.resizing = true
	c.mu.Unlock()

	c.runMigrations(len(affected), func(i int) *migration {
		return c.buildRehomeMigration(affected[i])
	}, func() {
		c.mu.Lock()
		c.resizing = false
		c.migratingGroups = make(map[ring.GroupID]bool)
		c.mu.Unlock()
		if done != nil {
			done()
		}
	})
	return nil
}

// buildRehomeMigration plans one group's move onto its placed chain:
// buildResizeMigration minus the donor machinery (no keys change
// groups), with the same freeze-sync-flip-GC shape.
func (c *Controller) buildRehomeMigration(g ring.GroupID) *migration {
	c.mu.Lock()
	newChain, err := c.ring.ChainForGroup(g)
	if err != nil {
		delete(c.migratingGroups, g)
		c.mu.Unlock()
		return nil
	}
	newChain = c.liveChainLocked(newChain)
	old := c.chains[g]
	adds := additions(old, newChain)
	leavers := additions(newChain, old)
	groupKeys := append([]kv.Key(nil), c.keys[g]...)
	items := len(groupKeys)
	c.mu.Unlock()

	if len(adds) == 0 {
		if old.Equal(newChain) {
			c.mu.Lock()
			delete(c.migratingGroups, g)
			c.mu.Unlock()
			return nil
		}
		if len(leavers) == 0 && len(old.Hops) > 0 && len(newChain.Hops) > 0 &&
			old.Head() == newChain.Head() {
			c.mu.Lock()
			delete(c.migratingGroups, g)
			c.mu.Unlock()
			return &migration{group: g, old: old, next: newChain, adoptOnly: true}
		}
	}

	syncDur := time.Duration(items*len(adds)) * c.cfg.SyncPerItem
	return &migration{
		group:    g,
		old:      old,
		next:     newChain,
		stopWait: c.cfg.RuleDelay + syncDur,
		stop: func() {
			// Freeze every serving member: behind failover rules any of
			// them may act as head, and a write stamped mid-copy on the old
			// chain would be lost the moment the new tail takes over.
			for _, h := range old.Hops {
				if a, ok := c.agent(h); ok {
					_ = a.FreezeWrites(uint16(g), true)
				}
			}
		},
		sync: func() {
			for _, add := range adds {
				if ref, ok := referenceSwitch(newChain, add, old); ok {
					c.copyGroup(g, ref, add)
				}
			}
		},
		flip: func() {
			delete(c.migratingGroups, g)
		},
		activate: func() {
			// Unfreeze the members now serving the group; leavers stay
			// frozen until their slots are gone, so a stale-routed write
			// fails with NotFound instead of committing on an abandoned
			// chain. The GC waits out one rule delay for in-flight reads
			// that resolved the old route to drain off the wire.
			for _, h := range old.Hops {
				if newChain.Contains(h) {
					if a, ok := c.agent(h); ok {
						_ = a.FreezeWrites(uint16(g), false)
					}
				}
			}
			c.sched.After(c.cfg.RuleDelay, func() {
				c.removeKeys(leavers, groupKeys)
				for _, h := range leavers {
					if a, ok := c.agent(h); ok {
						_ = a.FreezeWrites(uint16(g), false)
					}
				}
			})
		},
	}
}

// Rehoming reports whether a rehome (or any planned reconfiguration) is
// in flight — Rehome shares the resize latch.
func (c *Controller) Rehoming() bool { return c.Resizing() }
