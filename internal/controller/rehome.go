package controller

import (
	"fmt"
	"sort"

	"netchain/internal/packet"
	"netchain/internal/ring"
)

// Rehome live-migrates the given virtual groups onto explicitly planned
// chains — the verb behind bottleneck-aware placement on fabrics. The
// ring's key→group mapping is untouched (ring.SetPlacement only moves
// where each group's chain lives), so unlike Resize no keys change
// groups: each affected group is planned like a resize that absorbs
// nothing and runs the shared migration engine. done (optional) fires
// after the last group. One long-running reconfiguration at a time: Rehome
// shares the resize latch.
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
		return c.buildResizeMigration(affected[i], nil)
	}, func() { c.endResize(nil, done) })
	return nil
}

// Rehoming reports whether a rehome (or any planned reconfiguration) is
// in flight — Rehome shares the resize latch.
func (c *Controller) Rehoming() bool { return c.Resizing() }
