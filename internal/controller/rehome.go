package controller

import (
	"fmt"
	"maps"
	"slices"

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
	return c.reconfigure(func() (*run, error) {
		if len(plans) == 0 {
			return nil, fmt.Errorf("controller: rehome with no plans")
		}
		for g, hops := range plans {
			for _, h := range hops {
				if c.failed[h] {
					return nil, fmt.Errorf("controller: rehome of group %d onto failed switch %v", g, h)
				}
			}
		}
		if err := c.ring.SetPlacement(plans); err != nil {
			return nil, err
		}
		r := &run{guard: true, done: done, build: func(g ring.GroupID) *migration {
			return c.buildResizeMigration(g, nil)
		}}
		r.groups = slices.Collect(maps.Keys(plans))
		return r, nil
	})
}
