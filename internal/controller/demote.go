package controller

import (
	"fmt"

	"netchain/internal/packet"
	"netchain/internal/ring"
)

// Gray-degradation handling: a switch that is alive but slow/lossy is
// DEMOTED, not evicted. Reads are served by each chain's tail, so moving
// the gray switch out of the tail position drains read traffic off it
// while it keeps its replica role (the chain stays at f+1 copies and the
// write path still flows through it — chain replication needs every
// replica on the write path regardless of order). Eviction would cost a
// full state re-sync and, for a switch that is merely degraded, trade a
// latency problem for an availability one.
//
// Reordering a serving chain is only safe behind the migration engine's
// stop window: freeze fresh writes on every serving member, wait until the
// in-flight ordered writes have drained to all replicas (every member then
// holds an identical committed prefix), flip the chain, hold the freeze one
// more rule delay, thaw. Without the drain, a write acked by the old tail
// but not yet applied at the new one would be invisible to the first
// post-flip read — a stale read; without the hold, a stale-routed read at
// the old tail could observe a post-flip write that a later read at the
// new tail has not seen yet. No data moves and the member set is unchanged,
// so the window copies nothing and bumps no session.

// Demote moves sw out of the tail position of every virtual group it
// currently serves as tail (chains of at least 3 hops, so the head never
// changes). It returns the number of groups being migrated; done fires
// after the last one. The serving order diverges from the ring order
// until Restore.
func (c *Controller) Demote(sw packet.Addr, done func()) (int, error) {
	plan := func(old ring.Chain) (ring.Chain, bool) {
		n := len(old.Hops)
		if n < 3 || old.Tail() != sw {
			return ring.Chain{}, false
		}
		next := ring.Chain{Group: old.Group, Hops: append([]packet.Addr(nil), old.Hops...)}
		next.Hops[n-1], next.Hops[n-2] = next.Hops[n-2], next.Hops[n-1]
		return next, true
	}
	return c.reorderChains(sw, plan, done)
}

// Restore re-adopts the ring's chain order for every group whose serving
// chain contains sw and is an order-permutation of the (live) ring chain
// — undoing a prior Demote once the switch is healthy again. Groups whose
// membership diverged from the ring (failover, recovery) are skipped;
// Recover owns those.
func (c *Controller) Restore(sw packet.Addr, done func()) (int, error) {
	plan := func(old ring.Chain) (ring.Chain, bool) {
		if !old.Contains(sw) {
			return ring.Chain{}, false
		}
		want, err := c.ring.ChainForGroup(old.Group)
		if err != nil {
			return ring.Chain{}, false
		}
		want = c.liveChainLocked(want)
		if want.Equal(old) || !sameMembers(old, want) {
			return ring.Chain{}, false
		}
		return want, true
	}
	return c.reorderChains(sw, plan, done)
}

// reorderChains runs pure order-permutation migrations over every group
// whose serving chain plan() rewrites, behind the resize latch so a reorder
// and a planned resize can never interleave. plan is always invoked with
// c.mu held.
func (c *Controller) reorderChains(sw packet.Addr,
	plan func(old ring.Chain) (ring.Chain, bool), done func()) (int, error) {
	n := 0
	err := c.reconfigure(func() (*run, error) {
		if c.failed[sw] {
			return nil, fmt.Errorf("controller: %v is failed; use Recover", sw)
		}
		r := &run{done: done, build: func(g ring.GroupID) *migration {
			// Re-plan at the group's turn: a failover that degraded the
			// chain in the meantime may have made the reorder moot.
			c.mu.Lock()
			old := chWithGroup(c.chains[g], g)
			next, ok := plan(old)
			c.mu.Unlock()
			if !ok {
				return nil
			}
			return &migration{group: g, old: old, next: next}
		}}
		for g, ch := range c.chains {
			if _, ok := plan(chWithGroup(ch, g)); ok {
				r.groups = append(r.groups, g)
			}
		}
		if n = len(r.groups); n == 0 {
			return nil, nil
		}
		return r, nil
	})
	if err == nil && n == 0 && done != nil {
		c.clk.After(0, done)
	}
	return n, err
}

// chWithGroup stamps the map key's group id onto a chain value (serving
// chains store zero-valued Group fields in some construction paths).
func chWithGroup(ch ring.Chain, g ring.GroupID) ring.Chain {
	ch.Group = g
	return ch
}

// sameMembers reports whether two chains contain exactly the same
// switches, order aside.
func sameMembers(a, b ring.Chain) bool {
	if len(a.Hops) != len(b.Hops) {
		return false
	}
	for _, h := range a.Hops {
		if !b.Contains(h) {
			return false
		}
	}
	return true
}
