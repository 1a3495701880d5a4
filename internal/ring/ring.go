// Package ring implements NetChain's data partitioning (§4.1): consistent
// hashing with virtual nodes. Keys are mapped to a hash ring; each switch
// owns m/n virtual nodes; the keys of each ring segment are assigned to the
// f+1 subsequent virtual nodes that belong to distinct switches.
//
// Each virtual node doubles as a *virtual group* (§5.2): failure recovery
// proceeds one group at a time so that only 1/groups of the key space loses
// write availability at any instant.
package ring

import (
	"fmt"
	"sort"

	"netchain/internal/kv"
	"netchain/internal/packet"
)

// Config parameterizes a Ring.
type Config struct {
	// VNodesPerSwitch is the number of virtual nodes (= virtual groups)
	// each switch owns. The paper's Fig. 10(b) uses 100.
	VNodesPerSwitch int
	// Replicas is the chain length f+1. The paper's testbed uses 3.
	Replicas int
	// Seed salts the placement hash so distinct deployments shuffle
	// differently while remaining deterministic under test.
	Seed uint64
}

// vnode is one position on the ring.
type vnode struct {
	point uint64      // position on the ring
	owner packet.Addr // switch that owns this virtual node
	group GroupID     // stable virtual-group identifier
}

// GroupID names a virtual group. Group ids are stable across reassignment:
// when a failed switch's virtual nodes move to live switches, the ids (and
// therefore the key→group mapping) do not change — only the chains do.
type GroupID int

// Chain is the replica chain serving one virtual group, head first.
type Chain struct {
	Group GroupID
	Hops  []packet.Addr // head .. tail, all distinct switches
}

// Head returns the chain head (first hop of writes).
func (c Chain) Head() packet.Addr { return c.Hops[0] }

// Tail returns the chain tail (serves reads, replies to writes).
func (c Chain) Tail() packet.Addr { return c.Hops[len(c.Hops)-1] }

// Contains reports whether sw is a member of the chain.
func (c Chain) Contains(sw packet.Addr) bool {
	for _, h := range c.Hops {
		if h == sw {
			return true
		}
	}
	return false
}

// Equal reports whether two chains serve the same group through the same
// hops in the same order.
func (c Chain) Equal(o Chain) bool {
	if c.Group != o.Group || len(c.Hops) != len(o.Hops) {
		return false
	}
	for i, h := range c.Hops {
		if h != o.Hops[i] {
			return false
		}
	}
	return true
}

// clone returns an independent copy of the chain.
func (c Chain) clone() Chain {
	return Chain{Group: c.Group, Hops: append([]packet.Addr(nil), c.Hops...)}
}

// Ring is the partitioning state. It is a value owned by the controller;
// clients hold immutable snapshots of the derived chains.
type Ring struct {
	cfg      Config
	switches []packet.Addr
	vnodes   []vnode // sorted by point
	// nextGroup is the next unassigned group id. Group ids are never
	// reused: a group retired by a scale-in keeps its id forever, so
	// session numbers installed in switches for a dead group can never
	// collide with a group created by a later scale-out. Because the wire
	// format carries group ids in a 16-bit field, Resize refuses to
	// allocate past MaxGroupID — that cap is what makes "never reused"
	// hold all the way down to the truncated id the dataplane sees.
	nextGroup GroupID
	// placed overrides the hash-derived chain of individual groups with an
	// explicitly planned one (bottleneck-aware placement on fabrics). The
	// key→group mapping is untouched — only where a group's chain lives.
	placed map[GroupID][]packet.Addr
}

// MaxGroupID bounds cumulative group allocation: the packet header's group
// field (and the switch session/freeze tables keyed on it) is 16 bits, so
// ids must stay unique without truncation.
const MaxGroupID = GroupID(1 << 16)

// New builds a ring over the given switches.
func New(cfg Config, switches []packet.Addr) (*Ring, error) {
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("ring: replicas must be >= 1, got %d", cfg.Replicas)
	}
	if cfg.VNodesPerSwitch < 1 {
		return nil, fmt.Errorf("ring: vnodes per switch must be >= 1, got %d", cfg.VNodesPerSwitch)
	}
	if len(switches) < cfg.Replicas {
		return nil, fmt.Errorf("ring: %d switches cannot host %d-replica chains",
			len(switches), cfg.Replicas)
	}
	seen := make(map[packet.Addr]bool, len(switches))
	for _, s := range switches {
		if seen[s] {
			return nil, fmt.Errorf("ring: duplicate switch %v", s)
		}
		seen[s] = true
	}
	r := &Ring{cfg: cfg, switches: append([]packet.Addr(nil), switches...)}
	g := GroupID(0)
	for _, sw := range r.switches {
		for i := 0; i < cfg.VNodesPerSwitch; i++ {
			r.vnodes = append(r.vnodes, vnode{
				point: pointHash(cfg.Seed, sw, i),
				owner: sw,
				group: g,
			})
			g++
		}
	}
	r.nextGroup = g
	sort.Slice(r.vnodes, func(i, j int) bool {
		a, b := r.vnodes[i], r.vnodes[j]
		if a.point != b.point {
			return a.point < b.point
		}
		return a.group < b.group // deterministic tie-break
	})
	return r, nil
}

// Switches returns the ring membership.
func (r *Ring) Switches() []packet.Addr {
	return append([]packet.Addr(nil), r.switches...)
}

// Groups returns the total number of virtual groups.
func (r *Ring) Groups() int { return len(r.vnodes) }

// Replicas returns the chain length f+1.
func (r *Ring) Replicas() int { return r.cfg.Replicas }

// GroupForKey maps a key to the virtual group owning its ring segment.
func (r *Ring) GroupForKey(k kv.Key) GroupID {
	return r.vnodes[r.vnodeIndexForKey(k)].group
}

// ChainForKey returns the replica chain serving k.
func (r *Ring) ChainForKey(k kv.Key) Chain {
	return r.chainAt(r.vnodeIndexForKey(k))
}

// ChainForGroup returns the replica chain serving group g.
func (r *Ring) ChainForGroup(g GroupID) (Chain, error) {
	for i, v := range r.vnodes {
		if v.group == g {
			return r.chainAt(i), nil
		}
	}
	return Chain{}, fmt.Errorf("ring: unknown group %d", g)
}

// Chains enumerates every virtual group's chain, keyed by group id.
func (r *Ring) Chains() map[GroupID]Chain {
	out := make(map[GroupID]Chain, len(r.vnodes))
	for i := range r.vnodes {
		c := r.chainAt(i)
		out[c.Group] = c
	}
	return out
}

// GroupsOfSwitch returns every group whose chain includes sw — the groups
// affected when sw fails. With n switches and m virtual nodes the expected
// count is m(f+1)/n (§5.1).
func (r *Ring) GroupsOfSwitch(sw packet.Addr) []GroupID {
	var out []GroupID
	for i := range r.vnodes {
		c := r.chainAt(i)
		if c.Contains(sw) {
			out = append(out, c.Group)
		}
	}
	return out
}

// Reassign moves every virtual node owned by failed to replacement
// switches chosen by pick (called once per moved vnode; §5.2 assigns them
// randomly to spread recovery load). The failed switch leaves membership.
func (r *Ring) Reassign(failed packet.Addr, pick func(i int) packet.Addr) error {
	idx := -1
	for i, s := range r.switches {
		if s == failed {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("ring: switch %v is not a member", failed)
	}
	if len(r.switches)-1 < r.cfg.Replicas {
		return fmt.Errorf("ring: removing %v leaves %d switches for %d-replica chains",
			failed, len(r.switches)-1, r.cfg.Replicas)
	}
	r.switches = append(r.switches[:idx], r.switches[idx+1:]...)
	moved := 0
	for i := range r.vnodes {
		if r.vnodes[i].owner != failed {
			continue
		}
		nw := pick(moved)
		if nw == failed {
			return fmt.Errorf("ring: replacement for vnode %d is the failed switch", i)
		}
		ok := false
		for _, s := range r.switches {
			if s == nw {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("ring: replacement %v is not a live member", nw)
		}
		r.vnodes[i].owner = nw
		moved++
	}
	// Patch explicitly placed chains that included the failed switch: the
	// failed hop is replaced through the same pick function, retrying past
	// replacements already in the chain so hops stay distinct.
	for _, g := range r.placedGroups() {
		hops := r.placed[g]
		for hi, h := range hops {
			if h != failed {
				continue
			}
			var nw packet.Addr
			found := false
			for attempt := 0; attempt < 2*len(r.switches); attempt++ {
				cand := pick(moved)
				moved++
				if cand == failed {
					return fmt.Errorf("ring: replacement for placed group %d is the failed switch", g)
				}
				ok := false
				for _, s := range r.switches {
					if s == cand {
						ok = true
						break
					}
				}
				if !ok {
					return fmt.Errorf("ring: replacement %v for placed group %d is not a live member", cand, g)
				}
				dup := false
				for _, other := range hops {
					if other == cand {
						dup = true
						break
					}
				}
				if !dup {
					nw, found = cand, true
					break
				}
			}
			if !found {
				return fmt.Errorf("ring: no distinct replacement for placed group %d", g)
			}
			hops[hi] = nw
		}
	}
	return nil
}

// placedGroups returns the overridden group ids in ascending order so
// placement patching is deterministic.
func (r *Ring) placedGroups() []GroupID {
	out := make([]GroupID, 0, len(r.placed))
	for g := range r.placed {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddMember admits a switch into membership without assigning it virtual
// nodes: it becomes eligible as a reassignment target during failure
// recovery (the testbed's spare S3, §8.4) but owns no key ranges yet.
func (r *Ring) AddMember(sw packet.Addr) error {
	for _, s := range r.switches {
		if s == sw {
			return fmt.Errorf("ring: switch %v already a member", sw)
		}
	}
	r.switches = append(r.switches, sw)
	return nil
}

// IsMember reports whether sw is in the ring membership.
func (r *Ring) IsMember(sw packet.Addr) bool {
	for _, s := range r.switches {
		if s == sw {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Planned elastic reconfiguration: the scale-free half of the paper's title.
// Consistent hashing makes growth incremental (§4.1): adding a switch's
// virtual nodes splits existing ring segments, removing them merges segments
// into their successors — either way only the affected segments' key ranges
// move, and Diff names exactly which virtual groups must migrate.

// Delta records one virtual group's chain change across a Resize.
// Zero-length Old.Hops marks a group created by the resize (a new virtual
// node); zero-length New.Hops marks a group retired by it (its key range
// merged into the clockwise successor group).
type Delta struct {
	Group GroupID
	Old   Chain
	New   Chain
}

// Created reports whether the delta describes a brand-new group.
func (d Delta) Created() bool { return len(d.Old.Hops) == 0 }

// Retired reports whether the delta describes a removed group.
func (d Delta) Retired() bool { return len(d.New.Hops) == 0 }

// Diff summarizes a Resize: the membership change plus the per-group chain
// deltas the migration engine must execute. Groups absent from Deltas kept
// their chain bit-for-bit and need no data movement.
type Diff struct {
	Added   []packet.Addr
	Removed []packet.Addr
	Deltas  map[GroupID]Delta
}

// Groups returns the delta group ids in ascending order (deterministic
// migration schedules).
func (d Diff) Groups() []GroupID {
	out := make([]GroupID, 0, len(d.Deltas))
	for g := range d.Deltas {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Resize applies a planned membership change: switches in add join with
// their own virtual nodes (fresh group ids), switches in remove leave and
// their virtual nodes are deleted — the removed key ranges merge into the
// clockwise successor groups. It returns the Diff between the chain layouts
// before and after. The ring itself moves atomically; executing the data
// migration the Diff implies is the controller's job.
func (r *Ring) Resize(add, remove []packet.Addr) (Diff, error) {
	seen := make(map[packet.Addr]bool, len(add)+len(remove))
	for _, sw := range add {
		if seen[sw] {
			return Diff{}, fmt.Errorf("ring: duplicate switch %v in resize", sw)
		}
		seen[sw] = true
		if r.IsMember(sw) {
			return Diff{}, fmt.Errorf("ring: switch %v already a member", sw)
		}
	}
	for _, sw := range remove {
		if seen[sw] {
			return Diff{}, fmt.Errorf("ring: duplicate switch %v in resize", sw)
		}
		seen[sw] = true
		if !r.IsMember(sw) {
			return Diff{}, fmt.Errorf("ring: switch %v is not a member", sw)
		}
	}
	if n := len(r.switches) + len(add) - len(remove); n < r.cfg.Replicas {
		return Diff{}, fmt.Errorf("ring: resize leaves %d switches for %d-replica chains",
			n, r.cfg.Replicas)
	}
	if next := int(r.nextGroup) + len(add)*r.cfg.VNodesPerSwitch; next > int(MaxGroupID) {
		return Diff{}, fmt.Errorf("ring: resize would allocate group ids past %d "+
			"(the packet group field is 16 bits and ids are never reused); "+
			"rebuild the ring to compact ids", MaxGroupID)
	}
	before := r.Chains()

	removing := make(map[packet.Addr]bool, len(remove))
	for _, sw := range remove {
		removing[sw] = true
	}
	if len(remove) > 0 {
		kept := r.vnodes[:0]
		for _, v := range r.vnodes {
			if !removing[v.owner] {
				kept = append(kept, v)
			}
		}
		r.vnodes = kept
		members := r.switches[:0]
		for _, sw := range r.switches {
			if !removing[sw] {
				members = append(members, sw)
			}
		}
		r.switches = members
	}
	for _, sw := range add {
		r.switches = append(r.switches, sw)
		for i := 0; i < r.cfg.VNodesPerSwitch; i++ {
			r.vnodes = append(r.vnodes, vnode{
				point: pointHash(r.cfg.Seed, sw, i),
				owner: sw,
				group: r.nextGroup,
			})
			r.nextGroup++
		}
	}
	// Drop explicit placements the membership change invalidated: chains
	// naming a removed switch fall back to their hash-derived walk (the
	// migration engine then moves their data like any other delta), and
	// retired groups' overrides go with them.
	if len(r.placed) > 0 {
		alive := make(map[GroupID]bool, len(r.vnodes))
		for _, v := range r.vnodes {
			alive[v.group] = true
		}
		for g, hops := range r.placed {
			drop := !alive[g]
			for _, h := range hops {
				if removing[h] {
					drop = true
					break
				}
			}
			if drop {
				delete(r.placed, g)
			}
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool {
		a, b := r.vnodes[i], r.vnodes[j]
		if a.point != b.point {
			return a.point < b.point
		}
		return a.group < b.group
	})

	after := r.Chains()
	diff := Diff{
		Added:   append([]packet.Addr(nil), add...),
		Removed: append([]packet.Addr(nil), remove...),
		Deltas:  make(map[GroupID]Delta),
	}
	for g, old := range before {
		nw, ok := after[g]
		if !ok {
			diff.Deltas[g] = Delta{Group: g, Old: old, New: Chain{Group: g}}
			continue
		}
		if !old.Equal(nw) {
			diff.Deltas[g] = Delta{Group: g, Old: old, New: nw}
		}
	}
	for g, nw := range after {
		if _, ok := before[g]; !ok {
			diff.Deltas[g] = Delta{Group: g, Old: Chain{Group: g}, New: nw}
		}
	}
	return diff, nil
}

func (r *Ring) vnodeIndexForKey(k kv.Key) int {
	p := keyHash(r.cfg.Seed, k)
	// First vnode clockwise from p.
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].point >= p })
	if i == len(r.vnodes) {
		i = 0
	}
	return i
}

// SetPlacement overrides the hash-derived chains of the given groups with
// explicitly planned ones (the bottleneck-aware planner's output). Each
// chain must have exactly Replicas distinct hops, all current members,
// and each group must exist. Key→group mapping is unaffected: a key still
// hashes to its ring segment; only the chain serving that segment moves.
// Passing a group already overridden replaces its plan. The override
// survives until the group is patched by Reassign (member failure),
// dropped by Resize (member removal), or cleared by ClearPlacement.
func (r *Ring) SetPlacement(plans map[GroupID][]packet.Addr) error {
	known := make(map[GroupID]bool, len(r.vnodes))
	for _, v := range r.vnodes {
		known[v.group] = true
	}
	validated := make(map[GroupID][]packet.Addr, len(plans))
	for g, hops := range plans {
		if !known[g] {
			return fmt.Errorf("ring: placement for unknown group %d", g)
		}
		if len(hops) != r.cfg.Replicas {
			return fmt.Errorf("ring: placement for group %d has %d hops, want %d",
				g, len(hops), r.cfg.Replicas)
		}
		seen := make(map[packet.Addr]bool, len(hops))
		for _, h := range hops {
			if seen[h] {
				return fmt.Errorf("ring: placement for group %d repeats switch %v", g, h)
			}
			seen[h] = true
			if !r.IsMember(h) {
				return fmt.Errorf("ring: placement for group %d names non-member %v", g, h)
			}
		}
		validated[g] = append([]packet.Addr(nil), hops...)
	}
	if r.placed == nil {
		r.placed = make(map[GroupID][]packet.Addr, len(validated))
	}
	for g, hops := range validated {
		r.placed[g] = hops
	}
	return nil
}

// ClearPlacement removes the explicit placement of the given groups (all
// overrides when called with no arguments), returning them to their
// hash-derived chains.
func (r *Ring) ClearPlacement(groups ...GroupID) {
	if len(groups) == 0 {
		r.placed = nil
		return
	}
	for _, g := range groups {
		delete(r.placed, g)
	}
}

// Placed returns the explicitly placed chain of g, if any.
func (r *Ring) Placed(g GroupID) (Chain, bool) {
	hops, ok := r.placed[g]
	if !ok {
		return Chain{}, false
	}
	return Chain{Group: g, Hops: append([]packet.Addr(nil), hops...)}, true
}

// chainAt builds the chain anchored at vnode i: walk clockwise collecting
// the first Replicas *distinct* switches. When two subsequent virtual nodes
// live on the same switch the walk skips forward (§4.1). An explicit
// placement set via SetPlacement takes precedence over the walk.
func (r *Ring) chainAt(i int) Chain {
	if hops, ok := r.placed[r.vnodes[i].group]; ok {
		return Chain{Group: r.vnodes[i].group, Hops: append([]packet.Addr(nil), hops...)}
	}
	c := Chain{Group: r.vnodes[i].group}
	seen := make(map[packet.Addr]bool, r.cfg.Replicas)
	for j := 0; j < len(r.vnodes) && len(c.Hops) < r.cfg.Replicas; j++ {
		owner := r.vnodes[(i+j)%len(r.vnodes)].owner
		if seen[owner] {
			continue
		}
		seen[owner] = true
		c.Hops = append(c.Hops, owner)
	}
	return c
}

// pointHash places virtual node (sw, replica) on the ring.
func pointHash(seed uint64, sw packet.Addr, replica int) uint64 {
	h := fnv64(seed)
	h = fnv64Step(h, uint64(sw))
	h = fnv64Step(h, uint64(replica)+0x9e3779b97f4a7c15)
	return h
}

// keyHash places a key on the ring.
func keyHash(seed uint64, k kv.Key) uint64 {
	h := fnv64(seed)
	for i := 0; i < len(k); i += 8 {
		var v uint64
		for j := 0; j < 8; j++ {
			v = v<<8 | uint64(k[i+j])
		}
		h = fnv64Step(h, v)
	}
	return h
}

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func fnv64(seed uint64) uint64 {
	return fnv64Step(fnvOffset, seed)
}

func fnv64Step(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}
