// Package relay implements the push-watch fan-out tier: switches (via
// their co-located transport agents) publish one OpEvent frame per applied
// mutation, and the relay stamps each fresh event with a per-virtual-group
// stream sequence and fans it out to subscribers — over UDP multicast
// groups keyed by virtual group, or unicast to leased subscriber endpoints
// on networks without multicast. Notification cost is therefore
// independent of subscriber count: one mutation is one ingest frame and,
// under multicast, one egress datagram per group, however many clients
// watch it.
//
// The stream sequence is the subscriber's loss detector: a hole in a
// group's sequence means events were dropped in flight, and the
// subscriber's watch engine (internal/watch.Sub) falls back to versioned
// reads against the store to resynchronize. Duplicates — tail re-acks of
// replayed writes, retransmitted frames — are suppressed twice: by the
// relay's per-key version table, and again by the subscriber's version
// order.
//
// Core is the substrate-neutral sequencing/dedup engine shared by the real
// Server (UDP, batch I/O) and the simulator's relay host.
package relay

import (
	"sync"

	"netchain/internal/kv"
	"netchain/internal/query"
)

// Core assigns per-group stream sequences to fresh events and suppresses
// duplicate publications. Safe for concurrent use.
type Core struct {
	mu     sync.Mutex
	groups map[uint16]*groupSeq
	stats  CoreStats
}

type groupSeq struct {
	seq  uint64
	last map[kv.Key]kv.Version
}

// CoreStats counts the sequencer's traffic.
type CoreStats struct {
	EventsIn  uint64 `metric:"netchain_relay_events_in_total" help:"event frames ingested from tail agents"`
	EventsDup uint64 `metric:"netchain_relay_events_dup_total" help:"ingested events suppressed as duplicates (version not newer)"`
	EventsOut uint64 `metric:"netchain_relay_events_out_total" help:"fresh events sequenced for fan-out"`
}

// NewCore builds an empty sequencer.
func NewCore() *Core {
	return &Core{groups: make(map[uint16]*groupSeq)}
}

// Ingest processes one event from a tail agent. Fresh events (version
// strictly newer than the last published one for the key) are assigned
// the group's next stream sequence and must be fanned out; duplicates
// return ok=false and are dropped. The per-key version table is bounded
// by the store's key population — the same bound the switches' own
// register arrays live under.
func (c *Core) Ingest(ev query.Event) (seq uint64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.EventsIn++
	g := c.groups[ev.Group]
	if g == nil {
		g = &groupSeq{last: make(map[kv.Key]kv.Version)}
		c.groups[ev.Group] = g
	}
	if last, seen := g.last[ev.Key]; seen && !last.Less(ev.Version) {
		c.stats.EventsDup++
		return 0, false
	}
	g.last[ev.Key] = ev.Version
	g.seq++
	c.stats.EventsOut++
	return g.seq, true
}

// Stats snapshots the counters.
func (c *Core) Stats() CoreStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
