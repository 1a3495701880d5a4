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
// Core is the relay's whole engine and does no I/O: dedup, sequencing,
// epoch stamping and the unicast lease table. The real Server (UDP, batch
// I/O), the simulator's relay host and the watch-scale experiment only
// drive it, and FanOutFrame builds what each of them sends.
package relay

import (
	"net"
	"sync"
	"time"

	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
)

// DefaultLeaseTTL is how long a unicast subscription lives without
// renewal; subscriber connections renew at a third of it.
const DefaultLeaseTTL = 30 * time.Second

// Core assigns per-group stream sequences to fresh events, suppresses
// duplicate publications and keeps the unicast subscribers' leases. Its
// times are durations on the caller's clock (an event.Clock). Safe for
// concurrent use.
type Core struct {
	epoch uint16
	ttl   time.Duration

	mu     sync.Mutex
	groups map[uint16]*group
	stats  CoreStats
}

// group is one virtual group's stream: its sequence, the newest version
// published per key, and the leases subscribed to it.
type group struct {
	seq    uint64
	last   map[kv.Key]kv.Version
	leases map[uint64]*lease // endpoint key → lease
}

type lease struct {
	ep      *net.UDPAddr // stable pointer: egress coalescing keys on it
	expires time.Duration
}

// CoreStats counts the sequencer's traffic.
type CoreStats struct {
	EventsIn  uint64 `metric:"netchain_relay_events_in_total" help:"event frames ingested from tail agents"`
	EventsDup uint64 `metric:"netchain_relay_events_dup_total" help:"ingested events suppressed as duplicates (version not newer)"`
	EventsOut uint64 `metric:"netchain_relay_events_out_total" help:"fresh events sequenced for fan-out"`
}

// NewCore builds an empty engine that stamps epoch on every event it
// sequences (0 means no epoch) and grants leases of leaseTTL (0 selects
// DefaultLeaseTTL).
func NewCore(epoch uint16, leaseTTL time.Duration) *Core {
	if leaseTTL <= 0 {
		leaseTTL = DefaultLeaseTTL
	}
	return &Core{epoch: epoch, ttl: leaseTTL, groups: make(map[uint16]*group)}
}

// groupLocked returns group g's stream, creating it. The caller holds c.mu.
func (c *Core) groupLocked(g uint16) *group {
	gr := c.groups[g]
	if gr == nil {
		gr = &group{last: make(map[kv.Key]kv.Version), leases: make(map[uint64]*lease)}
		c.groups[g] = gr
	}
	return gr
}

// Publish processes one event from a tail agent at time now. A fresh one
// (version newer than the key's last published) gets its group's next
// stream sequence and the Core's epoch, and the group's live lease
// endpoints are appended to to; a duplicate returns fresh=false. The
// per-key version table is bounded by the store's key population.
func (c *Core) Publish(ev *query.Event, now time.Duration, to []*net.UDPAddr) (_ []*net.UDPAddr, fresh bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.EventsIn++
	g := c.groupLocked(ev.Group)
	if last, seen := g.last[ev.Key]; seen && !last.Less(ev.Version) {
		c.stats.EventsDup++
		return to, false
	}
	g.last[ev.Key] = ev.Version
	g.seq++
	c.stats.EventsOut++
	ev.StreamSeq, ev.Epoch = g.seq, c.epoch
	return g.live(now, to), true
}

// live appends g's endpoints leased at now to to and drops expired leases.
func (g *group) live(now time.Duration, to []*net.UDPAddr) []*net.UDPAddr {
	for k, l := range g.leases {
		if now > l.expires {
			delete(g.leases, k)
			continue
		}
		to = append(to, l.ep)
	}
	return to
}

// Subscribe registers (or renews) a lease for src on each listed group,
// live until now plus the lease TTL. The lease's endpoint records src's
// host with the event delivery port: the subscriber receives events on
// the same socket it controls from.
func (c *Core) Subscribe(src *net.UDPAddr, groups []uint16, now time.Duration) {
	exp := now + c.ttl
	key := epKey(src)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, gid := range groups {
		g := c.groupLocked(gid)
		l := g.leases[key]
		if l == nil {
			l = &lease{ep: &net.UDPAddr{IP: append(net.IP(nil), src.IP...), Port: src.Port}}
			g.leases[key] = l
		}
		l.expires = exp
	}
}

// Unsubscribe drops src's lease on each listed group.
func (c *Core) Unsubscribe(src *net.UDPAddr, groups []uint16) {
	key := epKey(src)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, gid := range groups {
		if g := c.groups[gid]; g != nil {
			delete(g.leases, key)
		}
	}
}

// Subscribers counts the leases live at now, pruning the expired ones, so
// a subscriber that died without unsubscribing stops counting once its
// lease runs out, whether or not its groups see traffic.
func (c *Core) Subscribers(now time.Duration) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var live []*net.UDPAddr
	for _, g := range c.groups {
		live = g.live(now, live)
	}
	return len(live)
}

// Stats snapshots the counters.
func (c *Core) Stats() CoreStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// FanOutFrame assembles the fan-out frame of a sequenced event into f:
// from the relay's virtual address src to ev's group address, on dstPort
// (McastPort for multicast, the subscriber's port for a unicast lease).
func FanOutFrame(f *packet.Frame, src packet.Addr, ev query.Event, dstPort uint16) *packet.Frame {
	return query.EventInto(f, src, GroupAddr(ev.Group), packet.Port, dstPort, ev)
}
