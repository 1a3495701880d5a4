// Package core implements the NetChain switch dataplane (§4): Algorithm 1
// query processing over the swsim pipeline, sequence/session write
// ordering (§4.3, §5.2), compare-and-swap for locks (§8.5), and the
// neighbor failover rule table of Algorithm 2 (§5.1).
//
// The same Switch type runs inside the discrete-event simulator and behind
// a real UDP socket: both substrates hand every arriving *packet.Frame to
// Handle — the whole per-frame driver (local processing or transit, TTL,
// neighbor rules, the commit point) — and act on the Verdict it returns;
// neither substrate carries protocol logic of its own.
//
// Concurrency model (mirroring the paper's hardware split): reads are
// served straight out of the register arrays with no coordination — the
// seqlock fast path in swsim plus lock-free rule and match-table lookups
// mean a read never blocks behind a write and reads scale across cores.
// Writes, CAS and the per-key adjudication state shard onto per-virtual-
// group locks, so independent groups stamp concurrently; only writes to
// the same group serialize, which chain ordering requires anyway. Stats
// are atomic counters; the neighbor rule table is copy-on-write so
// control-plane updates and diagnostics never stall packet processing.
package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/swsim"
)

// Disposition tells the substrate what to do with a frame after the
// dataplane touched it.
type Disposition uint8

const (
	// Forward: send the frame toward its (possibly rewritten) IP
	// destination.
	Forward Disposition = iota
	// Drop: discard the frame (stale write, unmatched rule action, or a
	// recovery-phase stop rule).
	Drop
)

// Verdict is Handle's answer for one frame: forward it, or why it was
// dropped (the reasons are what the simulator's drop counters tell apart).
type Verdict uint8

const (
	VerdictForward   Verdict = iota // send toward the (possibly rewritten) IP destination
	VerdictStale                    // an ordered chain write older than the stored version (Fig. 5 fix)
	VerdictRuleDrop                 // a recovery stop rule (ActDrop) matched
	VerdictRouteDrop                // TTL expired, or addressed here on a port nothing listens on
	VerdictLocalDrop                // any other dataplane discard (a reply addressed to a switch)
)

// RuleAction is the action half of a neighbor rule (Algorithm 2 / §5.2).
type RuleAction uint8

const (
	// ActNextHop pops the next chain hop into the destination IP, or
	// replies to the client when the list is empty — the fast-failover
	// action of Algorithm 2.
	ActNextHop RuleAction = iota
	// ActDrop discards matching queries — phase 1 ("stop and
	// synchronization") of failure recovery, Algorithm 3.
	ActDrop
	// ActRedirect rewrites the destination to Rule.To — phase 2
	// ("activation") pointing traffic at the recovered replacement.
	ActRedirect
)

func (a RuleAction) String() string {
	switch a {
	case ActNextHop:
		return "next-hop"
	case ActDrop:
		return "drop"
	case ActRedirect:
		return "redirect"
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// Rule is a neighbor rule matching frames whose IP destination is a failed
// switch. Group-scoped rules take priority over the wildcard rule for the
// same destination, mirroring the paper's rule-priority override.
type Rule struct {
	Action RuleAction
	To     packet.Addr // redirect target for ActRedirect
}

// WildcardGroup matches every virtual group in InstallRule/RemoveRule.
const WildcardGroup = -1

// Item is one key-value record as moved by control-plane state sync
// (Algorithm 3 pre-sync; the paper's Thrift API to the switch agent).
type Item struct {
	Key       kv.Key
	Value     kv.Value
	Version   kv.Version
	Tombstone bool
}

// Stats counts dataplane activity. It is the switch's metrics ledger:
// each tagged field is one exported series (see telemetry.Registry.Export).
type Stats struct {
	Reads          uint64 `metric:"netchain_switch_reads_total" help:"read queries served here"`
	WritesHead     uint64 `metric:"netchain_switch_writes_head_total" help:"fresh writes stamped here as acting head"`
	WritesApply    uint64 `metric:"netchain_switch_writes_apply_total" help:"ordered writes applied here as replica or tail"`
	WritesStale    uint64 `metric:"netchain_switch_writes_stale_total" help:"ordered writes dropped as stale by the sequence check"`
	WritesReplayed uint64 `metric:"netchain_switch_writes_replayed_total" help:"duplicate fresh writes replayed idempotently at the head"`
	WritesFrozen   uint64 `metric:"netchain_switch_writes_frozen_total" help:"fresh writes bounced by a migration freeze"`
	CASFails       uint64 `metric:"netchain_switch_cas_fails_total" help:"compare-and-swaps rejected at the head"`
	Replies        uint64 `metric:"netchain_switch_replies_total" help:"replies emitted toward clients"`
	RuleHits       uint64 `metric:"netchain_switch_rule_hits_total" help:"frames rewritten or dropped by neighbor rules"`
	RuleDrops      uint64 `metric:"netchain_switch_rule_drops_total" help:"frames dropped by recovery stop rules"`
	NotFound       uint64 `metric:"netchain_switch_not_found_total" help:"queries for keys with no slot"`
	Transits       uint64 `metric:"netchain_switch_transits_total" help:"frames forwarded without local processing"`
	Processed      uint64 `metric:"netchain_switch_processed_total" help:"NetChain queries processed locally"`
	RouteDrops     uint64 `metric:"netchain_switch_route_drops_total" help:"frames dropped on TTL expiry or addressed here on a port nothing listens on"`
	LocalDrops     uint64 `metric:"netchain_switch_local_drops_total" help:"replies addressed to this switch, dropped"`
}

// counterStripes spreads the hot counters across independent cache lines:
// a contended fetch-add on one shared line would make every core's reads
// convoy on counter ping-pong, re-serializing the path the seqlock just
// freed. Stripes are picked from the frame pointer — each transport ingest
// goroutine decodes into its own frame, so concurrent goroutines land on
// different lines.
const counterStripes = 8

// counterStripe is one cache-line-padded bundle of the dataplane
// counters (15 × 8 B = 120, padded to 128).
type counterStripe struct {
	reads          atomic.Uint64
	writesHead     atomic.Uint64
	writesApply    atomic.Uint64
	writesStale    atomic.Uint64
	writesReplayed atomic.Uint64
	writesFrozen   atomic.Uint64
	casFails       atomic.Uint64
	replies        atomic.Uint64
	ruleHits       atomic.Uint64
	ruleDrops      atomic.Uint64
	notFound       atomic.Uint64
	transits       atomic.Uint64
	processed      atomic.Uint64
	pipePackets    atomic.Uint64
	pipePasses     atomic.Uint64
	_              [8]byte
}

// counters is the live, atomically-updated striped mirror of Stats: the
// read fast path bumps a stripe without any lock. Route and local drops
// are rare (no protocol path produces them), so they count outside the
// stripes and each stripe stays one 128-byte line.
type counters struct {
	stripes    [counterStripes]counterStripe
	routeDrops atomic.Uint64
	localDrops atomic.Uint64
}

// at picks the stripe for a frame. A frame's address is stable while a
// goroutine owns it, so each ingest goroutine effectively gets its own
// counter line; single-goroutine callers always hit the same stripe.
func (c *counters) at(f *packet.Frame) *counterStripe {
	return &c.stripes[(uintptr(unsafe.Pointer(f))>>7)%counterStripes]
}

func (c *counters) snapshot() Stats {
	var s Stats
	for i := range c.stripes {
		st := &c.stripes[i]
		s.Reads += st.reads.Load()
		s.WritesHead += st.writesHead.Load()
		s.WritesApply += st.writesApply.Load()
		s.WritesStale += st.writesStale.Load()
		s.WritesReplayed += st.writesReplayed.Load()
		s.WritesFrozen += st.writesFrozen.Load()
		s.CASFails += st.casFails.Load()
		s.Replies += st.replies.Load()
		s.RuleHits += st.ruleHits.Load()
		s.RuleDrops += st.ruleDrops.Load()
		s.NotFound += st.notFound.Load()
		s.Transits += st.transits.Load()
		s.Processed += st.processed.Load()
	}
	s.RouteDrops = c.routeDrops.Load()
	s.LocalDrops = c.localDrops.Load()
	return s
}

// pipeStats sums the striped packet/pass tallies (the recirculation
// accounting formerly kept inside the pipeline under its counters).
func (c *counters) pipeStats() (packets, passes uint64) {
	for i := range c.stripes {
		packets += c.stripes[i].pipePackets.Load()
		passes += c.stripes[i].pipePasses.Load()
	}
	return
}

// groupShards is the number of independent write locks virtual groups
// stripe onto; a power of two so group&(groupShards-1) picks a shard.
// Writes to different groups take different locks and stamp concurrently.
const groupShards = 32

// groupShard is the mutable per-group write state: session numbers,
// migration freezes, and the per-key duplicate-adjudication rings. All
// keys of one virtual group land in one shard, so the shard lock is the
// chain-ordering serialization point the protocol requires anyway.
type groupShard struct {
	mu        sync.Mutex
	sessions  map[uint16]uint32 // virtual group -> session stamped when acting head
	frozen    map[uint16]int    // virtual group -> nested serve-while-migrating write guards
	lastWrite map[kv.Key]*keyTags
	scratch   []byte // sameEffect's register snapshot, reused under mu
}

// ruleTable is the immutable published form of the neighbor rule table:
// dst -> group (or WildcardGroup) -> rule. Readers load the pointer and
// probe without locks; mutations clone-and-swap.
type ruleTable map[packet.Addr]map[int]Rule

// Switch is one NetChain switch's dataplane state. Methods are safe for
// concurrent use (the real UDP transport serves packets from one goroutine
// per ingest socket; the simulator is single-threaded and pays only
// uncontended-atomic costs).
type Switch struct {
	addr packet.Addr
	pipe *swsim.Pipeline
	cfg  swsim.Config // cached pipeline config (hot-path PassesFor)

	shards [groupShards]groupShard

	rulesMu sync.Mutex // serializes rule-table mutations (copy-on-write)
	rules   atomic.Pointer[ruleTable]

	stats counters
}

// writeTag identifies a client query the head adjudicated — IP source,
// UDP source port, the client-chosen query id from the NetChain header,
// and a hash of the raw value bytes (guarding against a client reusing a
// query id for a different query) — plus the pinned verdict. It is 40
// pointer-free bytes: source, port, op and verdict pack into one word
// the way an endpoint packs into a map key (host<<16 | port), and the
// value a CAS failure returned lives beside the tag (noEffectTags), so
// the collector has nothing to trace in a tag.
type writeTag struct {
	id      uint64 // (src<<16 | port)<<16 | op<<8 | verdict
	qid     uint64
	valHash uint64
	ver     kv.Version // tagApplied: the stamped version
}

// tagIdentity packs a query's source, port and op into a writeTag id with
// the verdict byte zero; tag ids compare against it with the verdict
// masked off.
func tagIdentity(src packet.Addr, port uint16, op kv.Op) uint64 {
	return (uint64(src)<<16|uint64(port))<<16 | uint64(op)<<8
}

func (t *writeTag) verdict() tagVerdict { return tagVerdict(t.id) }

func (t *writeTag) matches(identity, qid, valHash uint64) bool {
	return t.id&^0xff == identity && t.qid == qid && t.valHash == valHash
}

// tagVerdict is the pinned outcome of a head adjudication. Duplicates of
// the query repeat the verdict instead of re-adjudicating against later
// state — a non-idempotent decision (CAS, freeze bounce) re-made after
// the original reply returned could take effect outside the operation's
// real-time window.
type tagVerdict uint8

const (
	// tagApplied: the write was stamped as ver.
	tagApplied tagVerdict = iota
	// tagCASFail: the CAS lost against the value stored beside the tag.
	tagCASFail
	// tagRefused: bounced StatusUnavailable by a migration freeze.
	tagRefused
)

// writeTagDepth bounds the per-key duplicate-detection window — per
// verdict class: a duplicate arriving after more than this many
// intervening APPLIED writes (or, for no-effect verdicts, this many
// CAS-fail/refused adjudications) is indistinguishable from a fresh query
// and gets re-adjudicated (the paper's at-least-once retry semantics).
// The classes evict independently so a burst of failed lock acquires
// cannot push an applied write's tag out of its documented window, and
// each class is its own ring: a written key holds its four 40-byte
// applied tags in one 176-byte allocation (~230 B with its map entry,
// TestDedupFootprintPerKey), and only a key that ever refused a write or
// failed a CAS pays for the second ring.
const writeTagDepth = 4

// verdictRing holds the last writeTagDepth adjudications of one verdict
// class for a key, overwriting the oldest once full. The head pushes a
// tag only after both of the key's rings were searched for the query and
// held no tag for it, so a key never holds two tags for one query and no
// lookup depends on scan order: two per-class rings return exactly what
// one interleaved, newest-first ring with per-class eviction would
// (FuzzTagRingMatchesReference).
type verdictRing struct {
	tags    [writeTagDepth]writeTag
	n, next uint8
}

// push records tag, over the oldest entry once the ring is full, and
// returns the index it landed in.
func (r *verdictRing) push(tag writeTag) int {
	i := r.next
	r.tags[i] = tag
	r.next = (i + 1) % writeTagDepth
	if r.n < writeTagDepth {
		r.n++
	}
	return int(i)
}

// find returns the index of the query's tag, or -1.
func (r *verdictRing) find(identity, qid, valHash uint64) int {
	for i := range r.tags[:r.n] {
		if r.tags[i].matches(identity, qid, valHash) {
			return i
		}
	}
	return -1
}

// keyTags is a written key's duplicate-adjudication state: the applied
// verdicts inline, the no-effect verdicts (freeze refusals, CAS failures)
// in a second ring created the first time the key sees one. No
// allocation after the first write to a key (the dataplane hot path
// stays GC-quiet).
type keyTags struct {
	applied  verdictRing
	noEffect *noEffectTags // nil until the key's first no-effect verdict
}

// noEffectTags is a key's ring of no-effect verdicts, with the stored
// value each CAS failure returned kept beside its tag (nil for a refusal)
// so a replay returns the same bytes.
type noEffectTags struct {
	verdictRing
	stored [writeTagDepth]kv.Value
}

// find returns the pinned adjudication of the query with this identity,
// query id and raw-value hash, plus the stored value a CAS failure
// returned. A nil kt holds no tags.
func (kt *keyTags) find(identity, qid, valHash uint64) (tag writeTag, stored kv.Value, ok bool) {
	if kt == nil {
		return writeTag{}, nil, false
	}
	if i := kt.applied.find(identity, qid, valHash); i >= 0 {
		return kt.applied.tags[i], nil, true
	}
	if ne := kt.noEffect; ne != nil {
		if i := ne.find(identity, qid, valHash); i >= 0 {
			return ne.tags[i], ne.stored[i], true
		}
	}
	return writeTag{}, nil, false
}

// push records an adjudication in its class's ring; stored is the value a
// CAS failure returned.
func (kt *keyTags) push(tag writeTag, stored kv.Value) {
	if tag.verdict() == tagApplied {
		kt.applied.push(tag)
		return
	}
	if kt.noEffect == nil {
		kt.noEffect = new(noEffectTags)
	}
	kt.noEffect.stored[kt.noEffect.push(tag)] = stored
}

// tagHash fingerprints the raw packet value of a query (for CAS this
// includes the expected-owner prefix, so identity covers the full query).
func tagHash(b []byte) uint64 { return kv.HashBytes(b) }

// NewSwitch builds a switch dataplane with the given pipeline resources.
func NewSwitch(addr packet.Addr, cfg swsim.Config) (*Switch, error) {
	pipe, err := swsim.NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	s := &Switch{addr: addr, pipe: pipe, cfg: cfg}
	for i := range s.shards {
		s.shards[i].sessions = make(map[uint16]uint32)
		s.shards[i].frozen = make(map[uint16]int)
		s.shards[i].lastWrite = make(map[kv.Key]*keyTags)
	}
	empty := make(ruleTable)
	s.rules.Store(&empty)
	return s, nil
}

// Addr returns the switch's IP.
func (s *Switch) Addr() packet.Addr { return s.addr }

// shard returns the write shard owning a virtual group.
func (s *Switch) shard(group uint16) *groupShard {
	return &s.shards[group&(groupShards-1)]
}

// lockAll acquires every shard lock in index order — the control-plane
// "stop the world" used by operations that cannot name a single group
// (state sync by key, key GC). Dataplane writers hold exactly one shard
// lock and never a second, so the fixed order cannot deadlock.
func (s *Switch) lockAll() {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
}

func (s *Switch) unlockAll() {
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
}

// Stats returns a snapshot of the dataplane counters.
func (s *Switch) Stats() Stats { return s.stats.snapshot() }

// PassesFor returns how many pipeline passes a value of the given length
// costs on this switch (the simulator charges capacity accordingly, §6).
func (s *Switch) PassesFor(valueLen int) int {
	return s.pipe.Config().PassesFor(valueLen)
}

// PipelinePasses reports packets and pipeline passes consumed (for the
// recirculation ablation).
func (s *Switch) PipelinePasses() (packets, passes uint64) { return s.stats.pipeStats() }

// ItemCount returns the number of installed keys.
func (s *Switch) ItemCount() int { return s.pipe.ItemCount() }

// ---------------------------------------------------------------------------
// Dataplane: Algorithm 1.

// ProcessLocal handles a NetChain query addressed to this switch and
// returns the disposition plus the number of pipeline passes the packet
// consumed (≥1; recirculated big values cost more, §6). On Forward the
// frame has been rewritten in place: either retargeted at the next chain
// hop or turned into a reply to the client.
func (s *Switch) ProcessLocal(f *packet.Frame) (Disposition, int) {
	v, passes := s.local(f)
	if v != VerdictForward {
		return Drop, passes
	}
	return Forward, passes
}

func (s *Switch) local(f *packet.Frame) (Verdict, int) {
	if f.NC.Traced {
		return s.processLocalTraced(f)
	}
	return s.processLocal(f)
}

// Handle runs the per-frame driver both substrates share: a NetChain query
// addressed to this switch is processed locally, anything else transits;
// the TTL is spent; then the neighbor rules apply — and because a rule may
// retarget the frame at this very switch (the "N overlaps with S0" case of
// §5.1) the frame loops back through local processing, each ActNextHop
// consuming a chain hop so the loop terminates. On VerdictForward the frame
// has been rewritten in place and leaves toward f.IP.Dst.
//
// commit marks the chain-tail commit point of the push-watch pipeline: the
// frame's original opcode when this hop just turned a write-family query
// into an OK reply (replayed duplicates re-ack here too; subscribers
// suppress them by version), else an op for which IsMutation is false.
func (s *Switch) Handle(f *packet.Frame) (_ Verdict, commit kv.Op) {
	origOp := f.NC.Op
	if f.IP.Dst != s.addr {
		s.Transit(f)
	} else if v := s.deliver(f); v != VerdictForward {
		return v, 0
	}
	if f.IP.TTL == 0 {
		s.stats.routeDrops.Add(1)
		return VerdictRouteDrop, 0
	}
	f.IP.TTL--
	for hop := 0; hop <= packet.MaxChainHops; hop++ {
		if s.ApplyEgressRules(f) == Drop {
			return VerdictRuleDrop, 0
		}
		if f.IP.Dst != s.addr {
			break
		}
		if v := s.deliver(f); v != VerdictForward {
			return v, 0
		}
	}
	if f.NC.Op == kv.OpReply && f.NC.Status == kv.StatusOK && origOp.IsMutation() {
		commit = origOp
	}
	return VerdictForward, commit
}

// deliver runs local processing on a frame addressed to this switch; only
// the NetChain port has an application behind it.
func (s *Switch) deliver(f *packet.Frame) Verdict {
	if f.UDP.DstPort != packet.Port {
		s.stats.routeDrops.Add(1)
		return VerdictRouteDrop
	}
	v, _ := s.local(f)
	return v
}

// processLocalTraced wraps the dataplane with in-band telemetry stamping:
// it captures enough pre-state to classify the hop's chain role, runs the
// untouched fast path, and appends the hop record in place — the INT
// pattern of stamping metadata onto a packet the switch already forwards.
// Ingress defaults to the transport's receive stamp when one exists, so
// the record covers socket/dispatch queueing, not just register time.
func (s *Switch) processLocalTraced(f *packet.Frame) (Verdict, int) {
	origOp := f.NC.Op
	freshWrite := f.NC.Seq == 0 && f.NC.Session == 0
	ingress := f.TraceIngress
	if ingress == 0 {
		ingress = time.Now().UnixNano()
	}
	d, passes := s.processLocal(f)
	var stage packet.TraceStage
	switch {
	case origOp == kv.OpRead:
		stage = packet.StageRead
	case f.NC.Op == kv.OpReply:
		stage = packet.StageTail
	case freshWrite:
		stage = packet.StageHead
	default:
		stage = packet.StageMid
	}
	f.AppendTraceHop(packet.TraceHop{
		SwitchID:  uint32(s.addr),
		Stage:     stage,
		IngressNs: ingress,
		EgressNs:  time.Now().UnixNano(),
		Queue:     f.TraceQueue,
		Shard:     f.TraceShard,
	})
	return d, passes
}

func (s *Switch) processLocal(f *packet.Frame) (Verdict, int) {
	st := s.stats.at(f)
	st.processed.Add(1)
	passes := s.cfg.PassesFor(len(f.NC.Value))
	st.pipePackets.Add(1)
	st.pipePasses.Add(uint64(passes))

	switch f.NC.Op {
	case kv.OpRead:
		return s.processRead(f, st), passes
	case kv.OpWrite, kv.OpDelete, kv.OpCAS:
		return s.processWrite(f, st), passes
	case kv.OpReply:
		// A reply addressed to a switch is a routing anomaly; drop.
		s.stats.localDrops.Add(1)
		return VerdictLocalDrop, passes
	default:
		f.ToReply(kv.StatusBadRequest)
		st.replies.Add(1)
		return VerdictForward, passes
	}
}

// processRead serves a read (Algorithm 1 lines 2–4) and replies directly:
// whichever chain switch receives a read serves it — normally the tail;
// after fast failover, the hop the neighbor rule redirected to. The whole
// path is lock-free and allocation-free: match lookup on the immutable
// table, seqlock value snapshot into the frame's own buffer, atomic
// counters — a read never waits behind a write.
func (s *Switch) processRead(f *packet.Frame, st *counterStripe) Verdict {
	loc, ok := s.pipe.Lookup(f.NC.Key)
	if !ok {
		st.notFound.Add(1)
		f.ToReply(kv.StatusNotFound)
		st.replies.Add(1)
		return VerdictForward
	}
	// ReadLatestFor rechecks the slot's tenant inside the seqlock window:
	// if key GC raced us and the slot was reused, this is a clean miss,
	// never another key's value.
	val, ver, live := s.pipe.ReadLatestFor(f.NC.Key, loc, f.ValueScratch())
	if !live {
		st.notFound.Add(1)
		f.ToReply(kv.StatusNotFound)
		st.replies.Add(1)
		return VerdictForward
	}
	st.reads.Add(1)
	f.NC.Value = val
	f.NC.SetVersion(ver)
	f.ToReply(kv.StatusOK)
	st.replies.Add(1)
	return VerdictForward
}

// processWrite handles write, delete and CAS (Algorithm 1 lines 5–13 plus
// the §8.5 CAS extension). A zero version marks a fresh client query, so
// this switch acts as head: it stamps (session, seq) and, for CAS,
// adjudicates the swap. Non-zero versions are ordered updates flowing down
// the chain: applied iff newer than the stored version.
//
// The group's shard lock is taken before the match lookup: key GC
// (RemoveKey) holds every shard lock while it frees the slot, so a
// looked-up slot stays valid for this whole critical section.
func (s *Switch) processWrite(f *packet.Frame, st *counterStripe) Verdict {
	nc := &f.NC
	sh := s.shard(nc.Group)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	loc, ok := s.pipe.Lookup(nc.Key)
	if !ok {
		st.notFound.Add(1)
		f.ToReply(kv.StatusNotFound)
		st.replies.Add(1)
		return VerdictForward
	}

	if nc.Version().IsZero() {
		// Acting head. Serve-while-migrating guard: while the group's state
		// is being copied to a new chain, fresh writes must not be stamped —
		// they could land after the copy read their key and be lost at the
		// flip. Ordered writes (non-zero version, stamped before the freeze)
		// keep draining down the chain, and reads are untouched, so only the
		// migrating group briefly loses write availability (§5.2's per-group
		// window, applied to planned resize). The guard pairs with the
		// session bump: activation installs the new session on the new head
		// and lifts the freeze, so post-migration writes dominate anything
		// stamped before the stop.
		// Duplicate-delivery guard: if this exact client query (source,
		// port, query id, op, raw-value hash) was already adjudicated —
		// one of the last writeTagDepth verdicts for the key — the
		// network duplicated it (or the client retried after its reply
		// was lost). Repeat the pinned verdict instead of adjudicating
		// again: a fresh decision against later state would manufacture
		// a NEW version of an OLD value (resurrection), grant a CAS
		// outside its operation's window (ghost lock), or apply a write
		// whose original was refused by a freeze (untracked effect).
		// Checked before the freeze gate: verdicts replay as ordered
		// traffic, which a freeze never blocks.
		rawHash := tagHash(nc.Value)
		identity := tagIdentity(f.IP.Src, f.UDP.SrcPort, nc.Op)
		if tag, stored, ok := sh.lastWrite[nc.Key].find(identity, nc.QueryID, rawHash); ok {
			st.writesReplayed.Add(1)
			switch tag.verdict() {
			case tagCASFail:
				nc.Value = stored
				f.ToReply(kv.StatusCASFail)
				st.replies.Add(1)
				return VerdictForward
			case tagRefused:
				f.ToReply(kv.StatusUnavailable)
				st.replies.Add(1)
				return VerdictForward
			}
			if tag.ver == s.pipe.Version(loc) && sh.sameEffect(s.pipe, loc, nc) {
				// Still the latest write: replay the original stamp down
				// the chain so replicas that missed the first copy
				// converge and the tail re-acks.
				if nc.Op == kv.OpCAS {
					// The stored value is this CAS's new value; drop the
					// 8-byte expected-owner prefix so downstream
					// replicas apply what the original applied.
					nc.Value = nc.Value[8:]
				}
				nc.SetVersion(tag.ver)
			} else {
				// Superseded by later writes: forward the CURRENT stored
				// state under this query id — downstream replicas apply
				// or pass it (never regress), and the tail acks the
				// client only once it holds state at least as new as
				// what superseded the duplicate, so the ack can always
				// be linearized at the original stamp.
				val, live := s.pipe.ReadValue(loc)
				if live {
					nc.Op = kv.OpWrite
					nc.Value = val
				} else {
					nc.Op = kv.OpDelete
					nc.Value = nil
				}
				nc.SetVersion(s.pipe.Version(loc))
			}
			if next, ok := nc.PopChain(); ok {
				f.Retarget(next)
				return VerdictForward
			}
			f.ToReply(kv.StatusOK)
			st.replies.Add(1)
			return VerdictForward
		}
		if sh.frozen[nc.Group] > 0 {
			st.writesFrozen.Add(1)
			// Pin the refusal: a duplicate arriving after the thaw must
			// not be stamped — its original reported "no effect".
			sh.pushTag(nc.Key, writeTag{
				id: identity | uint64(tagRefused), qid: nc.QueryID, valHash: rawHash,
			}, nil)
			f.ToReply(kv.StatusUnavailable)
			st.replies.Add(1)
			return VerdictForward
		}
		if nc.Op == kv.OpCAS {
			newVal, stored, ok := s.casApplies(loc, nc.Value)
			if !ok {
				st.casFails.Add(1)
				// Pin the verdict so a duplicate of this query repeats
				// it instead of re-adjudicating against later state.
				sh.pushTag(nc.Key, writeTag{
					id: identity | uint64(tagCASFail), qid: nc.QueryID, valHash: rawHash,
				}, stored)
				// Return the stored value so a client whose successful CAS
				// reply was lost can recognize its own ownership on retry
				// (retries must stay benign, §4.3).
				nc.Value = stored
				f.ToReply(kv.StatusCASFail)
				st.replies.Add(1)
				return VerdictForward
			}
			// Forward only the new value; downstream replicas apply it as
			// an ordered write.
			nc.Value = newVal
		}
		stored := s.pipe.Version(loc)
		v := kv.Version{Session: sh.sessions[nc.Group], Seq: stored.Seq + 1}
		nc.SetVersion(v)
		s.apply(loc, nc)
		sh.pushTag(nc.Key, writeTag{
			id: identity | uint64(tagApplied), qid: nc.QueryID, valHash: rawHash, ver: v,
		}, nil)
		st.writesHead.Add(1)
	} else {
		// Replica or tail: apply only newer versions (Fig. 5 fix). An
		// EQUAL version is not stale — it is a replay of the exact write
		// already applied here (a network duplicate, or the head
		// re-forwarding after a lost reply): pass it through without
		// re-applying, so replicas downstream that missed the first copy
		// still converge and the tail re-acks the client. Only strictly
		// older versions drop.
		switch cur := s.pipe.Version(loc); {
		case cur.Less(nc.Version()):
			s.apply(loc, nc)
			st.writesApply.Add(1)
		case cur == nc.Version():
			st.writesReplayed.Add(1)
		default:
			st.writesStale.Add(1)
			return VerdictStale
		}
	}

	if next, ok := nc.PopChain(); ok {
		f.Retarget(next)
		return VerdictForward
	}
	// Tail: reply to the client.
	f.ToReply(kv.StatusOK)
	st.replies.Add(1)
	return VerdictForward
}

// pushTag records an adjudication in the key's duplicate-detection rings;
// stored is the value a CAS failure returned. Caller holds the shard lock.
func (sh *groupShard) pushTag(k kv.Key, tag writeTag, stored kv.Value) {
	kt := sh.lastWrite[k]
	if kt == nil {
		kt = new(keyTags)
		sh.lastWrite[k] = kt
	}
	kt.push(tag, stored)
}

// sameEffect reports whether the stored state at loc is exactly what the
// query nc would produce — the final check before treating a fresh write
// as a duplicate of the one that produced the stored version. Identity
// fields (source, port, query id, op) can collide if a client reuses a
// query id; the stored bytes cannot. The snapshot lands in the shard's
// scratch buffer, so a replayed duplicate allocates nothing. Caller holds
// the shard lock.
func (sh *groupShard) sameEffect(pipe *swsim.Pipeline, loc int, nc *packet.NetChain) bool {
	val, _, live := pipe.ReadLatest(loc, &sh.scratch)
	switch nc.Op {
	case kv.OpDelete:
		return !live
	case kv.OpCAS:
		return live && len(nc.Value) >= 8 && string(val) == string(nc.Value[8:])
	default:
		return live && string(val) == string(nc.Value)
	}
}

// casApplies evaluates a compare-and-swap at the head. The packet value is
// laid out as [8-byte expected owner][new value]; the stored value's first
// 8 bytes are the current owner (0 when absent or tombstoned). It returns
// the new value to propagate, the currently stored value, and whether the
// swap applies.
func (s *Switch) casApplies(loc int, casVal []byte) (newVal, stored kv.Value, ok bool) {
	cur, live := s.pipe.ReadValue(loc)
	if !live {
		cur = nil
	}
	if len(casVal) < 8 {
		return nil, cur, false
	}
	expect := binary.BigEndian.Uint64(casVal[:8])
	var owner uint64
	if len(cur) >= 8 {
		owner = binary.BigEndian.Uint64(cur[:8])
	}
	if owner != expect {
		return nil, cur, false
	}
	return kv.Value(casVal[8:]), cur, true
}

// apply commits the packet's operation to the pipeline at loc in one
// seqlock critical section (value + version + liveness together, so
// lock-free readers always snapshot a committed state).
func (s *Switch) apply(loc int, nc *packet.NetChain) {
	if err := s.pipe.Commit(loc, nc.Value, nc.Version(), nc.Op == kv.OpDelete); err != nil {
		// Commit only fails for oversized values, which the client rejects
		// before sending; a malformed oversized packet is treated as a
		// no-op on the value but still advances the version so the chain
		// stays convergent.
		s.pipe.SetVersion(loc, nc.Version())
	}
}

// ---------------------------------------------------------------------------
// Neighbor rules: Algorithm 2 and the recovery phases of Algorithm 3.

// ApplyEgressRules checks a frame that this switch is about to forward
// (either transit traffic or its own output) against the neighbor rule
// table. It returns Drop for recovery stop rules; otherwise the frame may
// have been rewritten in place. Lock-free: the rule table is an immutable
// snapshot swapped atomically by the control plane.
func (s *Switch) ApplyEgressRules(f *packet.Frame) Disposition {
	st := s.stats.at(f)
	rt := *s.rules.Load()
	byGroup, ok := rt[f.IP.Dst]
	if !ok {
		return Forward
	}
	// Only NetChain queries are subject to chain rules.
	if f.UDP.DstPort != packet.Port {
		return Forward
	}
	rule, ok := byGroup[int(f.NC.Group)]
	if !ok {
		if rule, ok = byGroup[WildcardGroup]; !ok {
			return Forward
		}
	}
	st.ruleHits.Add(1)
	switch rule.Action {
	case ActDrop:
		st.ruleDrops.Add(1)
		return Drop
	case ActRedirect:
		f.Retarget(rule.To)
		return Forward
	case ActNextHop:
		if next, ok := f.NC.PopChain(); ok {
			f.Retarget(next)
			return Forward
		}
		// The failed switch was the packet's final chain hop. For a write
		// the predecessors already applied it: complete the query on the
		// chain's behalf. For a read nothing can serve it (every listed
		// hop is gone): report unavailable.
		status := kv.StatusOK
		if f.NC.Op == kv.OpRead {
			status = kv.StatusUnavailable
		}
		f.ToReply(status)
		st.replies.Add(1)
		return Forward
	default:
		return Drop
	}
}

// Transit records a plain forwarding traversal of f (for switch-capacity
// accounting in the simulator). The stripe comes from the frame so
// concurrent forwarding workers do not convoy on one counter line.
func (s *Switch) Transit(f *packet.Frame) {
	s.stats.at(f).transits.Add(1)
	if f.NC.Traced {
		now := time.Now().UnixNano()
		ingress := f.TraceIngress
		if ingress == 0 {
			ingress = now
		}
		f.AppendTraceHop(packet.TraceHop{
			SwitchID:  uint32(s.addr),
			Stage:     packet.StageTransit,
			IngressNs: ingress,
			EgressNs:  now,
			Queue:     f.TraceQueue,
			Shard:     f.TraceShard,
		})
	}
}

// cloneRules deep-copies the published rule table for mutation.
func (s *Switch) cloneRules() ruleTable {
	cur := *s.rules.Load()
	out := make(ruleTable, len(cur)+1)
	for dst, byGroup := range cur {
		m := make(map[int]Rule, len(byGroup)+1)
		for g, r := range byGroup {
			m[g] = r
		}
		out[dst] = m
	}
	return out
}

// InstallRule adds or replaces the rule for (dst, group). group may be
// WildcardGroup. This is the control-plane path of Algorithms 2 and 3.
func (s *Switch) InstallRule(dst packet.Addr, group int, r Rule) {
	s.rulesMu.Lock()
	defer s.rulesMu.Unlock()
	next := s.cloneRules()
	byGroup, ok := next[dst]
	if !ok {
		byGroup = make(map[int]Rule, 1)
		next[dst] = byGroup
	}
	byGroup[group] = r
	s.rules.Store(&next)
}

// RemoveRule deletes the rule for (dst, group) if present.
func (s *Switch) RemoveRule(dst packet.Addr, group int) {
	s.rulesMu.Lock()
	defer s.rulesMu.Unlock()
	next := s.cloneRules()
	if byGroup, ok := next[dst]; ok {
		delete(byGroup, group)
		if len(byGroup) == 0 {
			delete(next, dst)
		}
	}
	s.rules.Store(&next)
}

// Rules snapshots the rule table (diagnostics, tests). The copy is made
// from the immutable published table without taking any dataplane lock,
// so a controller reading rules never stalls packet processing.
func (s *Switch) Rules() map[packet.Addr]map[int]Rule {
	cur := *s.rules.Load()
	out := make(map[packet.Addr]map[int]Rule, len(cur))
	for dst, byGroup := range cur {
		m := make(map[int]Rule, len(byGroup))
		for g, r := range byGroup {
			m[g] = r
		}
		out[dst] = m
	}
	return out
}

// ---------------------------------------------------------------------------
// Control-plane state access (the paper's switch-agent Thrift API, §7).

// InstallKey allocates a slot for k (Insert step 1, §4.1). The slot is
// published to the dataplane by the match-table install, already reset.
func (s *Switch) InstallKey(k kv.Key) error {
	_, err := s.pipe.Alloc(k)
	return err
}

// InstallKeys is InstallKey over a batch: every key is attempted and the
// first failure is returned, so one already-present key does not keep the
// rest of a state copy from getting their slots.
func (s *Switch) InstallKeys(keys []kv.Key) error {
	var first error
	for _, k := range keys {
		if err := s.InstallKey(k); err != nil && first == nil {
			first = fmt.Errorf("install %v: %w", k, err)
		}
	}
	return first
}

// RemoveKey frees k's slot (Delete garbage collection, §4.1). It holds
// every group shard lock so no in-flight write can commit to the slot
// after it returns to the free list.
func (s *Switch) RemoveKey(k kv.Key) error {
	s.lockAll()
	defer s.unlockAll()
	return s.removeKeyLocked(k)
}

// RemoveKeys is RemoveKey over a batch under one lockAll: every key is
// attempted and the first failure is returned.
func (s *Switch) RemoveKeys(keys []kv.Key) error {
	s.lockAll()
	defer s.unlockAll()
	var first error
	for _, k := range keys {
		if err := s.removeKeyLocked(k); err != nil && first == nil {
			first = fmt.Errorf("remove %v: %w", k, err)
		}
	}
	return first
}

func (s *Switch) removeKeyLocked(k kv.Key) error {
	for i := range s.shards {
		delete(s.shards[i].lastWrite, k)
	}
	return s.pipe.Free(k)
}

// HasKey reports whether k has a slot.
func (s *Switch) HasKey(k kv.Key) bool {
	_, ok := s.pipe.Lookup(k)
	return ok
}

// SetSession installs the session number this switch stamps on fresh
// writes of the given virtual group when acting as head (§5.2: bumped by
// the controller on every head change).
func (s *Switch) SetSession(group uint16, session uint32) {
	sh := s.shard(group)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.sessions[group] = session
}

// Session returns the current session for a group.
func (s *Switch) Session(group uint16) uint32 {
	sh := s.shard(group)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sessions[group]
}

// SetWriteFreeze installs or lifts the serve-while-migrating guard for a
// virtual group (phase 1 of a planned migration): while frozen, this switch
// refuses to stamp fresh writes for the group (clients get
// StatusUnavailable and retry after activation) but keeps applying ordered
// chain writes and serving reads. Guards nest: consecutive migrations may
// freeze the same group with overlapping lifetimes (a donor chain thaws one
// rule-delay late), so each true increments a count and each false
// decrements it — the group serves writes again only when every freeze has
// been lifted, regardless of delivery order.
func (s *Switch) SetWriteFreeze(group uint16, frozen bool) {
	sh := s.shard(group)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if frozen {
		sh.frozen[group]++
		return
	}
	if sh.frozen[group] > 1 {
		sh.frozen[group]--
	} else {
		delete(sh.frozen, group)
	}
}

// WriteFrozen reports whether the group's migration guard is up.
func (s *Switch) WriteFrozen(group uint16) bool {
	sh := s.shard(group)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.frozen[group] > 0
}

// ReadItem dumps one record for state sync. Lock-free: the seqlock
// snapshot gives a consistent (value, version, liveness) triple.
func (s *Switch) ReadItem(k kv.Key) (Item, error) {
	loc, ok := s.pipe.Lookup(k)
	if !ok {
		return Item{}, kv.ErrNotFound
	}
	var buf []byte
	val, ver, live := s.pipe.ReadLatestFor(k, loc, &buf)
	return Item{Key: k, Value: val, Version: ver, Tombstone: !live}, nil
}

// ReadItems dumps the records of keys for state sync: the items found, in
// the order asked, and the keys that hold no slot here. Like ReadItem it
// takes no lock — each item is its own consistent snapshot, and the group
// being copied is write-frozen by the caller.
func (s *Switch) ReadItems(keys []kv.Key) (items []Item, missing []kv.Key) {
	items = make([]Item, 0, len(keys))
	for _, k := range keys {
		it, err := s.ReadItem(k)
		if err != nil {
			missing = append(missing, k)
			continue
		}
		items = append(items, it)
	}
	return items, missing
}

// WriteItem installs one record during state sync, allocating the slot if
// needed. Unlike dataplane writes it copies the version verbatim and only
// moves forward: an item older than the stored version is ignored so a
// sync never regresses state that concurrent chain writes advanced. It
// holds every shard lock — sync cannot name a single group, and the
// version check plus commit must be atomic against dataplane writers.
func (s *Switch) WriteItem(it Item) error {
	s.lockAll()
	defer s.unlockAll()
	return s.writeItemLocked(it)
}

// WriteItems is WriteItem over a batch under one lockAll (a group's state
// copy stops the dataplane once, not once per key): every item is
// attempted and the first failure is returned.
func (s *Switch) WriteItems(items []Item) error {
	s.lockAll()
	defer s.unlockAll()
	var first error
	for _, it := range items {
		if err := s.writeItemLocked(it); err != nil && first == nil {
			first = fmt.Errorf("write %v: %w", it.Key, err)
		}
	}
	return first
}

func (s *Switch) writeItemLocked(it Item) error {
	loc, ok := s.pipe.Lookup(it.Key)
	if !ok {
		var err error
		if loc, err = s.pipe.Alloc(it.Key); err != nil {
			return err
		}
	}
	if cur := s.pipe.Version(loc); !cur.Less(it.Version) && cur != (kv.Version{}) {
		return nil
	}
	return s.pipe.Commit(loc, it.Value, it.Version, it.Tombstone)
}

// Keys lists installed keys (control-plane sync enumeration).
func (s *Switch) Keys() []kv.Key { return s.pipe.Keys() }

// MemoryBytes reports value storage in use (§6 accounting).
func (s *Switch) MemoryBytes() int { return s.pipe.MemoryBytes() }

// ResidentBytes reports the process memory the switch's register file
// occupies (swsim.Pipeline.ResidentBytes): it follows the keys installed,
// not the configured slot count.
func (s *Switch) ResidentBytes() int { return s.pipe.ResidentBytes() }
