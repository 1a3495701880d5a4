// Nemesis: the adversarial half of the network model. The paper evaluates
// NetChain under uniform packet loss (Fig. 9(d)) and clean fail-stop
// switch failures (Figs. 10–11); the protocol's safety argument, however,
// rests on ordering and session invariants that only bite under
// reordering, duplication and asymmetric reachability. This file adds
// those conditions as first-class, deterministically seeded faults:
//
//   - LinkFault: per-directed-link drop, duplication, jitter and
//     reordering hold-back, installable on one link or cluster-wide;
//   - AsymPartition: asymmetric src→dst reachability loss (A→B
//     delivered, B→A dropped — the classic half-open failure);
//   - Gray: a switch that stays alive and routed-through but serves
//     slowly and lossily — the worst case for failure detection, since
//     fail-stop detectors never fire;
//   - Schedule: a declarative timeline of inject/heal steps executed
//     on the event simulator's clock (or the wire's), so a scenario like
//     "partition S1→S2 for 3 ms with 2% duplication cluster-wide" is a
//     table, not test code.
//
// Faults is the state these steps build and Target the substrate they
// act on; the wire injector (internal/faultconn) is a second Target, so
// one Schedule runs through the same inject/heal rules on both, timed by
// one RunSchedule on either substrate's event.Clock.
//
// All randomness flows through the Network's seeded rng, so a schedule
// replayed with the same seed produces byte-identical drop/dup/reorder
// counters and delivery order (pinned by TestNemesisDeterminism).
package netsim

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"netchain/internal/event"
	"netchain/internal/packet"
)

// LinkFault describes adversarial behavior of one direction of a link.
// Probabilities are per-frame; zero values mean "healthy".
type LinkFault struct {
	// Drop is the probability a frame is silently discarded.
	Drop float64
	// Dup is the probability an extra copy of the frame is delivered.
	// The copy is a deep clone (the dataplane rewrites frames in place)
	// arriving DupDelay after the original (one link latency if zero).
	Dup      float64
	DupDelay event.Time
	// Jitter adds a uniform extra delay in [0, Jitter] to every frame —
	// enough overlap between consecutive frames causes reordering.
	Jitter event.Time
	// Reorder is the probability a frame is held back by ReorderDelay
	// (8x the link latency if zero), letting later frames overtake it.
	Reorder      float64
	ReorderDelay event.Time
	// BurstEvery/BurstFor model bursty loss: every BurstEvery of link
	// time, the link goes totally dark for BurstFor (phase-aligned to
	// t=0). The windows are a pure function of the clock — no rng draws —
	// so adding a burst never perturbs the drop/dup/reorder decision
	// stream of a seeded run.
	BurstEvery event.Time
	BurstFor   event.Time
}

// active reports whether the fault perturbs anything.
func (f LinkFault) active() bool {
	return f.Drop > 0 || f.Dup > 0 || f.Jitter > 0 || f.Reorder > 0 ||
		(f.BurstEvery > 0 && f.BurstFor > 0)
}

// inBurst reports whether now falls inside a burst-loss window.
func (f LinkFault) inBurst(now event.Time) bool {
	return f.BurstEvery > 0 && f.BurstFor > 0 && now%f.BurstEvery < f.BurstFor
}

// merge combines two faults acting on the same traversal: drop/dup/reorder
// probabilities compose as independent events, delays take the maximum.
func (f LinkFault) merge(g LinkFault) LinkFault {
	or := func(a, b float64) float64 { return 1 - (1-a)*(1-b) }
	max := func(a, b event.Time) event.Time {
		if a > b {
			return a
		}
		return b
	}
	out := LinkFault{
		Drop:         or(f.Drop, g.Drop),
		Dup:          or(f.Dup, g.Dup),
		DupDelay:     max(f.DupDelay, g.DupDelay),
		Jitter:       max(f.Jitter, g.Jitter),
		Reorder:      or(f.Reorder, g.Reorder),
		ReorderDelay: max(f.ReorderDelay, g.ReorderDelay),
		BurstEvery:   f.BurstEvery,
		BurstFor:     f.BurstFor,
	}
	// Burst windows don't compose as probabilities; the per-link burst
	// wins, a cluster-wide one applies where no per-link burst exists.
	if out.BurstEvery == 0 || out.BurstFor == 0 {
		out.BurstEvery, out.BurstFor = g.BurstEvery, g.BurstFor
	}
	return out
}

// Active reports whether the fault perturbs anything.
func (f LinkFault) Active() bool { return f.active() }

// FaultDecision is the outcome of applying a LinkFault to one frame
// traversal. Delays are in the fault's own time base (simulated
// nanoseconds); wire appliers scale them to wall clock.
type FaultDecision struct {
	Drop      bool
	Burst     bool       // Drop came from a burst-loss window
	Delay     event.Time // extra delay added to the traversal (jitter + hold-back)
	Reordered bool
	Dup       bool
	DupDelay  event.Time // duplicate's extra delay past the original's Delay
}

// Decide draws the fault outcome for one traversal of a faulty link.
// This is the single decision core shared by the simulator's transmit
// path and the wire-side injector (internal/faultconn): the check order
// and the rng draw order are load-bearing. Burst windows are consulted
// first (clock-driven, no draw), then Drop, Jitter, Reorder and Dup draw
// from rng in exactly this sequence — TestNemesisDeterminism pins the
// resulting sim fingerprints and FuzzScheduleWire pins sim/wire parity,
// so any reordering here is a breaking change to both.
func (f LinkFault) Decide(rng *rand.Rand, now, lat event.Time) (d FaultDecision) {
	if f.inBurst(now) {
		d.Drop, d.Burst = true, true
		return
	}
	if f.Drop > 0 && rng.Float64() < f.Drop {
		d.Drop = true
		return
	}
	if f.Jitter > 0 {
		d.Delay += event.Time(rng.Int63n(int64(f.Jitter) + 1))
	}
	if f.Reorder > 0 && rng.Float64() < f.Reorder {
		// Hold the frame back long enough that frames sent after it
		// overtake — out-of-order delivery without loss.
		rd := f.ReorderDelay
		if rd == 0 {
			rd = 8 * lat
		}
		d.Delay += rd
		d.Reordered = true
	}
	if f.Dup > 0 && rng.Float64() < f.Dup {
		dd := f.DupDelay
		if dd == 0 {
			dd = lat
		}
		d.Dup, d.DupDelay = true, dd
	}
	return
}

// Gray degrades a node without failing it: the switch keeps forwarding and
// answering — slowly and lossily. Fail-stop detection never fires, which
// is exactly what makes gray failures the hard case.
type Gray struct {
	// SlowFactor multiplies the node's per-packet service time (values
	// <= 1 leave the budget untouched).
	SlowFactor float64
	// Loss drops arriving frames with this probability (on top of the
	// node's configured LossRate).
	Loss float64
	// ExtraDelay adds fixed latency to every frame the node processes —
	// congestion-style degradation that inflates p99 without dropping.
	ExtraDelay event.Time
}

// partition is an asymmetric reachability fault: frames whose virtual
// source is in from and destination in to are dropped on every link they
// would traverse; the reverse direction is untouched.
type partition struct {
	from, to map[packet.Addr]bool
}

func newPartition(from, to []packet.Addr) *partition {
	p := &partition{from: make(map[packet.Addr]bool), to: make(map[packet.Addr]bool)}
	for _, a := range from {
		p.from[a] = true
	}
	for _, a := range to {
		p.to[a] = true
	}
	return p
}

func (p *partition) matches(src, dst packet.Addr) bool {
	return p.from[src] && p.to[dst]
}

// ---------------------------------------------------------------------------
// Fault state, shared by both substrates.

// Faults is the nemesis state of one substrate: directed per-link faults,
// a cluster-wide default fault, the installed asymmetric partitions and the
// gray-degraded nodes. The simulator and the wire injector
// (internal/faultconn) each hold one and change it only through the Fault
// values below, so the inject/heal rules exist once; each substrate keeps
// only the code that applies Link, Cut and Gray where a frame crosses. The
// zero value holds no faults.
type Faults struct {
	links map[routeKey]LinkFault // keyed by directed {from, to}
	def   LinkFault              // cluster-wide; inactive when unset
	// parts holds each AsymPartition step's installed instance, keyed by
	// the step, so one Schedule value can drive any number of targets.
	parts map[*AsymPartition]*partition
	gray  map[packet.Addr]Gray
}

// Link resolves the fault acting on the directed traversal from→to: the
// per-link fault merged with the cluster-wide default. ok is false when
// the direction is healthy.
func (fs *Faults) Link(from, to packet.Addr) (f LinkFault, ok bool) {
	lf, hasLink := fs.links[routeKey{from, to}]
	if !fs.def.active() {
		return lf, hasLink && lf.active()
	}
	if !hasLink {
		return fs.def, true
	}
	return lf.merge(fs.def), true
}

// Cut reports whether an installed partition drops a frame with virtual
// source src and destination dst.
func (fs *Faults) Cut(src, dst packet.Addr) bool {
	for _, p := range fs.parts {
		if p.matches(src, dst) {
			return true
		}
	}
	return false
}

// Gray returns addr's gray degradation, if any.
func (fs *Faults) Gray(addr packet.Addr) (g Gray, ok bool) {
	g, ok = fs.gray[addr]
	return g, ok
}

// SetLink installs f on the directed link from→to, replacing any previous
// fault on that direction. It checks nothing; a Target's SetLinkFault
// decides whether the link exists.
func (fs *Faults) SetLink(from, to packet.Addr, f LinkFault) {
	if fs.links == nil {
		fs.links = make(map[routeKey]LinkFault)
	}
	fs.links[routeKey{from, to}] = f
}

// SetGray marks addr gray-degraded. It checks nothing; a Target's SetGray
// decides whether the node exists.
func (fs *Faults) SetGray(addr packet.Addr, g Gray) {
	if fs.gray == nil {
		fs.gray = make(map[packet.Addr]Gray)
	}
	fs.gray[addr] = g
}

// Target is a substrate a Fault can be injected into and healed from: its
// fault state plus the operations whose validity or effect depend on the
// substrate — the simulator refuses links and nodes its fabric lacks, and
// fail-stop is a routing event there but a blackhole on the wire.
type Target interface {
	Faults() *Faults
	SetLinkFault(from, to packet.Addr, f LinkFault) error
	SetGray(addr packet.Addr, g Gray) error
	FailSwitch(addr packet.Addr) error
	RestoreSwitch(addr packet.Addr) error
}

// Faults returns the network's nemesis state.
func (n *Network) Faults() *Faults { return &n.faults }

// SetLinkFault installs f on the directed link from→to (replacing any
// previous fault on that direction). The reverse direction is untouched —
// an asymmetric link partition is SetLinkFault(a, b, LinkFault{Drop: 1}).
func (n *Network) SetLinkFault(from, to packet.Addr, f LinkFault) error {
	if _, ok := n.latency[linkKey(from, to)]; !ok {
		return fmt.Errorf("netsim: no link %v-%v", from, to)
	}
	n.faults.SetLink(from, to, f)
	return nil
}

// SetGray marks addr gray-degraded. The node is NOT failed: routes still
// run through it and frames addressed to it are still processed — slowly.
func (n *Network) SetGray(addr packet.Addr, g Gray) error {
	if _, ok := n.nodes[addr]; !ok {
		return fmt.Errorf("netsim: unknown node %v", addr)
	}
	n.faults.SetGray(addr, g)
	return nil
}

// ---------------------------------------------------------------------------
// Declarative fault schedule.

// Fault is one adversarial condition a Schedule can hold over an interval.
// Inject and Heal are the grammar's one interpreter: the simulator and the
// wire injector both run them against their own Target.
type Fault interface {
	Inject(t Target) error
	Heal(t Target) error
	String() string
}

// LinkChaos installs F on the directed link A→B (and B→A when Sym).
type LinkChaos struct {
	A, B packet.Addr
	Sym  bool
	F    LinkFault
}

func (c LinkChaos) Inject(t Target) error {
	if err := t.SetLinkFault(c.A, c.B, c.F); err != nil {
		return err
	}
	if c.Sym {
		return t.SetLinkFault(c.B, c.A, c.F)
	}
	return nil
}

func (c LinkChaos) Heal(t Target) error {
	// Clear only the fault this step installed: an overlapping later step
	// that replaced it keeps running.
	fs := t.Faults()
	if fs.links[routeKey{c.A, c.B}] == c.F {
		delete(fs.links, routeKey{c.A, c.B})
	}
	if c.Sym && fs.links[routeKey{c.B, c.A}] == c.F {
		delete(fs.links, routeKey{c.B, c.A})
	}
	return nil
}

func (c LinkChaos) String() string {
	dir := "→"
	if c.Sym {
		dir = "↔"
	}
	return fmt.Sprintf("link-chaos %v%s%v drop=%.2g dup=%.2g jitter=%v reorder=%.2g",
		c.A, dir, c.B, c.F.Drop, c.F.Dup, c.F.Jitter, c.F.Reorder)
}

// ClusterChaos installs F on every link traversal cluster-wide.
type ClusterChaos struct{ F LinkFault }

// Inject replaces the cluster-wide fault; an inactive F clears it.
func (c ClusterChaos) Inject(t Target) error { t.Faults().def = c.F; return nil }

// Heal clears the cluster-wide fault only if it is still the one this
// step installed (see LinkChaos.Heal).
func (c ClusterChaos) Heal(t Target) error {
	if fs := t.Faults(); fs.def == c.F {
		fs.def = LinkFault{}
	}
	return nil
}
func (c ClusterChaos) String() string {
	return fmt.Sprintf("cluster-chaos drop=%.2g dup=%.2g jitter=%v reorder=%.2g",
		c.F.Drop, c.F.Dup, c.F.Jitter, c.F.Reorder)
}

// AsymPartition cuts reachability for frames sourced in From addressed to
// To; the reverse direction keeps working. Frames already in flight are
// not recalled; they were sent before the cut. The step's identity is its
// pointer: two steps over the same pair install and heal independently.
type AsymPartition struct {
	From, To []packet.Addr
}

func (c *AsymPartition) Inject(t Target) error {
	fs := t.Faults()
	if fs.parts == nil {
		fs.parts = make(map[*AsymPartition]*partition)
	}
	fs.parts[c] = newPartition(c.From, c.To)
	return nil
}

func (c *AsymPartition) Heal(t Target) error {
	delete(t.Faults().parts, c)
	return nil
}

func (c *AsymPartition) String() string {
	return fmt.Sprintf("asym-partition %v→%v", c.From, c.To)
}

// GraySwitch degrades Addr without failing it.
type GraySwitch struct {
	Addr packet.Addr
	G    Gray
}

func (c GraySwitch) Inject(t Target) error { return t.SetGray(c.Addr, c.G) }

// Heal restores the node only if it still carries this step's degradation
// (see LinkChaos.Heal).
func (c GraySwitch) Heal(t Target) error {
	if fs := t.Faults(); fs.gray[c.Addr] == c.G {
		delete(fs.gray, c.Addr)
	}
	return nil
}
func (c GraySwitch) String() string {
	return fmt.Sprintf("gray %v slow=%.3gx loss=%.2g extra=%v", c.Addr, c.G.SlowFactor, c.G.Loss, c.G.ExtraDelay)
}

// FailStop kills Addr outright: every frame arriving there is dropped and
// the underlay reroutes around it (§4.2). Heal restores the node. As a
// first-class nemesis fault, fail-stop joins schedules WITHOUT a paired
// controller call — which is exactly what the self-healing control plane
// needs: the schedule injects the failure, the detector must notice it.
type FailStop struct {
	Addr packet.Addr
}

func (c FailStop) Inject(t Target) error { return t.FailSwitch(c.Addr) }
func (c FailStop) Heal(t Target) error   { return t.RestoreSwitch(c.Addr) }
func (c FailStop) String() string        { return fmt.Sprintf("fail-stop %v", c.Addr) }

// Step is one timeline entry: inject Fault at absolute simulated time At,
// heal it For later (For == 0 keeps it until the run ends).
type Step struct {
	Name string
	At   event.Time
	For  event.Time
	Fault
}

// Schedule is a nemesis timeline. Steps may overlap freely: injecting
// over an active same-target step replaces its fault (last inject wins),
// and each heal removes only the exact fault its own step installed, so a
// stale heal never strips a replacement that is still scheduled to run.
type Schedule []Step

// Applier is where a Schedule's steps land, one whole Fault at a time: the
// simulated network, whose events run one at a time, or the wire injector,
// which holds its lock around the same Fault.Inject/Heal.
type Applier interface {
	InjectFault(f Fault) error
	HealFault(f Fault) error
}

// InjectFault installs f by the grammar's rules (an Applier).
func (n *Network) InjectFault(f Fault) error { return f.Inject(n) }

// HealFault removes what f installed (an Applier).
func (n *Network) HealFault(f Fault) error { return f.Heal(n) }

// Nemesis executes a Schedule and records what it did.
type Nemesis struct {
	clk event.Clock

	mu sync.Mutex // on the wall clock, steps fire on their own goroutines
	// Log lists timestamped inject/heal lines, for experiment reports.
	// Read it once the clock fires no more steps.
	Log []string
	err error
}

// RunSchedule registers every step of sch with clk, each injecting its
// fault into a at At and healing it For later: the simulator's clock and
// network, or the wire injector and its clock. Call before (or while) the
// clock runs; steps whose At has already passed fire immediately. Fault
// errors are sticky — check Err once the schedule has run.
func RunSchedule(clk event.Clock, a Applier, sch Schedule) *Nemesis {
	nm := &Nemesis{clk: clk}
	now := clk.Now()
	for _, st := range sch {
		st := st
		at := max(time.Duration(st.At)-now, 0)
		clk.After(at, func() {
			nm.step(fmt.Sprintf("inject %s: %s", st.Name, st.Fault), "nemesis "+st.Name,
				func() error { return a.InjectFault(st.Fault) })
		})
		if st.For > 0 {
			clk.After(at+time.Duration(st.For), func() {
				nm.step("heal   "+st.Name, "nemesis heal "+st.Name,
					func() error { return a.HealFault(st.Fault) })
			})
		}
	}
	return nm
}

// Err returns the first fault injection/heal error, if any.
func (nm *Nemesis) Err() error {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	return nm.err
}

// step logs line and applies one fault; what prefixes its error.
func (nm *Nemesis) step(line, what string, apply func() error) {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	nm.Log = append(nm.Log, fmt.Sprintf("t=%-12v %s", nm.clk.Now(), line))
	if err := apply(); err != nil && nm.err == nil {
		nm.err = fmt.Errorf("%s: %w", what, err)
	}
}
