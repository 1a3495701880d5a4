package controller

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"netchain/internal/event"
	"netchain/internal/health"
	"netchain/internal/packet"
	"netchain/internal/ring"
)

// Autopilot closes the loop from suspicion to repaired chain with no
// human in it: a reconcile tick reads the φ-accrual detector's verdicts
// and drives the controller's existing repair verbs — fast failover the
// moment a fail-stop verdict lands, two-phase Recover from the configured
// spare pool, Demote (drain reads off the tail) rather than evict for
// gray-degraded switches, and Restore once they heal. Repairs that move
// data are rate-limited by a budget window and per-switch cooldowns, so a
// flapping link oscillating the verdict cannot thrash migrations; fast
// failover itself is never budgeted — leaving chains pointed at a dead
// switch is a correctness hole, not a cost tradeoff.
//
// The paper's §5.3–5.4 procedures both begin "the network OS detects the
// failure"; Autopilot plus internal/health is that network OS.

// RepairAction names one autonomous repair step.
type RepairAction string

const (
	ActionFailover    RepairAction = "failover"     // Algorithm 2 rules installed
	ActionRecover     RepairAction = "recover"      // Algorithm 3 migration started
	ActionRecoverDone RepairAction = "recover-done" // all groups re-replicated
	ActionDemote      RepairAction = "demote"       // gray switch leaves tail duty
	ActionDemoteDone  RepairAction = "demote-done"
	ActionRestore     RepairAction = "restore" // healed switch re-adopts ring order
	ActionRestoreDone RepairAction = "restore-done"
	ActionRehome      RepairAction = "rehome" // chains moved off a congested switch
	ActionRehomeDone  RepairAction = "rehome-done"
)

// RepairEvent is one entry of the autopilot's repair history.
type RepairEvent struct {
	At     time.Duration
	Switch packet.Addr
	Action RepairAction
	Detail string
}

func (e RepairEvent) String() string {
	s := fmt.Sprintf("t=%-12v %-13s %v", e.At, e.Action, e.Switch)
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// recoverRetry is the backoff, in heartbeats, after a Recover attempt
// the controller refused (bad pool, mid-resize, non-member) — without it
// a persistent error would be retried hot on every tick, spamming the
// repair history forever.
const recoverRetry = 10

// AutopilotConfig tunes the reconcile loop. The loop ticks once per
// detector heartbeat (health.Detector.HeartbeatEvery), and every default
// below is a multiple of that tick.
type AutopilotConfig struct {
	// Spares is the replacement pool Recover draws from. Spares that are
	// themselves failed, gray or demoted are skipped at selection time.
	Spares []packet.Addr
	// RepairBudget caps data-moving repairs (recover/demote/restore) per
	// BudgetWindow. Default 4 per 100 heartbeats.
	RepairBudget int
	BudgetWindow time.Duration
	// Cooldown is the minimum gap between repairs touching the same
	// switch — the hysteresis that stops a flapping verdict from
	// demote/restore ping-pong. Default 20 heartbeats.
	Cooldown time.Duration
	// Placer, when set, answers a Congested verdict with a re-placement
	// plan: new chains for the groups that should move off the congested
	// switch (the bottleneck-aware planner over the fabric's current
	// load). Returning no plans means "nothing to move" and the verdict
	// is left alone. Without a Placer, Congested verdicts are ignored —
	// congestion is a placement problem, and failover or demotion of a
	// healthy switch would only add migration load to a queueing path.
	Placer func(congested packet.Addr) map[ring.GroupID][]packet.Addr
}

func (c *AutopilotConfig) sanitize(heartbeat time.Duration) {
	if c.RepairBudget <= 0 {
		c.RepairBudget = 4
	}
	if c.BudgetWindow <= 0 {
		c.BudgetWindow = 100 * heartbeat
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 20 * heartbeat
	}
}

// Autopilot is the reconcile loop. One per controller.
type Autopilot struct {
	ctl *Controller
	det *health.Detector
	clk event.Clock
	cfg AutopilotConfig

	mu          sync.Mutex
	running     bool
	gen         uint64 // tick-chain generation; bumped by Start/Stop
	busy        bool   // a data-moving repair migration is in flight
	switches    map[packet.Addr]*switchRepair
	repairTimes []time.Duration
	deferred    uint64
	history     []RepairEvent

	// OnEvent, if set, observes every recorded repair event (called
	// outside the autopilot lock; must not call back into Autopilot).
	OnEvent func(RepairEvent)
}

// switchRepair is everything the autopilot remembers about one switch.
type switchRepair struct {
	// failedOver latches a fail-stop: the chains were reprogrammed around
	// the switch, so its verdict no longer matters until it is recovered
	// and heartbeats healthy again.
	failedOver   bool
	recoveryDue  bool          // a Recover is owed
	recoverAfter time.Duration // error-backoff floor for the next attempt
	demoted      bool
	rehomed      bool          // congestion already answered with a rehome
	cooldownEnd  time.Duration // no data-moving repair of it before this
}

// NewAutopilot wires the loop; Start begins reconciling, one tick per
// det's heartbeat. clk is the detector's timeline (the simulator's, or the
// wire monitor's wall clock): the ticks run on it and read it.
func NewAutopilot(ctl *Controller, det *health.Detector, clk event.Clock, cfg AutopilotConfig) *Autopilot {
	cfg.sanitize(det.HeartbeatEvery())
	return &Autopilot{ctl: ctl, det: det, clk: clk, cfg: cfg, switches: make(map[packet.Addr]*switchRepair)}
}

// Config returns the sanitized configuration in effect.
func (a *Autopilot) Config() AutopilotConfig { return a.cfg }

// Start begins the reconcile ticks.
func (a *Autopilot) Start() {
	a.mu.Lock()
	if a.running {
		a.mu.Unlock()
		return
	}
	a.running = true
	a.gen++ // orphan any tick still queued from an earlier Start/Stop cycle
	gen := a.gen
	a.mu.Unlock()
	a.clk.After(a.det.HeartbeatEvery(), func() { a.tick(gen) })
}

// Stop halts future ticks; a repair already in flight runs to completion.
func (a *Autopilot) Stop() {
	a.mu.Lock()
	a.running = false
	a.gen++
	a.mu.Unlock()
}

// tick runs one reconcile pass and re-arms itself — unless its generation
// was orphaned by a Stop (or a Stop/Start cycle), so restarting can never
// leave two chains reconciling at double cadence.
func (a *Autopilot) tick(gen uint64) {
	a.mu.Lock()
	live := a.running && gen == a.gen
	a.mu.Unlock()
	if !live {
		return
	}
	a.reconcile()
	a.clk.After(a.det.HeartbeatEvery(), func() { a.tick(gen) })
}

// History returns a copy of the repair log.
func (a *Autopilot) History() []RepairEvent {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]RepairEvent(nil), a.history...)
}

// Deferred counts repair decisions postponed by the budget, a cooldown,
// an in-flight repair, or an empty spare pool.
func (a *Autopilot) Deferred() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.deferred
}

// Demoted lists the switches the autopilot currently holds demoted, in
// address order.
func (a *Autopilot) Demoted() []packet.Addr {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []packet.Addr
	for sw, r := range a.switches {
		if r.demoted {
			out = append(out, sw)
		}
	}
	slices.Sort(out)
	return out
}

// historyCap bounds the repair log: a long-lived daemon retrying a
// misconfigured repair at budget rate must not grow memory (and the
// ClusterHealth reply) without bound. The newest events win.
const historyCap = 512

func (a *Autopilot) record(at time.Duration, sw packet.Addr, act RepairAction, detail string) {
	ev := RepairEvent{At: at, Switch: sw, Action: act, Detail: detail}
	a.mu.Lock()
	a.history = append(a.history, ev)
	if len(a.history) > historyCap {
		a.history = append(a.history[:0], a.history[len(a.history)-historyCap:]...)
	}
	cb := a.OnEvent
	a.mu.Unlock()
	if cb != nil {
		cb(ev)
	}
}

// switchLocked returns sw's repair record, creating it on first use.
func (a *Autopilot) switchLocked(sw packet.Addr) *switchRepair {
	r, ok := a.switches[sw]
	if !ok {
		r = &switchRepair{}
		a.switches[sw] = r
	}
	return r
}

// repair is one admitted repair on its way to the controller.
type repair struct {
	kind RepairAction
	sw   packet.Addr
	pool []packet.Addr // ActionRecover's replacement pool
	at   time.Duration // the reconcile pass that admitted and charged it
}

// admitLocked admits one data-moving repair of r: nothing else in
// flight, room in the budget window and, if cooled, r past its cooldown.
// Admission marks the autopilot busy and charges the window and r's
// cooldown; a repair not admitted is deferred.
func (a *Autopilot) admitLocked(now time.Duration, r *switchRepair, cooled bool) bool {
	kept := a.repairTimes[:0]
	for _, t := range a.repairTimes {
		if now-t <= a.cfg.BudgetWindow {
			kept = append(kept, t)
		}
	}
	a.repairTimes = kept
	if a.busy || len(a.repairTimes) >= a.cfg.RepairBudget || (cooled && now < r.cooldownEnd) {
		a.deferred++
		return false
	}
	a.busy = true
	a.repairTimes = append(a.repairTimes, now)
	r.cooldownEnd = now + a.cfg.Cooldown
	return true
}

// done is an admitted repair's completion callback: un-busy, then record
// its done event.
func (a *Autopilot) done(sw packet.Addr, act RepairAction) func() {
	return func() {
		a.mu.Lock()
		a.busy = false
		a.mu.Unlock()
		a.record(a.clk.Now(), sw, act, "")
	}
}

// errNoPlan is the Placer's answer that nothing needs to move.
var errNoPlan = errors.New("no plan")

// refuse backs out an admitted repair the controller would not start:
// un-busy, undo its state change, and return its budget charge and
// cooldown — a repair that never moved data must not starve real ones
// out of the window — then record why.
func (a *Autopilot) refuse(rp repair, err error) {
	at, detail := rp.at, "error: "+err.Error()
	a.mu.Lock()
	a.busy = false
	r := a.switchLocked(rp.sw)
	switch rp.kind {
	case ActionRecover:
		// Retry after the backoff, counted from the refusal.
		at = a.clk.Now()
		r.recoveryDue = true
		r.recoverAfter = at + recoverRetry*a.det.HeartbeatEvery()
	case ActionDemote:
		r.demoted = false
	case ActionRestore:
		r.demoted = true
	case ActionRehome:
		if err == errNoPlan {
			// Keep the latch: the verdict persists, and re-asking the
			// placer every tick would spam the history with identical
			// refusals. It re-arms when the verdict clears.
			detail = err.Error()
		} else {
			r.rehomed = false
		}
	}
	if i := slices.Index(a.repairTimes, rp.at); i >= 0 {
		a.repairTimes = slices.Delete(a.repairTimes, i, i+1)
	}
	r.cooldownEnd = 0
	a.mu.Unlock()
	a.record(at, rp.sw, rp.kind, detail)
}

// poolForLocked selects the recovery pool for sw: configured spares that
// are themselves healthy enough to absorb state. held are the spares the
// controller holds failed; Recover refuses them.
func (a *Autopilot) poolForLocked(sw packet.Addr, snap []health.SwitchHealth, held map[packet.Addr]bool) []packet.Addr {
	verdict := make(map[packet.Addr]health.Verdict, len(snap))
	for _, h := range snap {
		verdict[h.Addr] = h.Verdict
	}
	var pool, fallback []packet.Addr
	for _, sp := range a.cfg.Spares {
		if sp == sw || held[sp] || a.switchLocked(sp).failedOver {
			continue
		}
		if v, ok := verdict[sp]; ok && v == health.FailStop {
			// A dead spare is no spare — not even as a fallback (its
			// own conviction may simply not have been processed yet
			// this pass). Migrating every group onto it would point
			// chains at a corpse.
			continue
		}
		fallback = append(fallback, sp)
		if a.switchLocked(sp).demoted {
			continue
		}
		if v, ok := verdict[sp]; ok && v != health.Healthy {
			continue
		}
		pool = append(pool, sp)
	}
	if len(pool) == 0 {
		// Every live spare is degraded or demoted: recover anyway. For
		// a fail-stop, a slow replacement beats a permanently thin
		// chain.
		return fallback
	}
	return pool
}

// reconcile is one pass: read verdicts, decide under the lock, act
// outside it (controller calls schedule their own callbacks).
func (a *Autopilot) reconcile() {
	now := a.clk.Now()
	snap := a.det.Snapshot(now)

	// Chain repair verbs act on ring members. A fabric's transit tier
	// (cores, aggregation) and held-out spares are tracked too — their
	// congestion verdicts feed the Placer and their health gates pool
	// selection — but a dead core is a routing event, not a chain
	// membership event: fail-stop and gray escalation skip non-members
	// instead of looping on "not a member" repair errors.
	member := make(map[packet.Addr]bool)
	for _, m := range a.ctl.Ring().Switches() {
		member[m] = true
	}
	// A spare failed behind the autopilot's back (an operator's
	// HandleFailure) is no replacement either.
	held := make(map[packet.Addr]bool)
	for _, sp := range a.cfg.Spares {
		held[sp] = a.ctl.Failed(sp)
	}

	a.mu.Lock()
	// Blindness guard: when a majority of the not-yet-failed switches
	// look fail-stopped at once, the overwhelmingly likely cause is the
	// monitor's own view (its uplink, its host) going dark — evicting
	// the whole cluster on that evidence would be self-inflicted total
	// unavailability. Sit on our hands until the view disagrees with
	// itself again; individual failures keep being repaired.
	tracked, suspects := 0, 0
	for _, h := range snap {
		if a.switchLocked(h.Addr).failedOver {
			continue
		}
		tracked++
		if h.Verdict == health.FailStop {
			suspects++
		}
	}
	blind := tracked > 0 && suspects*2 > tracked

	var admitted []repair
	for _, h := range snap {
		sw := h.Addr
		r := a.switchLocked(sw)
		if h.Verdict == health.Healthy {
			// Verdict cleared: the rehome worked (or congestion passed);
			// arm the latch again so a later episode gets its own repair.
			r.rehomed = false
		}
		var kind RepairAction
		var pool []packet.Addr
		switch {
		case r.failedOver:
			// Failover is a latched decision: once the chains were
			// reprogrammed around sw, its verdict no longer matters —
			// the neighbor rules now answer (and later the replacement
			// answers) traffic addressed to it, so probes of a dead
			// switch come back alive-looking. Recovery proceeds
			// regardless, with no cooldown; a switch that truly returns
			// rejoins through the elastic AddSwitch path (which
			// re-admits it), not by un-failing. Once recovery is done
			// AND the switch is demonstrably back (heartbeats resumed →
			// Healthy), the latch clears so a SECOND fail-stop after
			// readmission is repaired like the first.
			if a.busy {
				break
			}
			if !r.recoveryDue && h.Verdict == health.Healthy {
				r.failedOver = false
			} else if r.recoveryDue && now >= r.recoverAfter {
				if pool = a.poolForLocked(sw, snap, held); len(pool) == 0 {
					a.deferred++
				} else if a.admitLocked(now, r, false) {
					r.recoveryDue, kind = false, ActionRecover
				}
			}
		case h.Verdict == health.FailStop && member[sw]:
			if blind {
				a.deferred++
				break
			}
			// Fast failover is urgent and cheap: reprogram the
			// neighbors now, never wait for budget.
			r.failedOver, r.recoveryDue, r.demoted, r.rehomed = true, true, false, false
			kind = ActionFailover
		case h.Verdict == health.Gray && member[sw] && !r.demoted:
			if a.admitLocked(now, r, true) {
				r.demoted, kind = true, ActionDemote
			}
		case h.Verdict == health.Congested && a.cfg.Placer != nil && !r.rehomed:
			// Congestion names a placement problem, not a sick switch:
			// answer it by moving chains, never by failover or demotion.
			// Latched per switch so one sustained verdict triggers one
			// rehome; the latch releases when the verdict clears.
			if a.admitLocked(now, r, true) {
				r.rehomed, kind = true, ActionRehome
			}
		case h.Verdict == health.Healthy && r.demoted:
			if a.admitLocked(now, r, true) {
				r.demoted, kind = false, ActionRestore
			}
		}
		if kind != "" {
			admitted = append(admitted, repair{kind: kind, sw: sw, pool: pool, at: now})
		}
	}
	a.mu.Unlock()

	for _, rp := range admitted {
		a.execute(rp)
	}
}

// execute hands one admitted repair to the controller. Fast failover is
// unbudgeted and cannot be refused; every other repair either finishes
// through done or is backed out through refuse.
func (a *Autopilot) execute(rp repair) {
	var n int
	var err error
	switch rp.kind {
	case ActionFailover:
		detail := ""
		if err := a.ctl.HandleFailure(rp.sw, nil); err != nil {
			// "Already failed over" (e.g. a manual operator action beat
			// us) is success for reconciliation purposes.
			detail = err.Error()
		}
		a.record(rp.at, rp.sw, ActionFailover, detail)
		return
	case ActionRecover:
		a.record(rp.at, rp.sw, ActionRecover, fmt.Sprintf("pool %v", rp.pool))
		if err := a.ctl.Recover(rp.sw, rp.pool, a.done(rp.sw, ActionRecoverDone)); err != nil {
			a.refuse(rp, err)
		}
		return
	case ActionDemote:
		n, err = a.ctl.Demote(rp.sw, a.done(rp.sw, ActionDemoteDone))
	case ActionRestore:
		n, err = a.ctl.Restore(rp.sw, a.done(rp.sw, ActionRestoreDone))
	case ActionRehome:
		plans := a.cfg.Placer(rp.sw)
		n, err = len(plans), errNoPlan
		if n > 0 {
			err = a.ctl.Rehome(plans, a.done(rp.sw, ActionRehomeDone))
		}
	}
	if err != nil {
		a.refuse(rp, err)
		return
	}
	a.record(rp.at, rp.sw, rp.kind, fmt.Sprintf("%d groups", n))
}
