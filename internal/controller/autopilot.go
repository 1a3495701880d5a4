package controller

import (
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

	mu              sync.Mutex
	running         bool
	gen             uint64 // tick-chain generation; bumped by Start/Stop
	busy            bool   // a data-moving repair migration is in flight
	failovered      map[packet.Addr]bool
	recoveryPending map[packet.Addr]bool
	recoveryAfter   map[packet.Addr]time.Duration // error-backoff floor for the next attempt
	demoted         map[packet.Addr]bool
	rehomed         map[packet.Addr]bool // congestion already answered with a rehome
	lastRepair      map[packet.Addr]time.Duration
	repairTimes     []time.Duration
	deferred        uint64
	history         []RepairEvent

	// OnEvent, if set, observes every recorded repair event (called
	// outside the autopilot lock; must not call back into Autopilot).
	OnEvent func(RepairEvent)
}

// NewAutopilot wires the loop; Start begins reconciling, one tick per
// det's heartbeat. clk is the detector's timeline (the simulator's, or the
// wire monitor's wall clock): the ticks run on it and read it.
func NewAutopilot(ctl *Controller, det *health.Detector, clk event.Clock, cfg AutopilotConfig) *Autopilot {
	cfg.sanitize(det.HeartbeatEvery())
	return &Autopilot{
		ctl:             ctl,
		det:             det,
		clk:             clk,
		cfg:             cfg,
		failovered:      make(map[packet.Addr]bool),
		recoveryPending: make(map[packet.Addr]bool),
		recoveryAfter:   make(map[packet.Addr]time.Duration),
		demoted:         make(map[packet.Addr]bool),
		rehomed:         make(map[packet.Addr]bool),
		lastRepair:      make(map[packet.Addr]time.Duration),
	}
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
	for sw, d := range a.demoted {
		if d {
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

// budgetOKLocked prunes the budget window and reports whether another
// data-moving repair fits in it.
func (a *Autopilot) budgetOKLocked(now time.Duration) bool {
	kept := a.repairTimes[:0]
	for _, t := range a.repairTimes {
		if now-t <= a.cfg.BudgetWindow {
			kept = append(kept, t)
		}
	}
	a.repairTimes = kept
	return len(a.repairTimes) < a.cfg.RepairBudget
}

func (a *Autopilot) cooldownOKLocked(now time.Duration, sw packet.Addr) bool {
	last, ok := a.lastRepair[sw]
	return !ok || now-last >= a.cfg.Cooldown
}

func (a *Autopilot) chargeLocked(now time.Duration, sw packet.Addr) {
	a.repairTimes = append(a.repairTimes, now)
	a.lastRepair[sw] = now
}

// refundLocked returns a charge whose repair never moved data (the
// controller refused it) so failed attempts cannot starve real repairs
// out of the budget window.
func (a *Autopilot) refundLocked(now time.Duration, sw packet.Addr) {
	for i := len(a.repairTimes) - 1; i >= 0; i-- {
		if a.repairTimes[i] == now {
			a.repairTimes = append(a.repairTimes[:i], a.repairTimes[i+1:]...)
			break
		}
	}
	if a.lastRepair[sw] == now {
		delete(a.lastRepair, sw)
	}
}

// poolForLocked selects the recovery pool for sw: configured spares that
// are themselves healthy enough to absorb state.
func (a *Autopilot) poolForLocked(sw packet.Addr, snap []health.SwitchHealth) []packet.Addr {
	verdict := make(map[packet.Addr]health.Verdict, len(snap))
	for _, h := range snap {
		verdict[h.Addr] = h.Verdict
	}
	var pool, fallback []packet.Addr
	for _, sp := range a.cfg.Spares {
		if sp == sw || a.failovered[sp] {
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
		if a.demoted[sp] {
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

	type action struct {
		kind RepairAction
		sw   packet.Addr
		pool []packet.Addr
	}
	var acts []action

	// Blindness guard: when a majority of the not-yet-failed switches
	// look fail-stopped at once, the overwhelmingly likely cause is the
	// monitor's own view (its uplink, its host) going dark — evicting
	// the whole cluster on that evidence would be self-inflicted total
	// unavailability. Sit on our hands until the view disagrees with
	// itself again; individual failures keep being repaired.
	tracked, suspects := 0, 0
	for _, h := range snap {
		if a.failovered[h.Addr] {
			continue
		}
		tracked++
		if h.Verdict == health.FailStop {
			suspects++
		}
	}
	blind := tracked > 0 && suspects*2 > tracked

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

	a.mu.Lock()
	for _, h := range snap {
		sw := h.Addr
		if a.failovered[sw] {
			// Failover is a latched decision: once the chains were
			// reprogrammed around sw, its verdict no longer matters —
			// the neighbor rules now answer (and later the replacement
			// answers) traffic addressed to it, so probes of a dead
			// switch come back alive-looking. Recovery proceeds
			// regardless; a switch that truly returns rejoins through
			// the elastic AddSwitch path (which re-admits it), not by
			// un-failing. Once recovery is done AND the switch is
			// demonstrably back (heartbeats resumed → Healthy), the
			// latch clears so a SECOND fail-stop after readmission is
			// repaired like the first.
			if !a.recoveryPending[sw] && !a.busy && h.Verdict == health.Healthy {
				delete(a.failovered, sw)
				continue
			}
			if a.recoveryPending[sw] && !a.busy && now >= a.recoveryAfter[sw] {
				pool := a.poolForLocked(sw, snap)
				if len(pool) > 0 && a.budgetOKLocked(now) {
					a.recoveryPending[sw] = false
					a.busy = true
					a.chargeLocked(now, sw)
					acts = append(acts, action{kind: ActionRecover, sw: sw, pool: pool})
				} else {
					a.deferred++
				}
			}
			continue
		}
		if h.Verdict == health.Healthy {
			// Verdict cleared: the rehome worked (or congestion passed);
			// arm the latch again so a later episode gets its own repair.
			delete(a.rehomed, sw)
		}
		switch {
		case h.Verdict == health.FailStop:
			if !member[sw] {
				continue
			}
			if blind {
				a.deferred++
				continue
			}
			// Fast failover is urgent and cheap: reprogram the
			// neighbors now, never wait for budget.
			a.failovered[sw] = true
			a.recoveryPending[sw] = true
			delete(a.demoted, sw)
			delete(a.rehomed, sw)
			acts = append(acts, action{kind: ActionFailover, sw: sw})
		case h.Verdict == health.Gray:
			if !member[sw] {
				continue
			}
			if !a.demoted[sw] {
				if !a.busy && a.budgetOKLocked(now) && a.cooldownOKLocked(now, sw) {
					a.demoted[sw] = true
					a.busy = true
					a.chargeLocked(now, sw)
					acts = append(acts, action{kind: ActionDemote, sw: sw})
				} else {
					a.deferred++
				}
			}
		case h.Verdict == health.Congested:
			// Congestion names a placement problem, not a sick switch:
			// answer it by moving chains, never by failover or demotion.
			// Latched per switch so one sustained verdict triggers one
			// rehome; the latch releases when the verdict clears.
			if a.cfg.Placer == nil || a.rehomed[sw] {
				continue
			}
			if !a.busy && a.budgetOKLocked(now) && a.cooldownOKLocked(now, sw) {
				a.rehomed[sw] = true
				a.busy = true
				a.chargeLocked(now, sw)
				acts = append(acts, action{kind: ActionRehome, sw: sw})
			} else {
				a.deferred++
			}
		case h.Verdict == health.Healthy && a.demoted[sw]:
			if !a.busy && a.budgetOKLocked(now) && a.cooldownOKLocked(now, sw) {
				a.demoted[sw] = false
				a.busy = true
				a.chargeLocked(now, sw)
				acts = append(acts, action{kind: ActionRestore, sw: sw})
			} else {
				a.deferred++
			}
		}
	}
	a.mu.Unlock()

	for _, act := range acts {
		a.execute(act.kind, act.sw, act.pool, now)
	}
}

func (a *Autopilot) execute(kind RepairAction, sw packet.Addr, pool []packet.Addr, now time.Duration) {
	unbusy := func() {
		a.mu.Lock()
		a.busy = false
		a.mu.Unlock()
	}
	switch kind {
	case ActionFailover:
		detail := ""
		if err := a.ctl.HandleFailure(sw, nil); err != nil {
			// "Already failed over" (e.g. a manual operator action beat
			// us) is success for reconciliation purposes.
			detail = err.Error()
		}
		a.record(now, sw, ActionFailover, detail)
	case ActionRecover:
		a.record(now, sw, ActionRecover, fmt.Sprintf("pool %v", pool))
		err := a.ctl.Recover(sw, pool, func() {
			a.mu.Lock()
			a.busy = false
			a.mu.Unlock()
			a.record(a.clk.Now(), sw, ActionRecoverDone, "")
		})
		if err != nil {
			a.mu.Lock()
			a.busy = false
			a.recoveryPending[sw] = true // retry after the backoff
			a.recoveryAfter[sw] = a.clk.Now() + recoverRetry*a.det.HeartbeatEvery()
			a.refundLocked(now, sw)
			a.mu.Unlock()
			a.record(a.clk.Now(), sw, ActionRecover, "error: "+err.Error())
		}
	case ActionDemote:
		n, err := a.ctl.Demote(sw, func() {
			unbusy()
			a.record(a.clk.Now(), sw, ActionDemoteDone, "")
		})
		if err != nil {
			a.mu.Lock()
			a.busy = false
			a.demoted[sw] = false
			a.refundLocked(now, sw)
			a.mu.Unlock()
			a.record(now, sw, ActionDemote, "error: "+err.Error())
			return
		}
		a.record(now, sw, ActionDemote, fmt.Sprintf("%d groups", n))
	case ActionRehome:
		plans := a.cfg.Placer(sw)
		if len(plans) == 0 {
			// Nothing to move: refund the budget but keep the latch —
			// the verdict persists, and re-asking the placer every tick
			// would spam the history with identical refusals. The latch
			// re-arms when the verdict clears.
			a.mu.Lock()
			a.busy = false
			a.refundLocked(now, sw)
			a.mu.Unlock()
			a.record(now, sw, ActionRehome, "no plan")
			return
		}
		err := a.ctl.Rehome(plans, func() {
			unbusy()
			a.record(a.clk.Now(), sw, ActionRehomeDone, "")
		})
		if err != nil {
			a.mu.Lock()
			a.busy = false
			delete(a.rehomed, sw)
			a.refundLocked(now, sw)
			a.mu.Unlock()
			a.record(now, sw, ActionRehome, "error: "+err.Error())
			return
		}
		a.record(now, sw, ActionRehome, fmt.Sprintf("%d groups", len(plans)))
	case ActionRestore:
		n, err := a.ctl.Restore(sw, func() {
			unbusy()
			a.record(a.clk.Now(), sw, ActionRestoreDone, "")
		})
		if err != nil {
			a.mu.Lock()
			a.busy = false
			a.demoted[sw] = true
			a.refundLocked(now, sw)
			a.mu.Unlock()
			a.record(now, sw, ActionRestore, "error: "+err.Error())
			return
		}
		a.record(now, sw, ActionRestore, fmt.Sprintf("%d groups", n))
	}
}
