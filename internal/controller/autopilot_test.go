package controller

import (
	"slices"
	"strings"
	"testing"
	"time"

	"netchain/internal/event"
	"netchain/internal/health"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/ring"
)

// TestDemoteRestoreReordersChains: demotion moves the gray switch out of
// every tail slot without changing membership or losing data; restore
// re-adopts the ring order.
func TestDemoteRestoreReordersChains(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SyncPerItem = 0
	f := newFixture(t, cfg, 4)
	gray := f.tb.Switches[2]

	// Insert a key on a chain whose tail is the gray switch, write a
	// value through the chain, and remember its route.
	var key kv.Key
	var rt Route
	found := false
	for i := uint64(0); i < 4000 && !found; i++ {
		k := kv.KeyFromUint64(i)
		r := f.ctl.Route(k)
		if len(r.Hops) == 3 && r.Hops[2] == gray {
			var err error
			rt, err = f.ctl.Insert(k)
			if err != nil {
				t.Fatal(err)
			}
			key, found = k, true
		}
	}
	if !found {
		t.Fatal("no chain has the gray switch as tail")
	}
	if rep, ok := f.do(t, 0, func(ep query.Endpoint, qid uint64) (*packet.Frame, error) {
		return query.NewWrite(ep, qid, query.Route{Group: rt.Group, Hops: rt.Hops}, key, kv.Value("v1"))
	}); !ok || rep.Status != kv.StatusOK {
		t.Fatalf("preload write failed: %+v ok=%v", rep, ok)
	}

	tails := func(sw packet.Addr) int {
		n := 0
		for _, r := range f.ctl.Routes() {
			if len(r.Hops) > 0 && r.Hops[len(r.Hops)-1] == sw {
				n++
			}
		}
		return n
	}
	before := tails(gray)
	if before == 0 {
		t.Fatal("gray switch serves no tails before demotion")
	}

	done := false
	n, err := f.ctl.Demote(gray, func() { done = true })
	if err != nil {
		t.Fatal(err)
	}
	f.sim.Run()
	if !done || n != before {
		t.Fatalf("demote: done=%v migrated=%d want %d", done, n, before)
	}
	if got := tails(gray); got != 0 {
		t.Fatalf("gray switch still tail of %d groups after demotion", got)
	}
	// Membership must be unchanged: the demoted switch stays a replica.
	for g, r := range f.ctl.Routes() {
		ch := ring.Chain{Group: ring.GroupID(g), Hops: r.Hops}
		if len(r.Hops) == 3 && !ch.Contains(gray) {
			t.Fatalf("group %d lost the demoted switch from its chain", g)
		}
	}

	// The moved key still reads correctly from the new tail.
	nrt := f.ctl.Route(key)
	if nrt.Hops[len(nrt.Hops)-1] == gray {
		t.Fatal("route still ends at the demoted switch")
	}
	if rep, ok := f.do(t, 0, func(ep query.Endpoint, qid uint64) (*packet.Frame, error) {
		return query.NewRead(ep, qid, query.Route{Group: nrt.Group, Hops: nrt.Hops}, key)
	}); !ok || rep.Status != kv.StatusOK || string(rep.Value) != "v1" {
		t.Fatalf("read after demotion: %+v ok=%v", rep, ok)
	}

	// Restore: ring order comes back.
	done = false
	rn, err := f.ctl.Restore(gray, func() { done = true })
	if err != nil {
		t.Fatal(err)
	}
	f.sim.Run()
	if !done || rn != before {
		t.Fatalf("restore: done=%v migrated=%d want %d", done, rn, before)
	}
	if got := tails(gray); got != before {
		t.Fatalf("restore left %d tails on the switch, want %d", got, before)
	}
}

// TestDemoteFailedSwitchRefused: demotion of a failed-over switch is an
// error — Recover owns that path.
func TestDemoteFailedSwitchRefused(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 2)
	s1 := f.tb.Switches[1]
	if err := f.ctl.HandleFailure(s1, nil); err != nil {
		t.Fatal(err)
	}
	f.sim.Run()
	if _, err := f.ctl.Demote(s1, nil); err == nil {
		t.Fatal("demote of a failed switch succeeded")
	}
}

// pilotFixture wires a detector + autopilot over the standard fixture,
// with the spare S3 as the recovery pool. mut may adjust the autopilot
// config before construction.
func pilotFixture(t *testing.T, mut func(*fixture, *AutopilotConfig)) (*fixture, *health.Detector, *Autopilot) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SyncPerItem = 0
	cfg.RuleDelay = time.Millisecond
	f := newFixture(t, cfg, 2)
	det := health.NewDetector(health.Config{HeartbeatEvery: time.Millisecond})
	pcfg := AutopilotConfig{Spares: []packet.Addr{f.tb.Switches[3]}}
	if mut != nil {
		mut(f, &pcfg)
	}
	ap := NewAutopilot(f.ctl, det, f.sim.Clock(), pcfg)
	for _, sw := range f.tb.Switches {
		det.Track(sw, 0)
	}
	return f, det, ap
}

// feed pumps healthy heartbeats+probes for every switch except the
// excluded ones, advancing the simulated clock.
func feed(f *fixture, det *health.Detector, beats int, every time.Duration,
	rtt map[packet.Addr]time.Duration, skip map[packet.Addr]bool) {
	for i := 0; i < beats; i++ {
		f.sim.RunFor(event.Duration(every))
		now := time.Duration(f.sim.Now())
		for _, sw := range f.tb.Switches {
			if skip[sw] {
				continue
			}
			det.Heartbeat(sw, now, health.Payload{Processed: uint64(i)})
			r := 5 * time.Microsecond
			if rtt != nil {
				if v, ok := rtt[sw]; ok {
					r = v
				}
			}
			det.ProbeReply(sw, now, r)
		}
	}
}

// countActions tallies the repair history by action.
func countActions(ap *Autopilot) map[RepairAction]int {
	out := map[RepairAction]int{}
	for _, ev := range ap.History() {
		out[ev.Action]++
	}
	return out
}

// TestAutopilotFailStopRepairs: heartbeats stop for S1 → the autopilot
// runs fast failover and then recovery onto the spare, hands-free, and
// every chain ends fully repaired.
func TestAutopilotFailStopRepairs(t *testing.T) {
	f, det, ap := pilotFixture(t, nil)
	s1 := f.tb.Switches[1]
	ap.Start()

	hb := time.Millisecond
	feed(f, det, 20, hb, nil, nil) // healthy warmup
	// S1 dies: no more heartbeats, no more probe replies from it.
	f.tb.Net.FailSwitch(s1)
	feed(f, det, 60, hb, nil, map[packet.Addr]bool{s1: true})
	ap.Stop()
	f.sim.Run()

	acts := countActions(ap)
	if acts[ActionFailover] != 1 || acts[ActionRecover] != 1 || acts[ActionRecoverDone] != 1 {
		t.Fatalf("repair history incomplete: %v\n%v", acts, ap.History())
	}
	for g, r := range f.ctl.Routes() {
		if len(r.Hops) != 3 {
			t.Fatalf("group %d not fully re-replicated: %v", g, r.Hops)
		}
		for _, h := range r.Hops {
			if h == s1 {
				t.Fatalf("group %d still routes through the dead switch", g)
			}
		}
	}
}

// TestAutopilotGrayDemotesNotEvicts: sustained probe-RTT inflation on S2
// latches a gray verdict; the autopilot demotes it (no failover, no
// recovery) and restores it once quality recovers.
func TestAutopilotGrayDemotesNotEvicts(t *testing.T) {
	f, det, ap := pilotFixture(t, nil)
	s2 := f.tb.Switches[2]
	ap.Start()

	hb := time.Millisecond
	feed(f, det, 20, hb, nil, nil)
	// Gray: S2's probes come back 40× slow, heartbeats keep flowing.
	feed(f, det, 20, hb, map[packet.Addr]time.Duration{s2: 200 * time.Microsecond}, nil)
	if !slices.Contains(ap.Demoted(), s2) {
		t.Fatalf("gray switch not demoted; history: %v", ap.History())
	}
	acts := countActions(ap)
	if acts[ActionFailover] != 0 || acts[ActionRecover] != 0 {
		t.Fatalf("gray degradation triggered eviction: %v", acts)
	}
	// Recovery of quality → restore (cooldown must pass first).
	feed(f, det, 60, hb, nil, nil)
	ap.Stop()
	f.sim.Run()
	if slices.Contains(ap.Demoted(), s2) {
		t.Fatalf("healed switch still demoted; history: %v", ap.History())
	}
	acts = countActions(ap)
	if acts[ActionDemote] != 1 || acts[ActionRestore] != 1 {
		t.Fatalf("expected one demote + one restore: %v\n%v", acts, ap.History())
	}
}

// TestAutopilotBudgetHoldsUnderFlapping: a verdict oscillating every few
// intervals must not thrash migrations — the budget window and per-switch
// cooldown cap the repair count.
func TestAutopilotBudgetHoldsUnderFlapping(t *testing.T) {
	f, det, ap := pilotFixture(t, func(_ *fixture, c *AutopilotConfig) {
		c.RepairBudget = 2
		// One window spanning the whole run: the cap is absolute here.
		c.BudgetWindow = 500 * time.Millisecond
		c.Cooldown = 5 * time.Millisecond
	})
	budget := ap.Config().RepairBudget
	s2 := f.tb.Switches[2]
	ap.Start()

	hb := time.Millisecond
	feed(f, det, 20, hb, nil, nil)
	// Flap: quality oscillates fast enough that, unguarded, the loop
	// would demote/restore every few ticks.
	for cycle := 0; cycle < 12; cycle++ {
		feed(f, det, 8, hb, map[packet.Addr]time.Duration{s2: 200 * time.Microsecond}, nil)
		feed(f, det, 8, hb, nil, nil)
	}
	ap.Stop()
	f.sim.Run()

	acts := countActions(ap)
	moving := acts[ActionDemote] + acts[ActionRestore] + acts[ActionRecover]
	if moving > budget {
		t.Fatalf("flapping produced %d data-moving repairs, budget %d:\n%v",
			moving, budget, ap.History())
	}
	if acts[ActionFailover] != 0 {
		t.Fatalf("flapping gray escalated to failover: %v", acts)
	}
	if ap.Deferred() == 0 {
		t.Fatal("no deferred repairs recorded — the flap never pressured the budget")
	}
}

// TestAutopilotReadmittedSwitchRepairsAgain: fail → autonomous repair →
// operator readmits the fixed switch via AddSwitch (which clears the
// controller's failed flag) → heartbeats resume and the autopilot's
// failover latch releases → a second fail-stop is detected and repaired
// exactly like the first.
func TestAutopilotReadmittedSwitchRepairsAgain(t *testing.T) {
	f, det, ap := pilotFixture(t, nil)
	s1 := f.tb.Switches[1]
	ap.Start()
	hb := time.Millisecond

	feed(f, det, 20, hb, nil, nil)
	f.tb.Net.FailSwitch(s1)
	feed(f, det, 60, hb, nil, map[packet.Addr]bool{s1: true})
	if acts := countActions(ap); acts[ActionRecoverDone] != 1 {
		t.Fatalf("first repair incomplete: %v\n%v", acts, ap.History())
	}

	// The box is fixed and readmitted. Its heartbeats resume, the latch
	// clears, and it rejoins the ring with fresh virtual nodes.
	if err := f.tb.Net.RestoreSwitch(s1); err != nil {
		t.Fatal(err)
	}
	feed(f, det, 40, hb, nil, nil)
	done := false
	if _, err := f.ctl.AddSwitch(s1, func() { done = true }); err != nil {
		t.Fatalf("readmission: %v", err)
	}
	// Keep heartbeats flowing while the migration's simulated time
	// passes — real agents don't stop beating during a resize.
	for i := 0; !done && i < 1000; i++ {
		feed(f, det, 1, hb, nil, nil)
	}
	if !done {
		t.Fatal("readmission migration did not finish")
	}
	feed(f, det, 30, hb, nil, nil)

	// The readmitted switch must actually serve again: its neighbors'
	// stale failover rules are gone, so a write through a chain that
	// includes it commits on all three replicas and reads back.
	var key kv.Key
	var rt Route
	foundChain := false
	for i := uint64(5000); i < 9000 && !foundChain; i++ {
		k := kv.KeyFromUint64(i)
		r := f.ctl.Route(k)
		ch := ring.Chain{Hops: r.Hops}
		if len(r.Hops) == 3 && ch.Contains(s1) {
			var err error
			rt, err = f.ctl.Insert(k)
			if err != nil {
				t.Fatal(err)
			}
			key, foundChain = k, true
		}
	}
	if !foundChain {
		t.Fatal("no chain includes the readmitted switch")
	}
	// f.do drains the simulator, which never quiesces while the
	// autopilot ticks — step until the reply lands instead.
	doStep := func(build func(ep query.Endpoint, qid uint64) (*packet.Frame, error)) (query.Reply, bool) {
		f.nextQID++
		qid := f.nextQID
		fr, err := build(f.ep(0), qid)
		if err != nil {
			t.Fatal(err)
		}
		f.tb.Net.Inject(f.tb.Hosts[0], fr)
		for {
			if rep, ok := f.replies[qid]; ok {
				return rep, true
			}
			if !f.sim.Step() {
				return query.Reply{}, false
			}
		}
	}
	if rep, ok := doStep(func(ep query.Endpoint, qid uint64) (*packet.Frame, error) {
		return query.NewWrite(ep, qid, query.Route{Group: rt.Group, Hops: rt.Hops}, key, kv.Value("back"))
	}); !ok || rep.Status != kv.StatusOK {
		t.Fatalf("write through readmitted chain: %+v ok=%v", rep, ok)
	}
	if rep, ok := doStep(func(ep query.Endpoint, qid uint64) (*packet.Frame, error) {
		return query.NewRead(ep, qid, query.Route{Group: rt.Group, Hops: rt.Hops}, key)
	}); !ok || rep.Status != kv.StatusOK || string(rep.Value) != "back" {
		t.Fatalf("read through readmitted chain: %+v ok=%v", rep, ok)
	}

	// Second failure of the same switch.
	f.tb.Net.FailSwitch(s1)
	feed(f, det, 80, hb, nil, map[packet.Addr]bool{s1: true})
	ap.Stop()
	f.sim.Run()

	acts := countActions(ap)
	if acts[ActionFailover] != 2 || acts[ActionRecoverDone] != 2 {
		t.Fatalf("second failure not repaired: %v\n%v", acts, ap.History())
	}
	for g, r := range f.ctl.Routes() {
		for _, h := range r.Hops {
			if h == s1 {
				t.Fatalf("group %d still routes through the re-dead switch", g)
			}
		}
	}
}

// TestAutopilotBlindnessGuard: when every switch goes silent at once,
// the overwhelmingly likely cause is the monitor's own view going dark —
// the autopilot must not evict the whole cluster on that evidence.
func TestAutopilotBlindnessGuard(t *testing.T) {
	f, det, ap := pilotFixture(t, nil)
	ap.Start()
	hb := time.Millisecond
	feed(f, det, 20, hb, nil, nil)
	// Total silence: nobody heartbeats, nobody answers probes.
	skipAll := map[packet.Addr]bool{}
	for _, sw := range f.tb.Switches {
		skipAll[sw] = true
	}
	feed(f, det, 60, hb, nil, skipAll)
	acts := countActions(ap)
	if acts[ActionFailover] != 0 || acts[ActionRecover] != 0 {
		t.Fatalf("blind autopilot evicted the cluster: %v\n%v", acts, ap.History())
	}
	if ap.Deferred() == 0 {
		t.Fatal("guard never engaged — the silence was not even noticed")
	}
	// Vision returns: no lasting damage, normal operation resumes.
	feed(f, det, 30, hb, nil, nil)
	s1 := f.tb.Switches[1]
	f.tb.Net.FailSwitch(s1)
	feed(f, det, 60, hb, nil, map[packet.Addr]bool{s1: true})
	ap.Stop()
	f.sim.Run()
	acts = countActions(ap)
	if acts[ActionFailover] != 1 || acts[ActionRecoverDone] != 1 {
		t.Fatalf("single failure after blindness not repaired: %v\n%v", acts, ap.History())
	}
}

// TestAutopilotNonMemberFailStopIgnored: switches the detector tracks but
// the ring does not contain — a fabric's transit tier, or the held-out
// spare — going dark is a routing event, not a chain membership event.
// The autopilot must not try to fail over or recover them (chain repair
// on a non-member just loops on "not a member" errors), and a dead spare
// must drop out of the recovery pool rather than poison it.
func TestAutopilotNonMemberFailStopIgnored(t *testing.T) {
	f, det, ap := pilotFixture(t, nil)
	ap.Start()
	hb := time.Millisecond
	s3 := f.tb.Switches[3] // tracked spare, not a ring member
	feed(f, det, 20, hb, nil, nil)
	// The spare goes completely dark: no heartbeats, no probe echoes.
	feed(f, det, 60, hb, nil, map[packet.Addr]bool{s3: true})
	for _, ev := range ap.History() {
		if ev.Switch == s3 {
			t.Fatalf("autopilot ran chain repair on the non-member spare: %v\n%v",
				ev, ap.History())
		}
	}
	// Member repair is unaffected by the gate: S1 dies and is failed over
	// — and the recovery pool correctly falls back to the dead spare only
	// because it is the sole candidate (a thin chain beats none).
	s1 := f.tb.Switches[1]
	f.tb.Net.FailSwitch(s1)
	feed(f, det, 80, hb, nil, map[packet.Addr]bool{s1: true, s3: true})
	ap.Stop()
	f.sim.Run()
	if acts := countActions(ap); acts[ActionFailover] != 1 {
		t.Fatalf("member fail-stop not failed over with gate active: %v\n%v",
			acts, ap.History())
	}
}

// TestAutopilotRecoverRefusedRetries: the controller refuses a Recover
// (the only spare is a member of the 3-member ring, so reassigning the dead
// switch's vnodes would leave 2 switches for 3-replica chains). The refusal
// is recorded, its budget charge is returned — with a budget of one repair
// per run, the retry still fits — and the retry comes recoverRetry
// heartbeats later.
func TestAutopilotRecoverRefusedRetries(t *testing.T) {
	f, det, ap := pilotFixture(t, func(f *fixture, c *AutopilotConfig) {
		c.RepairBudget = 1
		c.BudgetWindow = time.Second
		c.Spares = []packet.Addr{f.tb.Switches[2]}
	})
	s1 := f.tb.Switches[1]
	hb := time.Millisecond
	ap.Start()
	feed(f, det, 20, hb, nil, nil)
	f.tb.Net.FailSwitch(s1)
	feed(f, det, 60, hb, nil, map[packet.Addr]bool{s1: true})
	ap.Stop()
	f.sim.Run()

	var refused []time.Duration
	for _, ev := range ap.History() {
		if ev.Action == ActionRecoverDone {
			t.Fatalf("recovery onto a ring member finished:\n%v", ap.History())
		}
		if ev.Action == ActionRecover && strings.HasPrefix(ev.Detail, "error: ") {
			if ev.Switch != s1 || !strings.Contains(ev.Detail, "leaves 2 switches for 3-replica chains") {
				t.Fatalf("unexpected refusal %v", ev)
			}
			refused = append(refused, ev.At)
		}
	}
	if len(refused) < 2 {
		t.Fatalf("want a refused recover and its retry, got %d refusals:\n%v", len(refused), ap.History())
	}
	for i := 1; i < len(refused); i++ {
		if gap := refused[i] - refused[i-1]; gap != recoverRetry*hb {
			t.Fatalf("retry %d came %v after the refusal, want %v:\n%v", i, gap, recoverRetry*hb, ap.History())
		}
	}
	if d := ap.Deferred(); d != 0 {
		t.Fatalf("%d repairs deferred: a refused recover kept its budget charge:\n%v", d, ap.History())
	}
}

// TestAutopilotPoolSkipsFailedSpare: of two spares, the first was failed
// over by an operator (HandleFailure) behind the autopilot's back, and its
// heartbeats still look healthy. The controller refuses any Recover whose
// pool holds it, so the autopilot must leave it out and recover onto the
// second spare.
func TestAutopilotPoolSkipsFailedSpare(t *testing.T) {
	f, det, ap := pilotFixture(t, func(f *fixture, c *AutopilotConfig) {
		s4, err := f.tb.AddSwitch()
		if err != nil {
			t.Fatal(err)
		}
		c.Spares = append(c.Spares, s4)
	})
	s1, s3, s4 := f.tb.Switches[1], f.tb.Switches[3], f.tb.Switches[4]
	det.Track(s4, 0)
	hb := time.Millisecond
	ap.Start()
	feed(f, det, 20, hb, nil, nil)
	if err := f.ctl.HandleFailure(s3, nil); err != nil {
		t.Fatal(err)
	}
	if !f.ctl.Failed(s3) || f.ctl.Failed(s4) {
		t.Fatalf("Failed(s3)=%v Failed(s4)=%v, want true, false", f.ctl.Failed(s3), f.ctl.Failed(s4))
	}
	f.tb.Net.FailSwitch(s1)
	feed(f, det, 60, hb, nil, map[packet.Addr]bool{s1: true})
	ap.Stop()
	f.sim.Run()

	recovered := false
	for _, ev := range ap.History() {
		if ev.Action == ActionRecover && strings.HasPrefix(ev.Detail, "error: ") {
			t.Fatalf("recover refused: %v\n%v", ev, ap.History())
		}
		recovered = recovered || (ev.Action == ActionRecoverDone && ev.Switch == s1)
	}
	if !recovered {
		t.Fatalf("no recovery of %v:\n%v", s1, ap.History())
	}
	for _, rt := range f.ctl.Routes() {
		if len(rt.Hops) != 3 || slices.Contains(rt.Hops, s1) || slices.Contains(rt.Hops, s3) {
			t.Fatalf("group %d chain %v after recovery onto %v", rt.Group, rt.Hops, s4)
		}
	}
}
