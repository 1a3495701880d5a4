package experiments

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"netchain/internal/controller"
	"netchain/internal/event"
	"netchain/internal/netsim"
)

// sweepSeeds returns how many seeds per schedule the autopilot sweep
// covers: 100 by default (the acceptance criterion — ~7 s wall), trimmed
// under -short, overridable via NETCHAIN_SWEEP_SEEDS for the nightly
// matrix.
func sweepSeeds(t *testing.T) int64 {
	if env := os.Getenv("NETCHAIN_SWEEP_SEEDS"); env != "" {
		n, err := strconv.ParseInt(env, 10, 64)
		if err != nil || n < 1 {
			t.Fatalf("bad NETCHAIN_SWEEP_SEEDS=%q", env)
		}
		return n
	}
	if testing.Short() {
		return 10
	}
	return 100
}

// TestAutopilotChaosSweep is the self-healing acceptance battery: every
// nemesis schedule × N seeds with the autopilot enabled and NO manual
// HandleFailure/Recover calls — the φ-accrual detector fires every
// repair. Each history must linearize; schedules without a fail-stop must
// produce zero fail-stop evictions (the gray-tail false-eviction
// regression); the fail-stop schedule must end with every chain fully
// re-replicated off the dead switch.
func TestAutopilotChaosSweep(t *testing.T) {
	seeds := sweepSeeds(t)
	for _, name := range ChaosScheduleNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc := chaosScenarios()[name]
			for seed := int64(1); seed <= seeds; seed++ {
				res, err := RunChaos(ChaosOpts{Schedule: name, Seed: seed, Autopilot: true})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !res.Lin.OK {
					t.Fatalf("seed %d: history not linearizable (key %s): %s",
						seed, res.Lin.Key, res.Lin.Reason)
				}
				if !sc.failover && res.Failovers > 0 {
					t.Fatalf("seed %d: %d false fail-stop evictions without a fail-stop fault:\n%v",
						seed, res.Failovers, res.Repairs)
				}
				if sc.failover {
					if res.Failovers != 1 {
						t.Fatalf("seed %d: %d failovers, want exactly 1", seed, res.Failovers)
					}
					if !res.ChainsRepaired {
						t.Fatalf("seed %d: chains not fully repaired:\n%v", seed, res.Repairs)
					}
					if res.DetectLatency <= 0 || res.RepairLatency <= 0 {
						t.Fatalf("seed %d: missing MTTR milestones: detect=%v repair=%v",
							seed, res.DetectLatency, res.RepairLatency)
					}
				}
			}
		})
	}
}

// TestAutopilotGrayTailNoEviction is the dedicated gray regression at
// full size: the gray-tail schedule must demote (drain reads off the
// degraded tail) and restore after healing — never evict.
func TestAutopilotGrayTailNoEviction(t *testing.T) {
	res, err := RunChaos(ChaosOpts{Schedule: "gray-tail", Seed: 1, Autopilot: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Lin.OK {
		t.Fatalf("not linearizable (key %s): %s", res.Lin.Key, res.Lin.Reason)
	}
	if res.Failovers != 0 {
		t.Fatalf("gray tail falsely evicted:\n%v", res.Repairs)
	}
	if res.Demotions == 0 {
		t.Fatalf("gray tail never demoted — the detector slept through it:\n%v", res.Health)
	}
	if res.DetectLatency <= 0 {
		t.Fatalf("no detection latency recorded: %v", res.DetectLatency)
	}
	restored := false
	for _, ev := range res.Repairs {
		if ev.Action == controller.ActionRestoreDone {
			restored = true
		}
	}
	if !restored {
		t.Fatalf("healed switch never restored to ring order:\n%v", res.Repairs)
	}
	t.Logf("gray-tail: detect=%v repair=%v repairs=%d", res.DetectLatency, res.RepairLatency, len(res.Repairs))
}

// TestAutopilotMTTRBounds pins the self-healing loop's numbers at seed 1:
// detection latency, detection + repair (MTTR) and goodput — completed
// ops per second of simulated time — under every schedule. Everything is
// simulated time, so the values are exact today; the bounds leave 20 %.
func TestAutopilotMTTRBounds(t *testing.T) {
	ms := time.Millisecond
	bounds := map[string]struct {
		detect, mttr time.Duration // upper bounds; zero = the schedule must repair nothing
		goodput      float64       // today's ops/s
	}{
		"asym-partition": {goodput: 6968},
		"full-nemesis":   {detect: 3 * ms, mttr: 32400 * time.Microsecond, goodput: 6140}, // today 2.5 / 27 ms
		"gray-tail":      {detect: 4800 * time.Microsecond, mttr: 12 * ms, goodput: 6919}, // today 4 / 10 ms
		"reorder-dup":    {goodput: 7234},
	}
	for _, name := range ChaosScheduleNames() {
		want, ok := bounds[name]
		if !ok {
			t.Fatalf("schedule %s has no MTTR bound", name)
		}
		t.Run(name, func(t *testing.T) {
			res, err := RunChaos(ChaosOpts{Schedule: name, Seed: 1, Autopilot: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Lin.OK {
				t.Fatalf("not linearizable (key %s): %s", res.Lin.Key, res.Lin.Reason)
			}
			mttr := res.DetectLatency + res.RepairLatency
			if want.mttr == 0 {
				if mttr != 0 || res.Failovers+res.Demotions != 0 {
					t.Fatalf("repaired a schedule with nothing to repair: detect=%v repair=%v evict=%d demote=%d",
						res.DetectLatency, res.RepairLatency, res.Failovers, res.Demotions)
				}
			} else if res.DetectLatency <= 0 || res.DetectLatency > want.detect || mttr > want.mttr {
				t.Fatalf("detect=%v (want ≤ %v), detect+repair=%v (want ≤ %v)",
					res.DetectLatency, want.detect, mttr, want.mttr)
			}
			goodput := float64(res.Ops-res.Unknowns) / res.HistoryEnd.Seconds()
			if goodput < 0.8*want.goodput {
				t.Fatalf("goodput %.0f ops/s, want ≥ %.0f (80 %% of %.0f)", goodput, 0.8*want.goodput, want.goodput)
			}
		})
	}
}

// TestAutopilotDeterminism: an autopilot run is part of the determinism
// contract — same seed, same history, same repair timeline, same
// fingerprint.
func TestAutopilotDeterminism(t *testing.T) {
	a, err := RunChaos(ChaosOpts{Schedule: "full-nemesis", Seed: 3, Autopilot: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(ChaosOpts{Schedule: "full-nemesis", Seed: 3, Autopilot: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("same seed diverged:\n  %s\n  %s", a.Fingerprint, b.Fingerprint)
	}
	if len(a.Repairs) == 0 || len(a.Repairs) != len(b.Repairs) {
		t.Fatalf("repair logs diverged: %d vs %d", len(a.Repairs), len(b.Repairs))
	}
	manual, err := RunChaos(ChaosOpts{Schedule: "full-nemesis", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if manual.Fingerprint == a.Fingerprint {
		t.Fatal("autopilot and manual runs produced identical fingerprints — the autopilot changed nothing")
	}
}

// TestAutopilotFlappingLinkBudget drives a deterministic flapping
// degradation — the tail turns gray and heals every 6 ms for the whole
// run — and asserts the hysteresis (confirm/clear streaks, per-switch
// cooldown) plus the repair budget cap the number of data-moving
// migrations, while the history stays linearizable throughout.
func TestAutopilotFlappingLinkBudget(t *testing.T) {
	d, err := NewDeployment(FabricOpts{Scale: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := chaosController(d); err != nil {
		t.Fatal(err)
	}
	budget := 3
	h, err := StartAutopilot(d, AutopilotOpts{
		Pilot: &controller.AutopilotConfig{
			RepairBudget: budget,
			BudgetWindow: 400 * time.Millisecond, // spans the run: the cap is absolute
			Cooldown:     4 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 6 ms gray, 8 ms healthy, 20 cycles: slow enough that the confirm
	// and clear streaks both complete each phase — so an unguarded loop
	// would demote+restore every cycle (~40 migrations).
	tail := d.Fab.Switches[2]
	var sch netsim.Schedule
	for i := 0; i < 20; i++ {
		sch = append(sch, netsim.Step{
			Name: fmt.Sprintf("flap-%d", i),
			At:   msec(5 + 14*i), For: msec(6),
			Fault: netsim.GraySwitch{
				Addr: tail,
				G:    netsim.Gray{SlowFactor: 2e4, Loss: 0.03, ExtraDelay: event.Duration(40 * time.Microsecond)},
			},
		})
	}
	nm := netsim.RunSchedule(d.Net, sch)
	d.Sim.At(msec(320), h.Stop)
	d.Sim.Run()
	if err := nm.Err(); err != nil {
		t.Fatal(err)
	}
	moving := 0
	for _, ev := range h.Pilot.History() {
		switch ev.Action {
		case controller.ActionDemote, controller.ActionRestore, controller.ActionRecover:
			moving++
		case controller.ActionFailover:
			t.Fatalf("flapping gray escalated to eviction:\n%v", h.Pilot.History())
		}
	}
	if moving > budget {
		t.Fatalf("flapping produced %d data-moving repairs, budget %d:\n%v",
			moving, budget, h.Pilot.History())
	}
	if h.Pilot.Deferred() == 0 {
		t.Fatal("flap never pressured the budget — the schedule is too tame to test it")
	}
}

// TestAutopilotForgetStaysRetired retires the spare the instant after a
// probe round has gone out to it. Its in-flight echo, the probe's expiry
// and its beacons, which keep running as a drained box's do, must all
// leave it out of the detector, and the autopilot must repair nothing.
func TestAutopilotForgetStaysRetired(t *testing.T) {
	d, err := NewDeployment(FabricOpts{Scale: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := chaosController(d); err != nil {
		t.Fatal(err)
	}
	h, err := StartAutopilot(d, AutopilotOpts{})
	if err != nil {
		t.Fatal(err)
	}
	spare := d.Fab.Switches[3]
	// Probe rounds run every 2 heartbeats (1 ms), so one is issued at 10 ms.
	d.Sim.At(msec(10)+1, func() { h.Forget(spare) })
	d.Sim.At(msec(20), h.Stop) // 20 heartbeats on
	d.Sim.Run()
	for _, sh := range h.Det.Snapshot(time.Duration(d.Sim.Now())) {
		if sh.Addr == spare {
			t.Fatalf("retired %v back in the detector: %+v", spare, sh)
		}
	}
	if hist := h.Pilot.History(); len(hist) != 0 {
		t.Fatalf("autopilot repaired after a retirement:\n%v", hist)
	}
}
