package experiments

import (
	"os"
	"strconv"
	"testing"
	"time"

	"netchain/internal/controller"
	"netchain/internal/event"
	"netchain/internal/health"
	"netchain/internal/netsim"
)

// fabricSweepSeeds sizes the fabric chaos matrix: 3 seeds per schedule by
// default (the smoke battery, ~2 s wall), overridable via
// NETCHAIN_SWEEP_SEEDS=100 for the nightly sweep.
func fabricSweepSeeds(t *testing.T) int64 {
	if env := os.Getenv("NETCHAIN_SWEEP_SEEDS"); env != "" {
		n, err := strconv.ParseInt(env, 10, 64)
		if err != nil || n < 1 {
			t.Fatalf("bad NETCHAIN_SWEEP_SEEDS=%q", env)
		}
		return n
	}
	return 3
}

// TestChaosFabricSmoke runs the full nemesis — duplication, reordering,
// the half-open partition on group 0's mid→tail path, a gray tail leaf,
// and a fail-stop of the mid leaf — on the 20-switch fattree:4 fabric
// with bottleneck-aware placement and the autopilot doing every repair.
// The linearizability obligation does not shrink when the topology grows.
func TestChaosFabricSmoke(t *testing.T) {
	var first *ChaosResult
	for seed := int64(1); seed <= 3; seed++ {
		res, err := RunChaos(ChaosOpts{
			Topology: "fattree:4", Schedule: "full-nemesis", Seed: seed, Autopilot: true,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Topology != "fattree:4" {
			t.Fatalf("seed %d: ran on %q", seed, res.Topology)
		}
		if !res.Lin.OK {
			t.Fatalf("seed %d: history not linearizable (key %s): %s\n%s",
				seed, res.Lin.Key, res.Lin.Reason, res.DumpHistory())
		}
		if res.Ops < 400 {
			t.Fatalf("seed %d: history too thin: %d ops", seed, res.Ops)
		}
		if res.Failovers != 1 {
			t.Fatalf("seed %d: %d failovers, want exactly 1:\n%v", seed, res.Failovers, res.Repairs)
		}
		if !res.ChainsRepaired {
			t.Fatalf("seed %d: chains not fully re-replicated off the dead leaf:\n%v",
				seed, res.Repairs)
		}
		if res.DetectLatency <= 0 || res.RepairLatency <= 0 {
			t.Fatalf("seed %d: missing MTTR milestones: detect=%v repair=%v",
				seed, res.DetectLatency, res.RepairLatency)
		}
		if seed == 1 {
			first = res
		}
	}
	// Determinism holds on the big fabric too: same seed, same fingerprint.
	again, err := RunChaos(ChaosOpts{
		Topology: "fattree:4", Schedule: "full-nemesis", Seed: 1, Autopilot: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if again.Fingerprint != first.Fingerprint {
		t.Fatalf("same seed diverged on fattree:4:\n  %s\n  %s",
			first.Fingerprint, again.Fingerprint)
	}
}

// TestChaosFabricSweep is the fabric arm of the nightly matrix: every
// nemesis schedule × N seeds on fattree:4 with the autopilot enabled.
// Same obligations as the testbed sweep — every history linearizes,
// schedules without a fail-stop never evict, the fail-stop schedule ends
// fully re-replicated.
func TestChaosFabricSweep(t *testing.T) {
	seeds := fabricSweepSeeds(t)
	for _, name := range ChaosScheduleNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc := chaosScenarios()[name]
			for seed := int64(1); seed <= seeds; seed++ {
				res, err := RunChaos(ChaosOpts{
					Topology: "fattree:4", Schedule: name, Seed: seed, Autopilot: true,
				})
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
				if sc.failover && !res.ChainsRepaired {
					t.Fatalf("seed %d: chains not fully repaired:\n%v", seed, res.Repairs)
				}
			}
		})
	}
}

// TestFabricCongestionRehome is the end-to-end congestion story: a chain
// leaf on fattree:4 develops sustained queueing delay (probe RTTs inflate,
// loss and drop channels stay clean), the detector's Congested verdict
// fires, and the autopilot answers with the fabric's CongestionPlacer —
// moving every chain off the congested leaf without a single failover or
// demotion. This is the PR 5 autopilot loop closed over the new fabric
// substrate.
func TestFabricCongestionRehome(t *testing.T) {
	d, err := NewDeployment(FabricOpts{
		Spec:         netsim.TopoSpec{Kind: "fattree", K: 4},
		Scale:        1,
		VNodes:       2,
		Seed:         1,
		HostsPerLeaf: 1,
		Spares:       1,
		Placement:    "bottleneck",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := chaosController(d); err != nil {
		t.Fatal(err)
	}

	congested := d.Ctl.GroupRoute(0).Hops[2] // group 0's tail leaf
	hb := 500 * time.Microsecond
	dcfg := health.Config{
		HeartbeatEvery: hb,
		// Decouple the two RTT verdicts: the extra delay injected below
		// must clear the congestion bar while staying far under the gray
		// bar, so the only escalation path under test is the rehome.
		GrayRTTFactor:    200,
		CongestRTTFactor: 2,
	}
	h, err := StartAutopilot(d, AutopilotOpts{Heartbeat: hb, Detector: &dcfg})
	if err != nil {
		t.Fatal(err)
	}

	// 30 ms of clean baseline, then sustained queueing on the tail leaf:
	// +100 µs per frame, zero loss — exactly the signature that must read
	// as Congested, not Gray and never FailStop.
	nm := netsim.RunSchedule(d.Net, netsim.Schedule{{
		Name: "queueing", At: msec(30), For: msec(120),
		Fault: netsim.GraySwitch{
			Addr: congested,
			G:    netsim.Gray{ExtraDelay: event.Duration(100 * time.Microsecond)},
		},
	}})
	d.Sim.At(msec(200), h.Stop)
	d.Sim.Run()
	if err := nm.Err(); err != nil {
		t.Fatal(err)
	}

	// Probes to some non-chain switches transit the congested leaf (the
	// monitor is homed on the first two cores, so second-stripe aggs are
	// reached through an edge), and the detector rightly reads their paths
	// as congested too — the placer answers those with "no plan" and moves
	// nothing. Only the congested leaf itself may produce a plan.
	var rehomes, done int
	for _, ev := range h.Pilot.History() {
		switch ev.Action {
		case controller.ActionRehome:
			if ev.Switch == congested {
				rehomes++
			} else if ev.Detail != "no plan" {
				t.Fatalf("moved chains for a switch with none: %v\n%v", ev, h.Pilot.History())
			}
		case controller.ActionRehomeDone:
			done++
		case controller.ActionFailover, controller.ActionDemote, controller.ActionRecover:
			t.Fatalf("congestion escalated beyond rehome: %v\n%v", ev, h.Pilot.History())
		}
	}
	if rehomes == 0 {
		t.Fatalf("sustained congestion never triggered a rehome:\n%s\n%v",
			h.HealthString(), h.Pilot.History())
	}
	if done == 0 {
		t.Fatalf("rehome never completed:\n%v", h.Pilot.History())
	}
	// The chains actually moved: no route runs through the congested leaf.
	for g, rt := range d.Ctl.Routes() {
		for _, hop := range rt.Hops {
			if hop == congested {
				t.Fatalf("group %d still routed through congested leaf %v: %v",
					g, congested, rt.Hops)
			}
		}
	}
}
