package netchain

import (
	"testing"
	"time"

	"netchain/internal/controller"
	"netchain/internal/health"
)

// TestSimClusterSelfHeals drives the public self-healing surface: enable
// the autopilot, kill a chain switch with NO controller notification, and
// watch the cluster detect the failure, fail over, and recover onto the
// spare — then keep serving reads and writes correctly.
func TestSimClusterSelfHeals(t *testing.T) {
	c, err := NewSimCluster(SimConfig{Scale: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableAutopilot(); err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{42}
	if err := c.Insert(key); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Write(key, Value{1}); err != nil {
		t.Fatal(err)
	}
	c.RunFor(20 * time.Millisecond) // detector warmup

	snap := c.HealthSnapshot()
	if len(snap) != 4 {
		t.Fatalf("health snapshot covers %d switches, want 4", len(snap))
	}
	for _, h := range snap {
		if h.Verdict != health.Healthy {
			t.Fatalf("switch %v is %v before any fault", h.Addr, h.Verdict)
		}
	}

	if err := c.KillSwitch(1); err != nil {
		t.Fatal(err)
	}
	// Detection lands within a few ms; the 24 affected virtual groups
	// then recover sequentially at the default 10 ms rule delay.
	c.RunFor(time.Second)

	var failover, recovered bool
	for _, ev := range c.RepairHistory() {
		switch ev.Action {
		case controller.ActionFailover:
			failover = true
		case controller.ActionRecoverDone:
			recovered = true
		}
	}
	if !failover || !recovered {
		t.Fatalf("autopilot did not heal the cluster: %v", c.RepairHistory())
	}

	// The healed cluster still serves.
	if _, err := cl.Write(key, Value{2}); err != nil {
		t.Fatalf("write after self-heal: %v", err)
	}
	got, _, err := cl.Read(key)
	if err != nil {
		t.Fatalf("read after self-heal: %v", err)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("read after self-heal = %v, want [2]", got)
	}

	// Elastic membership still works (and terminates) with the
	// autopilot's background loops keeping the event queue busy — the
	// blocking verbs must step to their own completion, not drain the
	// simulator.
	if _, err := c.AddSwitch(); err != nil {
		t.Fatalf("scale-out with autopilot running: %v", err)
	}
	if v, _, err := cl.Read(key); err != nil || len(v) != 1 || v[0] != 2 {
		t.Fatalf("read after scale-out = %v, %v", v, err)
	}
}

// healthOf returns sw's health row, if the detector tracks it.
func healthOf(c *SimCluster, sw int) (health.SwitchHealth, bool) {
	addr, _ := c.SwitchAddr(sw)
	for _, h := range c.HealthSnapshot() {
		if h.Addr == addr {
			return h, true
		}
	}
	return health.SwitchHealth{}, false
}

// failedOver reports whether the autopilot has failed switch sw over.
func failedOver(c *SimCluster, sw int) bool {
	addr, _ := c.SwitchAddr(sw)
	for _, ev := range c.RepairHistory() {
		if ev.Action == controller.ActionFailover && ev.Switch == addr {
			return true
		}
	}
	return false
}

// TestSimAutopilotBeatsAttachedSwitch: a switch cabled in after the
// autopilot started heartbeats like every other switch, so its health row
// reflects beacons, not just probes.
func TestSimAutopilotBeatsAttachedSwitch(t *testing.T) {
	c, err := NewSimCluster(SimConfig{Scale: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableAutopilot(); err != nil {
		t.Fatal(err)
	}
	idx, err := c.AddSwitch()
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(20 * time.Millisecond)
	h, ok := healthOf(c, idx)
	if !ok || h.Heartbeats == 0 || h.Verdict != health.Healthy {
		t.Fatalf("attached switch %d: tracked=%v %+v, want healthy with heartbeats", idx, ok, h)
	}
	if err := c.KillSwitch(idx); err != nil {
		t.Fatal(err)
	}
	c.RunFor(100 * time.Millisecond)
	if !failedOver(c, idx) {
		t.Fatalf("dead attached switch %d never failed over: %v", idx, c.RepairHistory())
	}
}
