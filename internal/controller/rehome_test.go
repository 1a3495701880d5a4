package controller

import (
	"testing"
	"time"

	"netchain/internal/health"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/ring"
)

// TestRehomeMovesGroupState: rehoming a group onto an explicitly planned
// chain copies its state to joining members, flips the route atomically,
// GCs the leaver, and keeps the key readable and writable throughout its
// new life.
func TestRehomeMovesGroupState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SyncPerItem = 0
	f := newFixture(t, cfg, 4)
	s3 := f.tb.Switches[3]
	if err := f.ctl.Ring().AddMember(s3); err != nil {
		t.Fatal(err)
	}

	k := kv.KeyFromString("rehome/x")
	rt, err := f.ctl.Insert(k)
	if err != nil {
		t.Fatal(err)
	}
	if rep, ok := f.writeVia(t, 0, rt, k, "v1"); !ok || rep.Status != kv.StatusOK {
		t.Fatalf("preload write: %+v ok=%v", rep, ok)
	}
	g := ring.GroupID(rt.Group)
	oldTail := rt.Hops[len(rt.Hops)-1]
	newHops := append(append([]packet.Addr(nil), rt.Hops[:len(rt.Hops)-1]...), s3)

	done := false
	if err := f.ctl.Rehome(map[ring.GroupID][]packet.Addr{g: newHops}, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	if !f.ctl.Resizing() {
		t.Fatal("Resizing() false while migration in flight")
	}
	f.sim.Run()
	if !done {
		t.Fatal("rehome done callback never fired")
	}
	if f.ctl.Resizing() {
		t.Fatal("Resizing() true after completion")
	}

	nrt := f.ctl.Route(k)
	for i, h := range newHops {
		if nrt.Hops[i] != h {
			t.Fatalf("route after rehome = %v, want %v", nrt.Hops, newHops)
		}
	}
	if p, ok := f.ctl.Ring().Placed(g); !ok || p.Tail() != s3 {
		t.Fatalf("ring placement not recorded: %v %v", p, ok)
	}
	sw3, _ := f.tb.Net.Switch(s3)
	if !sw3.HasKey(k) {
		t.Fatal("joining member did not receive the key")
	}
	old, _ := f.tb.Net.Switch(oldTail)
	if old.HasKey(k) {
		t.Fatal("leaver still holds the key after GC")
	}
	if rep, ok := f.read(t, 0, k); !ok || rep.Status != kv.StatusOK || string(rep.Value) != "v1" {
		t.Fatalf("read from rehomed chain: %+v ok=%v", rep, ok)
	}
	if rep, ok := f.write(t, 0, k, "v2"); !ok || rep.Status != kv.StatusOK {
		t.Fatalf("write to rehomed chain: %+v ok=%v", rep, ok)
	}
	if rep, ok := f.read(t, 0, k); !ok || string(rep.Value) != "v2" {
		t.Fatalf("read-back after write: %+v ok=%v", rep, ok)
	}
}

// TestRehomeValidation pins the refusal cases: empty plans, unknown
// groups, short chains, failed targets, and overlapping reconfigurations.
func TestRehomeValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SyncPerItem = 0
	f := newFixture(t, cfg, 4)
	s3 := f.tb.Switches[3]
	if err := f.ctl.Ring().AddMember(s3); err != nil {
		t.Fatal(err)
	}
	sw := f.ctl.Ring().Switches()

	if err := f.ctl.Rehome(nil, nil); err == nil {
		t.Fatal("empty rehome accepted")
	}
	if err := f.ctl.Rehome(map[ring.GroupID][]packet.Addr{
		ring.GroupID(9999): {sw[0], sw[1], sw[2]},
	}, nil); err == nil {
		t.Fatal("rehome of unknown group accepted")
	}
	if err := f.ctl.Rehome(map[ring.GroupID][]packet.Addr{
		0: {sw[0], sw[1]},
	}, nil); err == nil {
		t.Fatal("short chain accepted")
	}

	// Overlap: a second rehome while the first is mid-flight must bounce.
	if err := f.ctl.Rehome(map[ring.GroupID][]packet.Addr{
		0: {sw[1], sw[2], s3},
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.ctl.Rehome(map[ring.GroupID][]packet.Addr{
		1: {sw[0], sw[1], s3},
	}, nil); err == nil {
		t.Fatal("overlapping rehome accepted")
	}
	f.sim.Run()

	// A plan naming a failed-over switch is refused: Recover owns repair.
	s1 := f.tb.Switches[1]
	if err := f.ctl.HandleFailure(s1, nil); err != nil {
		t.Fatal(err)
	}
	f.sim.Run()
	if err := f.ctl.Rehome(map[ring.GroupID][]packet.Addr{
		0: {sw[0], s1, s3},
	}, nil); err == nil {
		t.Fatal("rehome onto failed switch accepted")
	}
}

// TestAutopilotCongestionRehome: a sustained Congested verdict (probe RTT
// inflated, loss and drops clean) makes the autopilot call the configured
// Placer and rehome the returned groups — no failover, no demotion. The
// per-switch latch holds one rehome per episode; a second episode after
// the verdict clears gets its own.
func TestAutopilotCongestionRehome(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SyncPerItem = 0
	cfg.RuleDelay = time.Millisecond
	f := newFixture(t, cfg, 2)
	s2, s3 := f.tb.Switches[2], f.tb.Switches[3]
	if err := f.ctl.Ring().AddMember(s3); err != nil {
		t.Fatal(err)
	}

	det := health.NewDetector(health.Config{
		HeartbeatEvery:   time.Millisecond,
		CongestRTTFactor: 2, // gray bar stays at 4x
	})
	placerCalls := 0
	pcfg := AutopilotConfig{
		Spares: []packet.Addr{s3},
		Placer: func(congested packet.Addr) map[ring.GroupID][]packet.Addr {
			placerCalls++
			// Move every chain tailed at the congested switch: swap its
			// tail for the spare (joins on demand), keep the rest.
			plans := make(map[ring.GroupID][]packet.Addr)
			for g, rt := range f.ctl.Routes() {
				if len(rt.Hops) != 3 || rt.Hops[2] != congested {
					continue
				}
				plans[ring.GroupID(g)] = []packet.Addr{rt.Hops[0], rt.Hops[1], s3}
			}
			return plans
		},
	}
	ap := NewAutopilot(f.ctl, det, f.sim.Clock(), pcfg)
	for _, sw := range f.tb.Switches {
		det.Track(sw, 0)
	}
	ap.Start()

	hb := time.Millisecond
	feed(f, det, 30, hb, nil, nil)
	// Congest: S2's probes come back 5x slow — above the 2x congest bar,
	// below the 4x gray bar — while heartbeats and loss stay clean.
	feed(f, det, 30, hb, map[packet.Addr]time.Duration{s2: 25 * time.Microsecond}, nil)
	acts := countActions(ap)
	if acts[ActionRehome] != 1 {
		t.Fatalf("want exactly one rehome under sustained congestion, got %v\n%v",
			acts, ap.History())
	}
	if acts[ActionFailover] != 0 || acts[ActionDemote] != 0 || acts[ActionRecover] != 0 {
		t.Fatalf("congestion escalated beyond rehome: %v", acts)
	}
	if placerCalls != 1 {
		t.Fatalf("placer called %d times for one episode", placerCalls)
	}

	// The planned chains actually moved: nothing is tailed at S2 now.
	for i := 0; i < 200 && countActions(ap)[ActionRehomeDone] == 0; i++ {
		feed(f, det, 1, hb, map[packet.Addr]time.Duration{s2: 25 * time.Microsecond}, nil)
	}
	if countActions(ap)[ActionRehomeDone] != 1 {
		t.Fatalf("rehome never completed:\n%v", ap.History())
	}
	for g, rt := range f.ctl.Routes() {
		if len(rt.Hops) > 0 && rt.Hops[len(rt.Hops)-1] == s2 {
			t.Fatalf("group %d still tailed at congested switch: %v", g, rt.Hops)
		}
	}

	// Verdict clears, then a second episode: the latch re-arms and the
	// autopilot answers again (cooldown already elapsed).
	feed(f, det, 40, hb, nil, nil)
	feed(f, det, 30, hb, map[packet.Addr]time.Duration{s2: 25 * time.Microsecond}, nil)
	ap.Stop()
	f.sim.Run()
	if got := countActions(ap)[ActionRehome]; got != 2 {
		t.Fatalf("second congestion episode produced %d total rehomes, want 2\n%v",
			got, ap.History())
	}
}
