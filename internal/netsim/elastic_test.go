package netsim

import (
	"testing"

	"netchain/internal/kv"
	"netchain/internal/packet"
)

// TestAttachSwitchMidRun: a switch joining the fabric mid-simulation is
// routable in both directions and can serve dataplane queries.
func TestAttachSwitchMidRun(t *testing.T) {
	sim, tb := newTB(t)

	// Warm the fabric with a query first so attachment really is mid-run.
	key := kv.KeyFromString("warm")
	installKey(t, tb, key, 0)
	tb.Net.Inject(tb.Hosts[0], chainQuery(kv.OpWrite, key, []byte("x"), tb.Hosts[0], tb.Switches[0]))
	sim.Run()

	s4, err := tb.AddSwitch()
	if err != nil {
		t.Fatal(err)
	}
	if want := packet.AddrFrom4(10, 0, 0, 5); s4 != want {
		t.Fatalf("attached addr = %v, want %v", s4, want)
	}
	if !tb.Net.IsSwitch(s4) {
		t.Fatal("attached switch not registered")
	}
	if got := len(tb.SwitchAddrs()); got != 5 {
		t.Fatalf("SwitchAddrs = %d, want 5", got)
	}
	// H0 → S4 routes through S0 (one of the attach peers).
	if l, ok := tb.Net.PathLen(tb.Hosts[0], s4); !ok || l != 2 {
		t.Fatalf("H0->S4 path len = %d (%v), want 2", l, ok)
	}
	// The new switch serves a chain write end to end.
	k2 := kv.KeyFromString("on-s4")
	sw4, _ := tb.Net.Switch(s4)
	if err := sw4.InstallKey(k2); err != nil {
		t.Fatal(err)
	}
	var replies int
	tb.Net.HostRecv(tb.Hosts[0], func(f *packet.Frame) {
		if f.NC.Status == kv.StatusOK {
			replies++
		}
	})
	tb.Net.Inject(tb.Hosts[0], chainQuery(kv.OpWrite, k2, []byte("v"), tb.Hosts[0], s4))
	sim.Run()
	if replies != 1 {
		t.Fatalf("replies via attached switch = %d, want 1", replies)
	}
}

// TestDetachSwitchMidRun: removing a switch reroutes around it and drops
// in-flight frames addressed to it instead of wedging the simulation.
func TestDetachSwitchMidRun(t *testing.T) {
	sim, tb := newTB(t)
	s1 := tb.Switches[1]

	// A frame bound for S1 is already on the wire when it detaches.
	key := kv.KeyFromString("late")
	installKey(t, tb, key, 1)
	tb.Net.Inject(tb.Hosts[0], chainQuery(kv.OpWrite, key, []byte("x"), tb.Hosts[0], s1))
	if err := tb.Net.DetachSwitch(s1); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if tb.Net.IsSwitch(s1) {
		t.Fatal("detached switch still present")
	}
	if _, ok := tb.Net.Switch(s1); ok {
		t.Fatal("detached switch still resolvable")
	}
	// S0 ↔ S2 still connect via the S3 side of the diamond.
	if l, ok := tb.Net.PathLen(tb.Switches[0], tb.Switches[2]); !ok || l != 2 {
		t.Fatalf("S0->S2 after detach = %d (%v), want 2 via S3", l, ok)
	}
	if got := tb.Net.SwitchNeighbors(tb.Switches[0]); len(got) != 1 || got[0] != tb.Switches[3] {
		t.Fatalf("S0 switch neighbors after detach = %v", got)
	}
	// Detaching twice errors cleanly, as does detaching a host.
	if err := tb.Net.DetachSwitch(s1); err == nil {
		t.Fatal("double detach must fail")
	}
	if err := tb.Net.DetachSwitch(tb.Hosts[0]); err == nil {
		t.Fatal("detaching a host must fail")
	}
}
