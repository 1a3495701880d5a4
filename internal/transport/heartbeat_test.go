package transport

import (
	"testing"
	"time"

	"netchain/internal/core"
	"netchain/internal/health"
	"netchain/internal/packet"
	"netchain/internal/swsim"
)

// TestHeartbeatsFeedMonitor runs a real SwitchNode emitting heartbeats
// over its dataplane socket into a health.Monitor, with probes flowing
// back through the switch's actual forwarding path; then kills the node
// and checks suspicion accrues. This is the wall-clock half of the
// self-healing loop — the simulated half is covered deterministically in
// internal/experiments.
func TestHeartbeatsFeedMonitor(t *testing.T) {
	book := NewAddressBook()
	swAddr := packet.AddrFrom4(10, 0, 0, 1)
	monAddr := packet.AddrFrom4(10, 255, 0, 1)

	sw, err := core.NewSwitch(swAddr, swsim.Tofino())
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewSwitchNode(sw, book, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	const hb = 5 * time.Millisecond
	det := health.NewDetector(health.Config{HeartbeatEvery: hb})
	mon, err := health.NewMonitor("127.0.0.1:0", monAddr, det)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	// The switch resolves the monitor's virtual address through its book
	// — probe replies route back the same way heartbeats go out.
	book.Set(monAddr, mon.Endpoint())

	if err := node.StartHeartbeats(monAddr, hb); err != nil {
		t.Fatal(err)
	}
	mon.StartProbes()

	deadline := time.Now().Add(5 * time.Second)
	var snap []health.SwitchHealth
	for time.Now().Before(deadline) {
		snap = det.Snapshot(mon.Now())
		if len(snap) == 1 && snap[0].Heartbeats >= 5 && snap[0].ProbeReplies >= 3 {
			break
		}
		time.Sleep(hb)
	}
	if len(snap) != 1 || snap[0].Addr != swAddr {
		t.Fatalf("monitor learned %d switches, want [%v]: %+v", len(snap), swAddr, snap)
	}
	if snap[0].Heartbeats < 5 || snap[0].ProbeReplies < 3 {
		t.Fatalf("thin observations: %+v", snap[0])
	}
	if v := det.VerdictFor(swAddr, mon.Now()); v != health.Healthy {
		t.Fatalf("live node verdict %v, want healthy", v)
	}

	// Fail-stop: the socket dies, heartbeats and probe echoes stop.
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if det.VerdictFor(swAddr, mon.Now()) == health.FailStop {
			return
		}
		time.Sleep(hb)
	}
	t.Fatalf("dead node never reached fail-stop: φ=%.1f %+v",
		det.Phi(swAddr, mon.Now()), det.Snapshot(mon.Now()))
}
