package health

import (
	"net"
	"testing"
	"time"

	"netchain/internal/packet"
)

// TestMonitorForgetStaysRetired: a fake switch is learned from one
// heartbeat and a probe reaches its socket unanswered; the switch is then
// retired. Twenty heartbeat intervals later — long past the probe's
// expiry, with its late echo and another heartbeat delivered meanwhile —
// the detector must still not track it.
func TestMonitorForgetStaysRetired(t *testing.T) {
	const hb = 5 * time.Millisecond
	sw := packet.AddrFrom4(10, 0, 0, 9)
	det := NewDetector(Config{HeartbeatEvery: hb})
	mon, err := NewMonitor("127.0.0.1:0", coreMon, det)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	fake, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer fake.Close()
	f := packet.GetFrame()
	defer packet.PutFrame(f)
	send := func(f *packet.Frame) {
		t.Helper()
		b, err := f.Serialize(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fake.WriteToUDP(b, mon.Endpoint()); err != nil {
			t.Fatal(err)
		}
	}

	send(beat(f, sw))
	mon.StartProbes()
	// The monitor only probes learned endpoints, so a probe arriving proves
	// the heartbeat landed.
	buf := make([]byte, 2048)
	if err := fake.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := fake.Read(buf)
	if err != nil {
		t.Fatalf("no probe reached the fake switch: %v", err)
	}
	var probe packet.Frame
	if err := probe.Decode(buf[:n]); err != nil {
		t.Fatal(err)
	}

	mon.Forget(sw)
	send(echo(f, sw, probe.NC.QueryID))
	send(beat(f, sw))
	time.Sleep(20 * hb)
	if snap := det.Snapshot(mon.Now()); len(snap) != 0 {
		t.Fatalf("retired switch tracked again: %+v", snap)
	}
}
