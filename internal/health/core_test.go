package health

import (
	"testing"
	"time"

	"netchain/internal/kv"
	"netchain/internal/packet"
)

var coreMon = packet.AddrFrom4(10, 255, 0, 1)

// beat fills f with a heartbeat from sw.
func beat(f *packet.Frame, sw packet.Addr) *packet.Frame {
	return NewHeartbeat(f, sw, coreMon, 1, Payload{Processed: 1})
}

// echo fills f with a probe echo for qid, sourced from src.
func echo(f *packet.Frame, src packet.Addr, qid uint64) *packet.Frame {
	f.NC = packet.NetChain{Op: kv.OpReply, QueryID: qid, Key: ProbeKey}
	return packet.NewQueryInto(f, src, coreMon, packet.Port, &f.NC)
}

// TestCoreForgetRetires: Forget with a probe outstanding. Neither the
// probe's expiry, nor its late echo, nor a heartbeat already in flight may
// bring the switch back into the detector; only Watch does, and probing
// resumes with it.
func TestCoreForgetRetires(t *testing.T) {
	const hb = time.Millisecond
	sw := packet.AddrFrom4(10, 0, 0, 1)
	targets := []packet.Addr{sw}
	for _, after := range []struct {
		name string
		do   func(c *Core, f *packet.Frame, qid uint64)
	}{
		{"expiry", func(c *Core, _ *packet.Frame, _ uint64) { c.ProbeRound(20*hb, nil, nil) }},
		{"late echo", func(c *Core, f *packet.Frame, qid uint64) { c.Receive(echo(f, sw, qid), 2*hb) }},
		{"heartbeat in flight", func(c *Core, f *packet.Frame, _ uint64) { c.Receive(beat(f, sw), 2*hb) }},
	} {
		t.Run(after.name, func(t *testing.T) {
			det := NewDetector(Defaults(hb))
			c := NewCore(det, coreMon)
			c.Watch(sw, 0)
			var qid uint64
			c.ProbeRound(hb, targets, func(f *packet.Frame) {
				qid = f.NC.QueryID
				packet.PutFrame(f)
			})
			c.Forget(sw)
			f := packet.GetFrame()
			defer packet.PutFrame(f)
			after.do(c, f, qid)
			if snap := det.Snapshot(20 * hb); len(snap) != 0 {
				t.Fatalf("retired switch back in the detector: %+v", snap)
			}
			if st := c.Stats(); st.ProbeTimeouts != 0 || st.Heartbeats != 0 {
				t.Fatalf("retired switch credited: %+v", st)
			}

			c.Watch(sw, 21*hb)
			if snap := det.Snapshot(21 * hb); len(snap) != 1 || snap[0].Addr != sw {
				t.Fatalf("Watch did not re-admit %v: %+v", sw, snap)
			}
			sent := 0
			c.ProbeRound(22*hb, targets, func(f *packet.Frame) {
				sent++
				packet.PutFrame(f)
			})
			if sent != 1 {
				t.Fatalf("re-admitted switch probed %d times, want 1", sent)
			}
		})
	}
}
