package health

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"netchain/internal/packet"
)

// TestHeartbeatIsTheOnlyTimeScale replays one trace — heartbeats, probe
// rounds, echoes and losses through a Core — at a 500 µs and at a 10 ms
// heartbeat, with every timestamp and RTT scaled by the same factor. If
// every clock of the health plane is a multiple of the heartbeat, the two
// runs are the same run in different units: the same verdict and φ for
// every switch after every event (φ to 1e-12: the window sums scaled
// samples, which rounds differently in the last bit). A span left absolute
// in the table (or in Core's probe loop) shows up as a diverging step.
func TestHeartbeatIsTheOnlyTimeScale(t *testing.T) {
	const scale = 20
	fast := replayScaled(500*time.Microsecond, 1)
	slow := replayScaled(500*time.Microsecond*scale, 1)
	if len(fast) != len(slow) {
		t.Fatalf("%d steps at 500 µs, %d at 10 ms", len(fast), len(slow))
	}
	seen := map[Verdict]bool{}
	for i := range fast {
		f, s := fast[i], slow[i]
		if s.at != scale*f.at || len(f.sws) != len(s.sws) {
			t.Fatalf("step %d: at %v vs %v", i, f.at, s.at)
		}
		for j := range f.sws {
			a, b := f.sws[j], s.sws[j]
			seen[a.Verdict] = true
			if a.Addr != b.Addr || a.Verdict != b.Verdict || math.Abs(a.Phi-b.Phi) > 1e-12*max(1, a.Phi) {
				t.Fatalf("step %d (t=%v): %v reads %v φ=%v at 500 µs but %v φ=%v at 10 ms",
					i, f.at, a.Addr, a.Verdict, a.Phi, b.Verdict, b.Phi)
			}
		}
	}
	// The trace must reach every verdict, or the comparison proves little.
	for _, v := range []Verdict{Healthy, Congested, Gray, FailStop} {
		if !seen[v] {
			t.Errorf("the trace never produced %v", v)
		}
	}
}

// scaledStep is the detector's reading of every switch after one event.
type scaledStep struct {
	at  time.Duration
	sws []SwitchHealth
}

// replayScaled runs the trace at heartbeat hb. Its script is written in
// hundredths of a heartbeat (cb); the rng's draws depend only on the
// event order, which the heartbeat must not change.
func replayScaled(hb time.Duration, seed int64) []scaledStep {
	cb := func(n int) time.Duration { return time.Duration(n) * hb / 100 }
	sa, sb, sc, sd := packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(10, 0, 0, 2),
		packet.AddrFrom4(10, 0, 0, 3), packet.AddrFrom4(10, 0, 0, 4)
	sws := []packet.Addr{sa, sb, sc, sd}
	rng := rand.New(rand.NewSource(seed))
	det := NewDetector(Config{HeartbeatEvery: hb, CongestRTTFactor: 2.5})
	c := NewCore(det, coreMon)

	// The script: A's path queues (3× RTT, no loss), later A decays (10×
	// RTT, 30% echo loss). B sits on a path a few RTT floors fast, whose
	// jitter triples for a while, and later goes silent for 6 heartbeats,
	// echoes too. C drops a quarter of its traffic, then dies for good. D
	// boots late, inside its boot grace.
	congested := func(now time.Duration) bool { return now >= cb(1500) && now < cb(2500) }
	gray := func(now time.Duration) bool { return now >= cb(3000) && now < cb(4000) }
	silent := func(sw packet.Addr, now time.Duration) bool {
		return sw == sb && now >= cb(4500) && now < cb(5100) || sw == sc && now >= cb(6000) ||
			sw == sd && now < cb(700)
	}
	rtt := func(sw packet.Addr, now time.Duration) (time.Duration, bool) {
		r := cb(4 + rng.Intn(2))
		switch {
		case sw == sb:
			floor := hb / 500
			r = floor * time.Duration(1+rng.Intn(2))
			if now >= cb(2000) && now < cb(2600) {
				r = floor * time.Duration(4+rng.Intn(2))
			}
		case sw == sa && congested(now):
			r *= 3
		case sw == sa && gray(now):
			if rng.Intn(10) < 3 {
				return 0, false
			}
			r *= 10
		}
		return r, true
	}

	type event struct {
		at time.Duration
		do func(now time.Duration)
	}
	var queue []event
	at := func(when time.Duration, do func(now time.Duration)) {
		i := sort.Search(len(queue), func(i int) bool { return queue[i].at > when })
		queue = slices.Insert(queue, i, event{when, do})
	}
	var processed, drops [4]uint64
	var beatTick func(i int) func(time.Duration)
	beatTick = func(i int) func(time.Duration) {
		return func(now time.Duration) {
			at(now+hb, beatTick(i))
			sent := now + cb(rng.Intn(10))
			if silent(sws[i], sent) {
				return
			}
			processed[i] += 100
			if sws[i] == sc && sent >= cb(5500) {
				drops[i] += 25
			}
			p := Payload{Processed: processed[i], Drops: drops[i]}
			at(sent+cb(1), func(now time.Duration) {
				f := packet.GetFrame()
				defer packet.PutFrame(f)
				c.Receive(NewHeartbeat(f, sws[i], coreMon, 1, p), now)
			})
		}
	}
	var probeTick func(now time.Duration)
	probeTick = func(now time.Duration) {
		at(now+c.ProbeEvery(), probeTick)
		c.ProbeRound(now, sws, func(f *packet.Frame) {
			sw, qid := f.IP.Dst, f.NC.QueryID
			packet.PutFrame(f)
			r, ok := rtt(sw, now)
			if !ok || silent(sw, now+r/2) {
				return
			}
			at(now+r, func(now time.Duration) {
				f := packet.GetFrame()
				defer packet.PutFrame(f)
				c.Receive(echo(f, sw, qid), now)
			})
		})
	}
	for i, sw := range sws {
		c.Watch(sw, 0)
		at(cb(100*i/len(sws)), beatTick(i))
	}
	at(c.ProbeEvery(), probeTick)

	var steps []scaledStep
	for len(queue) > 0 && queue[0].at < cb(8000) {
		ev := queue[0]
		queue = queue[1:]
		ev.do(ev.at)
		steps = append(steps, scaledStep{at: ev.at, sws: det.Snapshot(ev.at)})
	}
	return steps
}
