package health

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"netchain/internal/packet"
)

// FuzzDecodePayload feeds arbitrary bytes to the heartbeat payload decoder
// the monitor runs on every datagram it receives. Truncated and
// unknown-version input must be rejected, never panic, and whatever
// decodes must re-encode to the very bytes it came from.
func FuzzDecodePayload(f *testing.F) {
	whole := Payload{Queue: 7, Drops: 1 << 40, Processed: 123456789, Retries: 42, DecodeErrs: 9001, RcvBuf: 8 << 20}.Encode(nil)
	f.Add(whole)
	f.Add(append(append([]byte(nil), whole...), 0xee)) // trailing byte
	f.Add(whole[:payloadLen-1])
	f.Add(whole[:5])
	f.Add([]byte{})
	f.Add(append([]byte{1}, whole[1:29]...)) // the retired v1 form
	f.Add([]byte{99, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePayload(data)
		if err != nil {
			if len(data) >= payloadLen && data[0] == payloadVersion {
				t.Fatalf("well-formed payload rejected: %v", err)
			}
			return
		}
		if out := p.Encode(nil); !bytes.Equal(out, data[:payloadLen]) {
			t.Fatalf("re-encoded payload differs:\n %x\n %x", out, data[:payloadLen])
		}
	})
}

// FuzzMonitorCore drives the monitor engine on a monotone manual clock
// with random interleavings of heartbeats, probe echoes (genuine,
// impostor, duplicate), probe rounds, Forget and Watch, against a model of
// which probes are still open. Every issued probe is credited at most once
// — as a reply or as a loss — impostor echoes never are, and a retired
// switch never reaches the detector until it is watched again.
func FuzzMonitorCore(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 2, 1, 4, 200, 0, 2, 3, 0})
	f.Add([]byte{6, 0, 4, 0, 5, 0, 4, 255, 1, 0, 0, 0, 6, 0, 4, 0})
	f.Add([]byte{4, 1, 4, 2, 2, 3, 1, 4, 3, 5, 4, 255, 4, 255, 5, 1, 6, 1})

	f.Fuzz(func(t *testing.T, script []byte) {
		const hb = time.Millisecond
		sws := []packet.Addr{packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(10, 0, 0, 2), packet.AddrFrom4(10, 0, 0, 3)}
		det := NewDetector(Config{HeartbeatEvery: hb})
		c := NewCore(det, coreMon)

		type probe struct {
			sw   packet.Addr
			at   time.Duration
			open bool
		}
		var probes []*probe // indexed by qid-1: qids are issued densely from 1
		retired := make(map[packet.Addr]bool)
		var want CoreStats
		fr := packet.GetFrame()
		defer packet.PutFrame(fr)

		// pick returns the qid of the arg-th probe whose open state is open.
		pick := func(arg byte, open bool) (uint64, bool) {
			var qids []uint64
			for i, p := range probes {
				if p.open == open {
					qids = append(qids, uint64(i+1))
				}
			}
			if len(qids) == 0 {
				return 0, false
			}
			return qids[int(arg)%len(qids)], true
		}
		type credit struct{ replies, losses uint64 }
		credits := func() map[packet.Addr]credit {
			m := make(map[packet.Addr]credit)
			for _, sh := range det.Snapshot(0) {
				m[sh.Addr] = credit{sh.ProbeReplies, sh.ProbeLosses}
			}
			return m
		}

		var now time.Duration
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%8, script[i+1]
			now += time.Duration(arg) * hb / 16
			sw := sws[int(arg)%len(sws)]
			before := credits()
			expect := make(map[packet.Addr]credit) // credits this step must add
			switch op {
			case 0: // heartbeat
				c.Receive(beat(fr, sw), now)
				if !retired[sw] {
					want.Heartbeats++
				}
			case 1: // genuine echo of an open probe
				if qid, ok := pick(arg, true); ok {
					p := probes[qid-1]
					c.Receive(echo(fr, p.sw, qid), now)
					p.open = false
					expect[p.sw] = credit{replies: 1}
				}
			case 2: // impostor echo of an open probe
				if qid, ok := pick(arg, true); ok {
					p := probes[qid-1]
					src := sw
					if src == p.sw {
						src = sws[(int(arg)+1)%len(sws)]
					}
					c.Receive(echo(fr, src, qid), now)
				}
			case 3: // duplicate (or late) echo of a closed probe
				if qid, ok := pick(arg, false); ok {
					c.Receive(echo(fr, probes[qid-1].sw, qid), now)
				}
			case 4: // probe round
				for _, p := range probes {
					if p.open && now-p.at > 8*hb {
						p.open = false
						e := expect[p.sw]
						e.losses++
						expect[p.sw] = e
						want.ProbeTimeouts++
					}
				}
				var sent []packet.Addr
				c.ProbeRound(now, sws, func(f *packet.Frame) {
					if f.NC.QueryID != uint64(len(probes)+1) || f.IP.Src != coreMon {
						t.Fatalf("probe qid %d from %v, want qid %d from the monitor", f.NC.QueryID, f.IP.Src, len(probes)+1)
					}
					probes = append(probes, &probe{sw: f.IP.Dst, at: now, open: true})
					sent = append(sent, f.IP.Dst)
					packet.PutFrame(f)
				})
				var wantSent []packet.Addr
				for _, a := range sws {
					if !retired[a] {
						wantSent = append(wantSent, a)
					}
				}
				if !slices.Equal(sent, wantSent) {
					t.Fatalf("probed %v, want the unretired %v", sent, wantSent)
				}
				want.ProbesSent += uint64(len(sent))
			case 5:
				c.Forget(sw)
				retired[sw] = true
				for _, p := range probes {
					if p.sw == sw {
						p.open = false // dropped, never credited
					}
				}
				delete(before, sw)
			case 6:
				c.Watch(sw, now)
				delete(retired, sw)
			}

			after := credits()
			for a := range retired {
				if _, ok := after[a]; ok {
					t.Fatalf("step %d: retired %v reached the detector", i/2, a)
				}
			}
			for a, got := range after {
				b, e := before[a], expect[a]
				if got.replies != b.replies+e.replies || got.losses != b.losses+e.losses {
					t.Fatalf("step %d (op %d): %v credited %+v → %+v, want +%+v", i/2, op, a, b, got, e)
				}
			}
			if st := c.Stats(); st != want {
				t.Fatalf("step %d: stats %+v, want %+v", i/2, st, want)
			}
		}
	})
}
