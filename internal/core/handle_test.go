package core

import (
	"testing"

	"netchain/internal/kv"
	"netchain/internal/packet"
)

// TestHandleVerdicts walks the per-frame driver through one frame per
// verdict. Every row runs at switch s1 of the chain s0→s1→s2, which holds
// key "k" at version 0.5. Every drop is counted exactly once, by the
// counter its verdict names, and a forwarded frame counts no drop.
func TestHandleVerdicts(t *testing.T) {
	key := kv.KeyFromString("k")
	ordered := func(seq uint64, first packet.Addr, rest ...packet.Addr) *packet.Frame {
		f := query(kv.OpWrite, key, []byte("v"), first, rest...)
		f.NC.SetVersion(kv.Version{Seq: seq})
		return f
	}
	cases := []struct {
		name   string
		frame  func() *packet.Frame
		rule   *Rule // installed for destination s0 before the frame arrives
		want   Verdict
		commit kv.Op
		dst    packet.Addr                            // where a forwarded frame must be headed
		check  func(*testing.T, *packet.Frame, Stats) // extra expectations
	}{
		{
			name:  "plain transit",
			frame: func() *packet.Frame { return query(kv.OpWrite, key, []byte("v"), s2) },
			want:  VerdictForward, dst: s2,
			check: func(t *testing.T, f *packet.Frame, st Stats) {
				if st.Transits != 1 || st.Processed != 0 || f.IP.TTL != 63 {
					t.Errorf("transits=%d processed=%d ttl=%d", st.Transits, st.Processed, f.IP.TTL)
				}
			},
		},
		{
			name:  "head write forwarded",
			frame: func() *packet.Frame { return query(kv.OpWrite, key, []byte("v"), s1, s2) },
			want:  VerdictForward, dst: s2,
			check: func(t *testing.T, f *packet.Frame, st Stats) {
				if st.WritesHead != 1 || f.NC.Version() != (kv.Version{Seq: 6}) {
					t.Errorf("writesHead=%d version=%v", st.WritesHead, f.NC.Version())
				}
			},
		},
		{
			name:  "tail write becomes reply and commit",
			frame: func() *packet.Frame { return ordered(9, s1) },
			want:  VerdictForward, commit: kv.OpWrite, dst: client,
			check: func(t *testing.T, f *packet.Frame, st Stats) {
				if f.NC.Op != kv.OpReply || f.NC.Status != kv.StatusOK || st.WritesApply != 1 {
					t.Errorf("op=%v status=%v applied=%d", f.NC.Op, f.NC.Status, st.WritesApply)
				}
			},
		},
		{
			name:  "read reply is no commit",
			frame: func() *packet.Frame { return query(kv.OpRead, key, nil, s1) },
			want:  VerdictForward, dst: client,
		},
		{
			name:  "stale ordered write",
			frame: func() *packet.Frame { return ordered(3, s1, s2) },
			want:  VerdictStale,
		},
		{
			name:  "stop rule",
			frame: func() *packet.Frame { return query(kv.OpWrite, key, []byte("v"), s0, s1, s2) },
			rule:  &Rule{Action: ActDrop},
			want:  VerdictRuleDrop,
		},
		{
			name: "ttl expired",
			frame: func() *packet.Frame {
				f := query(kv.OpWrite, key, []byte("v"), s2)
				f.IP.TTL = 0
				return f
			},
			want: VerdictRouteDrop,
		},
		{
			name: "non-NetChain port",
			frame: func() *packet.Frame {
				f := query(kv.OpRead, key, nil, s1)
				f.UDP.DstPort = packet.Port + 1
				return f
			},
			want: VerdictRouteDrop,
		},
		{
			name:  "reply addressed to a switch",
			frame: func() *packet.Frame { return query(kv.OpReply, key, nil, s1) },
			want:  VerdictLocalDrop,
		},
		{
			// The failed head's successor is this very switch: the rule pops
			// s1 into the destination and the frame loops back through local
			// processing, where s1 stamps it as acting head (§5.1).
			name:  "rule retargets onto self",
			frame: func() *packet.Frame { return query(kv.OpWrite, key, []byte("v"), s0, s1, s2) },
			rule:  &Rule{Action: ActNextHop},
			want:  VerdictForward, dst: s2,
			check: func(t *testing.T, f *packet.Frame, st Stats) {
				if st.Transits != 1 || st.RuleHits != 1 || st.WritesHead != 1 || len(f.NC.Chain) != 0 {
					t.Errorf("transits=%d ruleHits=%d writesHead=%d chain=%v",
						st.Transits, st.RuleHits, st.WritesHead, f.NC.Chain)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw := testSwitch(t, s1)
			if err := sw.WriteItem(Item{Key: key, Value: []byte("old"), Version: kv.Version{Seq: 5}}); err != nil {
				t.Fatal(err)
			}
			if tc.rule != nil {
				sw.InstallRule(s0, WildcardGroup, *tc.rule)
			}
			f := tc.frame()
			v, commit := sw.Handle(f)
			if v != tc.want || commit != tc.commit {
				t.Fatalf("Handle = (%d, %v), want (%d, %v)", v, commit, tc.want, tc.commit)
			}
			if v == VerdictForward && f.IP.Dst != tc.dst {
				t.Errorf("forwarded toward %v, want %v", f.IP.Dst, tc.dst)
			}
			st := sw.Stats()
			for dv, n := range map[Verdict]uint64{
				VerdictStale:     st.WritesStale,
				VerdictRuleDrop:  st.RuleDrops,
				VerdictRouteDrop: st.RouteDrops,
				VerdictLocalDrop: st.LocalDrops,
			} {
				want := uint64(0)
				if dv == v {
					want = 1
				}
				if n != want {
					t.Errorf("verdict %d counted %d times, want %d", dv, n, want)
				}
			}
			if tc.check != nil {
				tc.check(t, f, st)
			}
		})
	}
}
