package query

import (
	"bytes"
	"testing"
	"testing/quick"

	"netchain/internal/kv"
	"netchain/internal/packet"
)

var (
	ep = Endpoint{Addr: packet.AddrFrom4(10, 1, 0, 1), Port: 5000}
	rt = Route{Group: 3, Hops: []packet.Addr{
		packet.AddrFrom4(10, 0, 0, 1),
		packet.AddrFrom4(10, 0, 0, 2),
		packet.AddrFrom4(10, 0, 0, 3),
	}}
)

func TestNewReadTargetsTailWithReverseList(t *testing.T) {
	k := kv.KeyFromString("k")
	f, err := NewRead(ep, 7, rt, k)
	if err != nil {
		t.Fatal(err)
	}
	if f.IP.Dst != rt.Hops[2] {
		t.Fatalf("read dst = %v, want tail", f.IP.Dst)
	}
	if f.IP.Src != ep.Addr || f.UDP.SrcPort != ep.Port || f.UDP.DstPort != packet.Port {
		t.Fatalf("addressing: %+v %+v", f.IP, f.UDP)
	}
	// Reverse list: [S1, S0] — the failover path back up the chain.
	if len(f.NC.Chain) != 2 || f.NC.Chain[0] != rt.Hops[1] || f.NC.Chain[1] != rt.Hops[0] {
		t.Fatalf("chain = %v", f.NC.Chain)
	}
	if f.NC.Op != kv.OpRead || f.NC.Group != 3 || f.NC.QueryID != 7 {
		t.Fatalf("header = %v", &f.NC)
	}
}

func TestNewWriteTargetsHeadWithRemainingHops(t *testing.T) {
	k := kv.KeyFromString("k")
	f, err := NewWrite(ep, 9, rt, k, kv.Value("v"))
	if err != nil {
		t.Fatal(err)
	}
	if f.IP.Dst != rt.Hops[0] {
		t.Fatalf("write dst = %v, want head", f.IP.Dst)
	}
	if len(f.NC.Chain) != 2 || f.NC.Chain[0] != rt.Hops[1] || f.NC.Chain[1] != rt.Hops[2] {
		t.Fatalf("chain = %v", f.NC.Chain)
	}
	if !f.NC.Version().IsZero() {
		t.Fatal("fresh write must carry version zero")
	}
	if string(f.NC.Value) != "v" {
		t.Fatalf("value = %q", f.NC.Value)
	}
}

func TestNewDelete(t *testing.T) {
	f, err := NewDelete(ep, 1, rt, kv.KeyFromString("k"))
	if err != nil {
		t.Fatal(err)
	}
	if f.NC.Op != kv.OpDelete || len(f.NC.Value) != 0 {
		t.Fatalf("header = %v", &f.NC)
	}
}

func TestNewCASEncodesExpectAndValue(t *testing.T) {
	f, err := NewCAS(ep, 1, rt, kv.KeyFromString("k"), 42, OwnerValue(7, []byte("p")))
	if err != nil {
		t.Fatal(err)
	}
	if f.NC.Op != kv.OpCAS {
		t.Fatal("op must be CAS")
	}
	// Value layout: [8B expect=42][8B owner=7]["p"].
	if len(f.NC.Value) != 17 {
		t.Fatalf("value len = %d", len(f.NC.Value))
	}
	if Owner(f.NC.Value) != 42 {
		t.Fatalf("expect field = %d", Owner(f.NC.Value))
	}
	if Owner(f.NC.Value[8:]) != 7 {
		t.Fatalf("new owner = %d", Owner(f.NC.Value[8:]))
	}
}

func TestEmptyRouteRejected(t *testing.T) {
	empty := Route{}
	if _, err := NewRead(ep, 1, empty, kv.Key{}); err != kv.ErrUnavailable {
		t.Fatalf("read err = %v", err)
	}
	if _, err := NewWrite(ep, 1, empty, kv.Key{}, nil); err != kv.ErrUnavailable {
		t.Fatalf("write err = %v", err)
	}
}

func TestSingleHopRoute(t *testing.T) {
	solo := Route{Group: 1, Hops: rt.Hops[:1]}
	r, err := NewRead(ep, 1, solo, kv.Key{})
	if err != nil || len(r.NC.Chain) != 0 {
		t.Fatalf("read: %v chain=%v", err, r.NC.Chain)
	}
	w, err := NewWrite(ep, 1, solo, kv.Key{}, kv.Value("v"))
	if err != nil || len(w.NC.Chain) != 0 {
		t.Fatalf("write: %v chain=%v", err, w.NC.Chain)
	}
}

func TestOwnerValueRoundTrip(t *testing.T) {
	f := func(owner uint64, payload []byte) bool {
		v := OwnerValue(owner, payload)
		return Owner(v) == owner && bytes.Equal(v[8:], payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if Owner(kv.Value("short")) != 0 {
		t.Fatal("short value owner must be 0")
	}
	if Owner(nil) != 0 {
		t.Fatal("nil value owner must be 0")
	}
}

func TestParseReply(t *testing.T) {
	k := kv.KeyFromString("k")
	f, _ := NewWrite(ep, 11, rt, k, kv.Value("v"))
	if _, err := ParseReply(f); err == nil {
		t.Fatal("non-reply frame must be rejected")
	}
	f.NC.Op = kv.OpReply
	f.NC.Status = kv.StatusOK
	f.NC.SetVersion(kv.Version{Session: 1, Seq: 4})
	rep, err := ParseReply(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.QueryID != 11 || rep.Status != kv.StatusOK || rep.Version != (kv.Version{Session: 1, Seq: 4}) {
		t.Fatalf("reply = %+v", rep)
	}
	// Value must be detached from the frame.
	rep.Value[0] = 'X'
	if f.NC.Value[0] == 'X' {
		t.Fatal("reply value aliases the frame")
	}
}

func TestWriteRoundTripsThroughWire(t *testing.T) {
	// Builder output must survive serialize/decode — the property that the
	// real transport depends on.
	f := func(raw uint64, val []byte) bool {
		if len(val) > 200 {
			val = val[:200]
		}
		k := kv.KeyFromUint64(raw)
		fr, err := NewWrite(ep, raw, rt, k, kv.Value(val))
		if err != nil {
			return false
		}
		buf, err := fr.Serialize(nil)
		if err != nil {
			return false
		}
		var back packet.Frame
		if err := back.Decode(buf); err != nil {
			return false
		}
		return back.NC.Key == k && bytes.Equal(back.NC.Value, val) &&
			back.NC.QueryID == raw && len(back.NC.Chain) == 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOversizedValueRejected(t *testing.T) {
	big := make(kv.Value, 70000)
	if _, err := NewWrite(ep, 1, rt, kv.Key{}, big); err != kv.ErrTooLarge {
		t.Fatalf("err = %v, want too large", err)
	}
}

// TestCallFrameRoundTripsThroughWire: every client operation builds through
// Call.Frame, and what it builds survives the wire codec with the op, key,
// value (CAS: expected owner then new value), target and chain intact.
func TestCallFrameRoundTripsThroughWire(t *testing.T) {
	k := kv.KeyFromString("k")
	head, tail := rt.Hops[0], rt.Hops[2]
	cases := []struct {
		call  Call
		dst   packet.Addr
		value []byte
	}{
		{Call{Op: kv.OpRead, Key: k}, tail, nil},
		{Call{Op: kv.OpWrite, Key: k, Value: kv.Value("v")}, head, []byte("v")},
		{Call{Op: kv.OpDelete, Key: k}, head, nil},
		{Call{Op: kv.OpCAS, Key: k, Expect: 7, Value: OwnerValue(9, []byte("p"))}, head,
			append(OwnerValue(7, nil), OwnerValue(9, []byte("p"))...)},
		{Acquire(k, 9), head, append(OwnerValue(0, nil), OwnerValue(9, nil)...)},
		{Release(k, 9), head, append(OwnerValue(9, nil), OwnerValue(0, nil)...)},
	}
	for _, tc := range cases {
		fr, err := tc.call.Frame(ep, 11, rt)
		if err != nil {
			t.Fatalf("%v: %v", tc.call.Op, err)
		}
		buf, err := fr.Serialize(nil)
		if err != nil {
			t.Fatalf("%v: %v", tc.call.Op, err)
		}
		var back packet.Frame
		if err := back.Decode(buf); err != nil {
			t.Fatalf("%v: %v", tc.call.Op, err)
		}
		if back.NC.Op != tc.call.Op || back.NC.Key != k || back.NC.QueryID != 11 ||
			back.IP.Dst != tc.dst || len(back.NC.Chain) != 2 || !bytes.Equal(back.NC.Value, tc.value) {
			t.Errorf("%v: decoded %v to %v value %x", tc.call.Op, &back.NC, back.IP.Dst, back.NC.Value)
		}
	}
	if _, err := (Call{Op: kv.OpSync, Key: k}).Frame(ep, 1, rt); err == nil {
		t.Error("a non-client op built a frame")
	}
}

// TestCallOutcome pins how a reply is read: status to error, the CAS
// verdict, and the "stored owner is the one I proposed" rule.
func TestCallOutcome(t *testing.T) {
	k := kv.KeyFromString("lock")
	ver := kv.Version{Session: 1, Seq: 4}
	mine, theirs, free := OwnerValue(9, nil), OwnerValue(5, nil), OwnerValue(0, nil)
	cases := []struct {
		name string
		call Call
		rep  Reply
		want Outcome
		err  error
	}{
		{"read ok", Call{Op: kv.OpRead, Key: k},
			Reply{Status: kv.StatusOK, Value: kv.Value("v"), Version: ver},
			Outcome{Value: kv.Value("v"), Version: ver}, nil},
		{"read of a missing key", Call{Op: kv.OpRead, Key: k},
			Reply{Status: kv.StatusNotFound}, Outcome{}, kv.ErrNotFound},
		{"write refused by a freeze", Call{Op: kv.OpWrite, Key: k, Value: kv.Value("v")},
			Reply{Status: kv.StatusUnavailable}, Outcome{}, kv.ErrUnavailable},
		{"acquire swapped", Acquire(k, 9),
			Reply{Status: kv.StatusOK, Value: mine, Version: ver},
			Outcome{Value: mine, Version: ver, Swapped: true, Landed: true}, nil},
		{"acquire lost to a foreign owner", Acquire(k, 9),
			Reply{Status: kv.StatusCASFail, Value: theirs},
			Outcome{Value: theirs}, nil},
		{"acquire lost to its own owner", Acquire(k, 9),
			Reply{Status: kv.StatusCASFail, Value: mine},
			Outcome{Value: mine, Landed: true, Assumed: true}, nil},
		{"release finds the lock free", Release(k, 9),
			Reply{Status: kv.StatusCASFail, Value: free},
			Outcome{Value: free, Landed: true}, nil},
		{"release finds a foreign owner", Release(k, 9),
			Reply{Status: kv.StatusCASFail, Value: theirs},
			Outcome{Value: theirs}, nil},
		{"cas on a dead chain", Acquire(k, 9),
			Reply{Status: kv.StatusUnavailable}, Outcome{}, kv.ErrUnavailable},
		{"cas-fail status on a write is an error", Call{Op: kv.OpWrite, Key: k},
			Reply{Status: kv.StatusCASFail}, Outcome{}, kv.ErrCASFail},
	}
	for _, tc := range cases {
		got, err := tc.call.Outcome(tc.rep)
		if err != tc.err || !bytes.Equal(got.Value, tc.want.Value) || got.Version != tc.want.Version ||
			got.Swapped != tc.want.Swapped || got.Landed != tc.want.Landed || got.Assumed != tc.want.Assumed {
			t.Errorf("%s: got %+v, %v; want %+v, %v", tc.name, got, err, tc.want, tc.err)
		}
	}
}

// TestMissedJoiner: an ack along sent is taken unless the chain now has
// the same head and a switch sent does not list.
func TestMissedJoiner(t *testing.T) {
	a, b, c, d := packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(10, 0, 0, 2),
		packet.AddrFrom4(10, 0, 0, 3), packet.AddrFrom4(10, 0, 0, 4)
	rt := func(g uint16, hops ...packet.Addr) Route { return Route{Group: g, Hops: hops} }
	for _, tc := range []struct {
		name      string
		sent, now Route
		want      bool
	}{
		{"same chain", rt(1, a, b, c), rt(1, a, b, c), false},
		{"tail joined", rt(1, a, b), rt(1, a, b, d), true},
		{"mid joined", rt(1, a, b), rt(1, a, d, b), true},
		{"head joined", rt(1, a, b), rt(1, d, a, b), false},
		{"tail failed", rt(1, a, b, c), rt(1, a, b), false},
		{"head failed", rt(1, a, b, c), rt(1, b, c), false},
		{"other group", rt(1, a, b), rt(2, a, b, d), false},
		{"no route", rt(1), rt(1, a, b), false},
	} {
		if got := MissedJoiner(tc.sent, tc.now); got != tc.want {
			t.Errorf("%s: MissedJoiner = %v, want %v", tc.name, got, tc.want)
		}
	}
}
