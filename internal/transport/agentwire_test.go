package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netchain/internal/controller"
	"netchain/internal/core"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/ring"
	"netchain/internal/swsim"
)

func agentTestSwitch(t testing.TB, i int) *core.Switch {
	t.Helper()
	sw, err := core.NewSwitch(packet.AddrFrom4(10, 0, 0, byte(i)), pipeCfg())
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// An agentKind is one way of serving a switch's agent: open returns the
// controller's end and the stop that tears down the agent's side. Both are
// released with the test.
type agentKind struct {
	name string
	open func(t testing.TB, sw *core.Switch) (*WireAgent, func() error)
}

// agentKinds are the streams the agent protocol runs over: TCP, as between
// processes. (A controller in the switches' own process uses
// controller.LocalAgent and no stream at all.)
var agentKinds = []agentKind{{"tcp", openTCPAgent}}

func openTCPAgent(t testing.TB, sw *core.Switch) (*WireAgent, func() error) {
	t.Helper()
	return openTCPAgentWrapped(t, sw, func(c net.Conn) net.Conn { return c })
}

// openTCPAgentWrapped is openTCPAgent with the dialed connection passed
// through wrap before the WireAgent takes it over.
func openTCPAgentWrapped(t testing.TB, sw *core.Switch, wrap func(net.Conn) net.Conn) (*WireAgent, func() error) {
	t.Helper()
	addr, stop, err := ServeAgent(sw, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stop() })
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	a := NewWireAgent(wrap(conn))
	t.Cleanup(func() { a.Close() })
	return a, stop
}

func sortedKeys(ks []kv.Key) []kv.Key {
	out := append([]kv.Key(nil), ks...)
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}

// sameItems compares item lists treating nil and empty values alike (the
// wire cannot tell them apart, and neither can the register file).
func sameItems(a, b []core.Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Version != b[i].Version ||
			a[i].Tombstone != b[i].Tombstone || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// TestAgentVerbRoundTrip drives every verb through a live agent
// connection and checks the switch-side effect and whatever comes
// back.
func TestAgentVerbRoundTrip(t *testing.T) {
	k1, k2, k3 := kv.KeyFromString("k1"), kv.KeyFromString("k2"), kv.KeyFromString("k3")
	absent := kv.KeyFromString("absent")
	items := []core.Item{
		{Key: k1, Value: kv.Value("hello"), Version: kv.Version{Session: 3, Seq: 1 << 40}},
		{Key: k2, Value: kv.Value{}, Version: kv.Version{Seq: 7}, Tombstone: true},
		{Key: k3, Value: bytes.Repeat([]byte{0xab}, 128), Version: kv.Version{Session: 1, Seq: 2}},
	}
	dst, to := packet.AddrFrom4(10, 0, 0, 9), packet.AddrFrom4(10, 0, 0, 4)

	type end struct {
		kind string
		sw   *core.Switch
		a    *WireAgent
	}
	var ends []end
	for _, k := range agentKinds {
		sw := agentTestSwitch(t, 1)
		a, _ := k.open(t, sw)
		ends = append(ends, end{k.name, sw, a})
	}
	steps := []struct {
		name  string
		call  func(a *WireAgent) error
		check func(t *testing.T, sw *core.Switch)
	}{
		{"InstallKeys", func(a *WireAgent) error { return a.InstallKeys([]kv.Key{k1, k2}) }, func(t *testing.T, sw *core.Switch) {
			if !sw.HasKey(k1) || !sw.HasKey(k2) || sw.HasKey(k3) {
				t.Fatal("slots not installed as asked")
			}
		}},
		{"InstallKeys empty", func(a *WireAgent) error { return a.InstallKeys(nil) }, func(t *testing.T, sw *core.Switch) {
			if sw.ItemCount() != 2 {
				t.Fatalf("items = %d", sw.ItemCount())
			}
		}},
		{"WriteItems", func(a *WireAgent) error { return a.WriteItems(items) }, func(t *testing.T, sw *core.Switch) {
			got, missing := sw.ReadItems([]kv.Key{k1, k2, k3})
			if len(missing) != 0 || !sameItems(got, items) {
				t.Fatalf("switch holds %+v (missing %v), want %+v", got, missing, items)
			}
		}},
		{"ReadItems", func(a *WireAgent) error {
			got, missing, err := a.ReadItems([]kv.Key{k3, absent, k1, k2})
			if err != nil {
				return err
			}
			if want := []core.Item{items[2], items[0], items[1]}; !sameItems(got, want) {
				t.Errorf("ReadItems = %+v, want %+v", got, want)
			}
			if !reflect.DeepEqual(missing, []kv.Key{absent}) {
				t.Errorf("missing = %v, want [%v]", missing, absent)
			}
			return nil
		}, nil},
		{"Keys", func(a *WireAgent) error {
			got, err := a.Keys()
			if err != nil {
				return err
			}
			if want := sortedKeys([]kv.Key{k1, k2, k3}); !reflect.DeepEqual(sortedKeys(got), want) {
				t.Errorf("Keys = %v, want %v", got, want)
			}
			return nil
		}, nil},
		{"RemoveKeys", func(a *WireAgent) error { return a.RemoveKeys([]kv.Key{k2, k3}) }, func(t *testing.T, sw *core.Switch) {
			if !sw.HasKey(k1) || sw.HasKey(k2) || sw.HasKey(k3) {
				t.Fatal("slots not removed as asked")
			}
		}},
		{"SetSession", func(a *WireAgent) error { return a.SetSession(0xfffe, 0xdeadbeef) }, func(t *testing.T, sw *core.Switch) {
			if got := sw.Session(0xfffe); got != 0xdeadbeef {
				t.Fatalf("session = %#x", got)
			}
		}},
		{"FreezeWrites on", func(a *WireAgent) error { return a.FreezeWrites(12, true) }, func(t *testing.T, sw *core.Switch) {
			if !sw.WriteFrozen(12) {
				t.Fatal("group not frozen")
			}
		}},
		{"FreezeWrites off", func(a *WireAgent) error { return a.FreezeWrites(12, false) }, func(t *testing.T, sw *core.Switch) {
			if sw.WriteFrozen(12) {
				t.Fatal("group still frozen")
			}
		}},
		{"InstallRule wildcard", func(a *WireAgent) error {
			return a.InstallRule(dst, core.WildcardGroup, core.Rule{Action: core.ActNextHop})
		}, func(t *testing.T, sw *core.Switch) {
			if got := sw.Rules()[dst][core.WildcardGroup]; got != (core.Rule{Action: core.ActNextHop}) {
				t.Fatalf("rule = %+v", got)
			}
		}},
		{"InstallRule redirect", func(a *WireAgent) error {
			return a.InstallRule(dst, 65535, core.Rule{Action: core.ActRedirect, To: to})
		}, func(t *testing.T, sw *core.Switch) {
			if got := sw.Rules()[dst][65535]; got != (core.Rule{Action: core.ActRedirect, To: to}) {
				t.Fatalf("rule = %+v", got)
			}
		}},
		{"RemoveRule", func(a *WireAgent) error { return a.RemoveRule(dst, core.WildcardGroup) }, func(t *testing.T, sw *core.Switch) {
			if rules := sw.Rules()[dst]; len(rules) != 1 {
				t.Fatalf("rules left = %+v", rules)
			}
		}},
	}
	for _, st := range steps {
		for _, e := range ends {
			if err := st.call(e.a); err != nil {
				t.Fatalf("%s over %s: %v", st.name, e.kind, err)
			}
		}
		if st.check != nil {
			t.Run(st.name, func(t *testing.T) {
				for _, e := range ends {
					t.Run(e.kind, func(t *testing.T) { st.check(t, e.sw) })
				}
			})
		}
	}

	// A verb the switch refuses comes back as an error naming the cause,
	// having still attempted the rest of the batch, and the stream stays in
	// step for the next call.
	for _, e := range ends {
		err := e.a.InstallKeys([]kv.Key{k1, k2})
		if err == nil || !strings.Contains(err.Error(), k1.String()) {
			t.Fatalf("%s: duplicate install error = %v", e.kind, err)
		}
		if !e.sw.HasKey(k2) {
			t.Fatalf("%s: batch stopped at its first failure", e.kind)
		}
		if ks, err := e.a.Keys(); err != nil || len(ks) != 2 {
			t.Fatalf("%s: call after a refused verb: %v, %v", e.kind, ks, err)
		}
	}
}

func TestAgentItemCodec(t *testing.T) {
	items := []core.Item{
		{Key: kv.KeyFromUint64(1), Value: kv.Value("v"), Version: kv.Version{Session: 1<<32 - 1, Seq: 1<<64 - 1}},
		{Key: kv.KeyFromUint64(2), Tombstone: true},
		{Key: kv.KeyFromUint64(3), Value: bytes.Repeat([]byte{7}, 0xffff)},
	}
	b, err := appendItems(nil, items)
	if err != nil {
		t.Fatal(err)
	}
	d := agentDec{b: b}
	got := d.items()
	if err := d.end(); err != nil || !sameItems(got, items) {
		t.Fatalf("decoded %d items, err %v", len(got), err)
	}
	if _, err := appendItems(nil, []core.Item{{Value: make([]byte, 0x10000)}}); err == nil {
		t.Fatal("a value the u16 length cannot carry must be refused")
	}
}

// agentRequests is one well-formed request frame (verb | body) per verb.
func agentRequests(t testing.TB) map[string][]byte {
	keys := appendKeys(nil, []kv.Key{kv.KeyFromUint64(1), kv.KeyFromUint64(2)})
	items, err := appendItems(nil, []core.Item{
		{Key: kv.KeyFromUint64(3), Value: kv.Value("abc"), Version: kv.Version{Seq: 1}},
		{Key: kv.KeyFromUint64(4), Tombstone: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	frame := func(verb byte, body ...byte) []byte { return append([]byte{verb}, body...) }
	return map[string][]byte{
		"InstallKeys":  frame(verbInstallKeys, keys...),
		"RemoveKeys":   frame(verbRemoveKeys, keys...),
		"ReadItems":    frame(verbReadItems, keys...),
		"WriteItems":   frame(verbWriteItems, items...),
		"SetSession":   frame(verbSetSession, 0, 5, 0, 0, 0, 9),
		"FreezeWrites": frame(verbFreezeWrites, 0, 5, 1),
		"InstallRule":  frame(verbInstallRule, 10, 0, 0, 9, 0xff, 0xff, 0xff, 0xff, byte(core.ActRedirect), 10, 0, 0, 4),
		"RemoveRule":   frame(verbRemoveRule, 10, 0, 0, 9, 0, 0, 0, 5),
		"Keys":         frame(verbKeys),
	}
}

// TestAgentFrameRejects: malformed frames are errors — never a panic, never
// an allocation sized by a number the peer made up.
func TestAgentFrameRejects(t *testing.T) {
	// status reports agentErr only for frames refused as malformed: a
	// well-formed verb the switch cannot carry out (removing an absent
	// key) is an error too, but not this test's kind.
	status := func(req []byte) byte {
		t.Helper()
		resp := answer(req, nil, agentVerbs(agentTestSwitch(t, 1)))
		if len(resp) == 0 {
			t.Fatalf("request %x produced an empty response", req)
		}
		if resp[0] == agentErr && !strings.Contains(string(resp[1:]), errAgentFrame.Error()) {
			return agentOK
		}
		return resp[0]
	}
	for name, req := range agentRequests(t) {
		if got := status(req); got != agentOK {
			t.Errorf("%s: well-formed request refused as malformed", name)
		}
		for cut := 1; cut < len(req); cut++ {
			if got := status(req[:cut]); got != agentErr {
				t.Errorf("%s truncated to %d of %d bytes: status %d", name, cut, len(req), got)
			}
		}
		if got := status(append(append([]byte(nil), req...), 0)); got != agentErr {
			t.Errorf("%s with a trailing byte: status %d", name, got)
		}
	}
	for _, verb := range []byte{0, verbKeys + 1, 0xff} {
		if got := status([]byte{verb}); got != agentErr {
			t.Errorf("unknown verb %d: status %d", verb, got)
		}
	}
	if got := status(nil); got != agentErr {
		t.Errorf("empty frame: status %d", got)
	}
	// Element counts the body cannot hold.
	lying := binary.BigEndian.AppendUint32([]byte{verbInstallKeys}, 0xffffffff)
	lying = append(lying, make([]byte, kv.KeySize)...)
	if got := status(lying); got != agentErr {
		t.Errorf("lying key count: status %d", got)
	}
	if n := testing.AllocsPerRun(10, func() {
		d := agentDec{b: lying[1:]}
		d.keys()
		d = agentDec{b: lying[1:]}
		d.items()
	}); n != 0 {
		t.Errorf("a lying count cost %v allocations", n)
	}

	// Length prefixes.
	prefix := func(n uint32, body ...byte) io.Reader {
		return bytes.NewReader(append(binary.BigEndian.AppendUint32(nil, n), body...))
	}
	for _, n := range []uint32{0, maxAgentFrame + 1, 0xffffffff} {
		if _, err := readAgentFrame(prefix(n, 1, 2, 3), nil); !errors.Is(err, errAgentFrame) {
			t.Errorf("length %d: err = %v", n, err)
		}
	}
	buf, err := readAgentFrame(prefix(maxAgentFrame, make([]byte, 10)...), nil)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short stream behind a maximal prefix: err = %v", err)
	}
	if cap(buf) > 2*agentReadChunk {
		t.Errorf("a lying prefix allocated %d bytes for a 10-byte stream", cap(buf))
	}
	if _, err := readAgentFrame(prefix(5, 1, 2), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated frame: err = %v", err)
	}

	// On a live agent a bad prefix costs that connection only: the agent
	// hangs up, the controller's next call on it fails, and a second
	// connection to the same agent keeps being served.
	for _, k := range agentKinds {
		sw := agentTestSwitch(t, 1)
		good, _ := k.open(t, sw)
		raw, err := net.Dial("tcp", good.conn.RemoteAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		bad := NewWireAgent(raw)
		t.Cleanup(func() { bad.Close() })
		if _, err := bad.conn.Write(binary.BigEndian.AppendUint32(nil, maxAgentFrame+1)); err != nil {
			t.Fatal(err)
		}
		if _, err := bad.r.ReadByte(); err != io.EOF {
			t.Errorf("%s: agent kept a stream whose framing is gone: %v", k.name, err)
		}
		if err := bad.SetSession(1, 1); err == nil {
			t.Errorf("%s: a call on a stream the agent hung up succeeded", k.name)
		}
		if err := good.SetSession(1, 1); err != nil {
			t.Errorf("%s: other connection disturbed: %v", k.name, err)
		}
	}

	// The controller's end treats a reply it cannot frame the same way:
	// an error now, and the connection is retired.
	cli, srv := net.Pipe()
	defer srv.Close()
	go func() {
		io.CopyN(io.Discard, srv, 4+1+2+4) // the SetSession request
		srv.Write(binary.BigEndian.AppendUint32(nil, maxAgentFrame+1))
	}()
	a := NewWireAgent(cli)
	if err := a.SetSession(1, 1); !errors.Is(err, errAgentFrame) {
		t.Errorf("unframeable reply: err = %v", err)
	}
	if err := a.SetSession(1, 1); !errors.Is(err, errAgentFrame) {
		t.Errorf("call on a retired connection: err = %v", err)
	}
}

// FuzzAgentFrame feeds arbitrary bytes to the agent as a request stream, to
// the controller service's request decoders and to both clients' reply
// decoders: garbage must come back as error frames or a closed stream,
// never a panic, and no frame buffer may outgrow what actually arrived.
func FuzzAgentFrame(f *testing.F) {
	for _, req := range agentRequests(f) {
		whole := append(binary.BigEndian.AppendUint32(nil, uint32(len(req))), req...)
		f.Add(whole)
		f.Add(append(append([]byte(nil), whole...), whole...))
		for cut := 0; cut < len(whole); cut += 5 {
			f.Add(whole[:cut])
		}
		for i := 0; i < len(whole); i += 3 {
			flip := append([]byte(nil), whole...)
			flip[i] ^= 0x81
			f.Add(flip)
		}
	}
	f.Add(binary.BigEndian.AppendUint32(nil, maxAgentFrame))
	f.Add(binary.BigEndian.AppendUint32(nil, 0))
	f.Add(appendRoute(nil, query.Route{Group: 3, Hops: []packet.Addr{packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(10, 0, 0, 2)}}))
	key := kv.KeyFromUint64(9)
	f.Add(append(key[:], 10, 0, 0, 5, 0, 3, 'a', ':', '1'))

	f.Fuzz(func(t *testing.T, data []byte) {
		sw, err := core.NewSwitch(packet.AddrFrom4(10, 0, 0, 1),
			swsim.Config{Stages: 8, SlotBytes: 16, SlotsPerStage: 16, PPS: 1e9})
		if err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(data)
		exec := agentVerbs(sw)
		var in, out []byte
		// A bounded number of frames per input: the rule table is
		// copy-on-write, so a long run of InstallRule frames is quadratic
		// and would spend the fuzz budget on one input.
		for frames := 0; frames < 32; frames++ {
			if in, err = readAgentFrame(r, in); err != nil {
				break
			}
			out = answer(in, out[:0], exec)
			if len(out) == 0 || (out[0] != agentOK && out[0] != agentErr) {
				t.Fatalf("request %x: malformed response %x", in, out)
			}
		}
		if cap(in) > 2*(len(data)+agentReadChunk) {
			t.Fatalf("frame buffer grew to %d bytes on %d bytes of input", cap(in), len(data))
		}
		d := agentDec{b: data}
		d.items()
		d.keys()
		_ = d.end()
		// Controller requests (key; switch | agent address) and replies
		// (route; group count). A lying length or count allocates nothing
		// the input does not hold.
		d = agentDec{b: data}
		d.key()
		d.u32()
		d.str()
		_ = d.end()
		d = agentDec{b: data}
		if rt := d.route(); cap(rt.Hops)*4 > len(data) {
			t.Fatalf("route of %d hops decoded from %d bytes", cap(rt.Hops), len(data))
		}
		d.u32()
		_ = d.end()
	})
}

// TestAgentParity runs one scripted control sequence through a LocalAgent
// and through a wire agent, each against its own switch, and
// requires the switches — and what the agents report of them — to end up
// identical.
func TestAgentParity(t *testing.T) {
	k := func(i int) kv.Key { return kv.KeyFromUint64(uint64(100 + i)) }
	dst, to := packet.AddrFrom4(10, 0, 0, 7), packet.AddrFrom4(10, 0, 0, 8)
	script := func(t *testing.T, a controller.Agent) {
		steps := []func() error{
			func() error { return a.InstallKeys([]kv.Key{k(1), k(2), k(3), k(4)}) },
			func() error {
				return a.WriteItems([]core.Item{
					{Key: k(1), Value: kv.Value("one"), Version: kv.Version{Session: 1, Seq: 4}},
					{Key: k(2), Value: kv.Value("two"), Version: kv.Version{Seq: 9}, Tombstone: true},
					{Key: k(5), Value: kv.Value("five"), Version: kv.Version{Seq: 1}}, // no slot yet: allocated
				})
			},
			// An older version must not regress the record.
			func() error {
				return a.WriteItems([]core.Item{{Key: k(1), Value: kv.Value("stale"), Version: kv.Version{Session: 1, Seq: 3}}})
			},
			func() error { return a.FreezeWrites(3, true) },
			func() error { return a.FreezeWrites(4, true) },
			func() error { return a.FreezeWrites(4, false) },
			func() error { return a.InstallRule(dst, core.WildcardGroup, core.Rule{Action: core.ActNextHop}) },
			func() error { return a.InstallRule(dst, 3, core.Rule{Action: core.ActDrop}) },
			func() error { return a.InstallRule(dst, 4, core.Rule{Action: core.ActRedirect, To: to}) },
			func() error { return a.RemoveRule(dst, 3) },
			func() error { return a.SetSession(3, 11) },
			func() error { return a.RemoveKeys([]kv.Key{k(3)}) },
		}
		for i, st := range steps {
			if err := st(); err != nil {
				t.Errorf("step %d: %v", i, err)
			}
		}
		// The batch verbs report the same failures, too.
		if err := a.RemoveKeys([]kv.Key{k(4), k(3)}); err == nil {
			t.Error("removing an absent key reported no error")
		}
	}
	swLocal := agentTestSwitch(t, 1)
	local := controller.LocalAgent{Switch: swLocal}
	script(t, local)
	ask := []kv.Key{k(5), k(4), k(3), k(2), k(1)}
	li, lm, err := local.ReadItems(ask)
	if err != nil {
		t.Fatalf("local ReadItems: %v", err)
	}
	if len(li) != 3 || len(lm) != 2 || string(li[2].Value) != "one" {
		t.Errorf("script did not leave the expected state: %+v missing %v", li, lm)
	}
	lk, _ := local.Keys()

	for _, kind := range agentKinds {
		t.Run(kind.name, func(t *testing.T) {
			swWire := agentTestSwitch(t, 1)
			wire, _ := kind.open(t, swWire)
			script(t, wire)
			wi, wm, err := wire.ReadItems(ask)
			if err != nil {
				t.Fatalf("ReadItems: %v", err)
			}
			if !sameItems(li, wi) || !reflect.DeepEqual(lm, wm) {
				t.Errorf("ReadItems diverge:\n local %+v missing %v\n wire  %+v missing %v", li, lm, wi, wm)
			}
			wk, err := wire.Keys()
			if err != nil || !reflect.DeepEqual(sortedKeys(lk), sortedKeys(wk)) {
				t.Errorf("Keys diverge: %v vs %v (%v)", lk, wk, err)
			}
			if !reflect.DeepEqual(swLocal.Rules(), swWire.Rules()) {
				t.Errorf("Rules diverge: %v vs %v", swLocal.Rules(), swWire.Rules())
			}
			for g := uint16(0); g < 8; g++ {
				if swLocal.Session(g) != swWire.Session(g) || swLocal.WriteFrozen(g) != swWire.WriteFrozen(g) {
					t.Errorf("group %d: session %d/%d frozen %v/%v", g,
						swLocal.Session(g), swWire.Session(g), swLocal.WriteFrozen(g), swWire.WriteFrozen(g))
				}
			}
		})
	}
}

// countingConn counts the requests a controller sends one agent: the wire
// client issues exactly one Write per round trip.
type countingConn struct {
	net.Conn
	trips *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.trips.Add(1)
	return c.Conn.Write(b)
}

// TestAgentRoundTripCounts pins the channel's cost model: Insert is one
// round trip per chain hop, and recovering a group costs every switch the
// same number of round trips whether the group holds 1, 64 or 512 keys.
func TestAgentRoundTripCounts(t *testing.T) {
	recoverTrips := func(nkeys int) [4]int64 {
		var addrs [4]packet.Addr
		var trips [4]atomic.Int64
		agents := map[packet.Addr]controller.Agent{}
		sws := map[packet.Addr]*core.Switch{}
		for i := range addrs {
			addrs[i] = packet.AddrFrom4(10, 0, 0, byte(i+1))
			sw := agentTestSwitch(t, i+1)
			sws[addrs[i]] = sw
			a, _ := openTCPAgentWrapped(t, sw, func(c net.Conn) net.Conn {
				return countingConn{Conn: c, trips: &trips[i]}
			})
			agents[addrs[i]] = a
		}
		snapshot := func() (out [4]int64) {
			for i := range trips {
				out[i] = trips[i].Load()
			}
			return out
		}
		// One virtual node per member: three groups, each chained over all
		// three members; the spare joins on recovery.
		r, err := ring.New(ring.Config{VNodesPerSwitch: 1, Replicas: 3, Seed: 7}, addrs[:3])
		if err != nil {
			t.Fatal(err)
		}
		ctl, err := controller.New(controller.Config{}, r, controller.Immediate{},
			func(a packet.Addr) (controller.Agent, bool) { ag, ok := agents[a]; return ag, ok },
			func(failed packet.Addr) []packet.Addr {
				var out []packet.Addr
				for _, a := range addrs {
					if a != failed {
						out = append(out, a)
					}
				}
				return out
			})
		if err != nil {
			t.Fatal(err)
		}

		// Every key lands in one group, so the other two recover empty.
		var g ring.GroupID
		var keys []kv.Key
		for i := uint64(0); len(keys) < nkeys; i++ {
			k := kv.KeyFromUint64(i)
			if len(keys) == 0 {
				g = r.GroupForKey(k)
			}
			if r.GroupForKey(k) == g {
				keys = append(keys, k)
			}
		}
		for _, k := range keys {
			before := snapshot()
			rt, err := ctl.Insert(k)
			if err != nil {
				t.Fatal(err)
			}
			after := snapshot()
			for i, a := range addrs {
				want := int64(0)
				if (ring.Chain{Hops: rt.Hops}).Contains(a) {
					want = 1
				}
				if got := after[i] - before[i]; got != want {
					t.Fatalf("%d keys: Insert cost switch %v %d round trips, want %d", nkeys, a, got, want)
				}
			}
		}
		items := make([]core.Item, len(keys))
		for i, k := range keys {
			items[i] = core.Item{Key: k, Value: kv.Value("v"), Version: kv.Version{Seq: 1}}
		}
		for _, a := range addrs[:3] {
			if err := agents[a].WriteItems(items); err != nil {
				t.Fatal(err)
			}
		}

		failed := ctl.GroupRoute(g).Hops[2]
		before := snapshot()
		if err := ctl.HandleFailure(failed, nil); err != nil {
			t.Fatal(err)
		}
		done := false
		if err := ctl.Recover(failed, addrs[3:], func() { done = true }); err != nil {
			t.Fatal(err)
		}
		if !done {
			t.Fatal("recovery did not run to completion under the inline scheduler")
		}
		if got := sws[addrs[3]].ItemCount(); got != nkeys {
			t.Fatalf("replacement holds %d items after recovery, want %d", got, nkeys)
		}
		after := snapshot()
		var out [4]int64
		for i := range out {
			out[i] = after[i] - before[i]
		}
		return out
	}

	base := recoverTrips(1)
	t.Logf("failover + recovery round trips per switch (three groups, one holding the keys): %v", base)
	var total int64
	for _, n := range base {
		total += n
	}
	if total == 0 || total > 3*20 {
		t.Errorf("recovering three groups cost %d round trips in all; the budget is about 15 a group", total)
	}
	for _, n := range []int{64, 512} {
		if got := recoverTrips(n); got != base {
			t.Errorf("%d keys: round trips per switch %v, want %v as with 1 key", n, got, base)
		}
	}
}

// TestAgentConcurrentCallers shares one stream between goroutines: the
// one-request-in-flight rule must hand every caller its own reply, and a
// stop in mid-traffic must fail the callers, not wedge them.
func TestAgentConcurrentCallers(t *testing.T) {
	for _, kind := range agentKinds {
		t.Run(kind.name, func(t *testing.T) {
			a, stop := kind.open(t, agentTestSwitch(t, 1))
			const callers, rounds = 8, 200
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					k := kv.KeyFromUint64(uint64(c + 1))
					for i := 1; i <= rounds; i++ {
						want := core.Item{Key: k, Value: kv.Value{byte(c), byte(i)}, Version: kv.Version{Seq: uint64(i)}}
						if err := a.WriteItems([]core.Item{want}); err != nil {
							t.Errorf("caller %d: %v", c, err)
							return
						}
						got, _, err := a.ReadItems([]kv.Key{k})
						if err != nil || !sameItems(got, []core.Item{want}) {
							t.Errorf("caller %d round %d: read %+v, %v", c, i, got, err)
							return
						}
						if err := a.SetSession(uint16(c), uint32(i)); err != nil {
							t.Errorf("caller %d: %v", c, err)
							return
						}
					}
				}(c)
			}
			wg.Wait()

			failed := make(chan error, callers)
			for c := 0; c < callers; c++ {
				go func() {
					for {
						if err := a.SetSession(1, 1); err != nil {
							failed <- err
							return
						}
					}
				}()
			}
			if err := stop(); err != nil {
				t.Fatal(err)
			}
			for c := 0; c < callers; c++ {
				select {
				case <-failed:
				case <-time.After(5 * time.Second):
					t.Fatal("a caller is still blocked after the agent stopped")
				}
			}
		})
	}
}

// refuseConn refuses every write whole while refuse is set: no byte of
// the request reaches the stream.
type refuseConn struct {
	net.Conn
	refuse *atomic.Bool
}

func (c refuseConn) Write(b []byte) (int, error) {
	if c.refuse.Load() {
		return 0, errors.New("write refused")
	}
	return c.Conn.Write(b)
}

// TestAgentRefusedWriteKeepsConn: a request the stream refuses whole fails
// fast without reaching the switch, leaves the connection usable for the
// next call, and does not wedge another switch's agent.
func TestAgentRefusedWriteKeepsConn(t *testing.T) {
	var refuse atomic.Bool
	swA := agentTestSwitch(t, 1)
	a, _ := openTCPAgentWrapped(t, swA, func(c net.Conn) net.Conn {
		return refuseConn{Conn: c, refuse: &refuse}
	})
	b, _ := openTCPAgent(t, agentTestSwitch(t, 2))
	if err := a.SetSession(1, 1); err != nil {
		t.Fatal(err)
	}
	refuse.Store(true)
	t0 := time.Now()
	if err := a.SetSession(1, 2); err == nil || time.Since(t0) > time.Second {
		t.Fatalf("refused call: err %v after %v", err, time.Since(t0))
	}
	if swA.Session(1) != 1 {
		t.Fatal("a refused call reached the switch")
	}
	if err := b.SetSession(1, 2); err != nil {
		t.Fatalf("healthy agent wedged by a refused one: %v", err)
	}
	refuse.Store(false)
	if err := a.SetSession(1, 3); err != nil || swA.Session(1) != 3 {
		t.Fatalf("connection unusable after a refused write: %v (session %d)", err, swA.Session(1))
	}
}

// stallConn sends every request but its last byte, so the agent waits for
// the rest of the frame and the call waits for a reply that never comes.
type stallConn struct {
	net.Conn
	sent chan struct{} // closed once the first request is on the stream
}

func (c stallConn) Write(b []byte) (int, error) {
	if n, err := c.Conn.Write(b[:len(b)-1]); err != nil {
		return n, err
	}
	close(c.sent)
	return len(b), nil
}

// TestAgentStopFailsCallInFlight stops the agent while a call waits for
// its reply: the call fails and stop returns.
func TestAgentStopFailsCallInFlight(t *testing.T) {
	for _, k := range agentKinds {
		t.Run(k.name, func(t *testing.T) {
			a, stop := k.open(t, agentTestSwitch(t, 1))
			sent := make(chan struct{})
			a.conn = stallConn{Conn: a.conn, sent: sent}
			called := make(chan error, 1)
			go func() { called <- a.SetSession(1, 1) }()
			<-sent
			stopped := make(chan error, 1)
			go func() { stopped <- stop() }()
			select {
			case err := <-called:
				if err == nil {
					t.Fatal("a call in flight across stop succeeded")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a call in flight is still blocked after stop")
			}
			select {
			case err := <-stopped:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("stop hung with a call in flight")
			}
		})
	}
}

// BenchmarkAgentRoundTrip prices one controller→agent round trip over
// TCP: a one-key InstallKeys, the call Insert makes once per
// chain hop. Each iteration also removes the key on the switch directly
// (no round trip) so the next can install it again.
func BenchmarkAgentRoundTrip(b *testing.B) {
	for _, k := range agentKinds {
		b.Run(k.name, func(b *testing.B) {
			sw := agentTestSwitch(b, 1)
			a, _ := k.open(b, sw)
			keys := []kv.Key{kv.KeyFromString("bench")}
			b.ReportAllocs()
			for b.Loop() {
				if err := a.InstallKeys(keys); err != nil {
					b.Fatal(err)
				}
				if err := sw.RemoveKeys(keys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
