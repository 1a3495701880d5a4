package transport

import (
	"encoding/binary"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"netchain/internal/controller"
	"netchain/internal/health"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
)

// serveController serves svc on loopback and dials it; both end with the
// test.
func serveController(t *testing.T, svc *ControllerService) (*ControllerClient, func() error) {
	t.Helper()
	addr, stop, err := ServeControllerService(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stop() })
	c, err := DialController(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, stop
}

// healthGolden is what netchainctl cluster health printed for the report
// TestClusterHealthRPC serves when the report still crossed the wire as
// gob and netchainctl rendered it.
const healthGolden = "" +
	"switch       verdict       phi  beats     rtt µs    base µs    loss   drops  badpkt    rcvbuf  demoted\n" +
	"10.0.0.1     healthy      4.74      1       40.0       40.0   0.000   0.000       2     4096K     true\n" +
	"10.0.0.2     unknown      0.30      0        0.0        0.0   0.300   0.000       0         ?    false\n" +
	"repair history:\n" +
	"  t=3ms          failover      10.0.0.2\n" +
	"  t=5ms          demote        10.0.0.1 (gray)\n"

// TestClusterHealthRPC serves ClusterHealth over the control wire: the
// reply is the rendered report, byte for byte what netchainctl printed
// before the report became text, and a controller without the autopilot
// must say so.
func TestClusterHealthRPC(t *testing.T) {
	s0, s1 := packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(10, 0, 0, 2)
	det := health.NewDetector(health.Config{HeartbeatEvery: time.Millisecond})
	det.Heartbeat(s0, time.Millisecond, health.Payload{Processed: 10, RcvBuf: 4 << 20, DecodeErrs: 2})
	det.ProbeReply(s0, 2*time.Millisecond, 40*time.Microsecond)
	det.ProbeLost(s1, 3*time.Millisecond)
	report := HealthReport{
		Switches: det.Snapshot(4 * time.Millisecond),
		Repairs: []controller.RepairEvent{
			{At: 3 * time.Millisecond, Switch: s1, Action: controller.ActionFailover},
			{At: 5 * time.Millisecond, Switch: s0, Action: controller.ActionDemote, Detail: "gray"},
		},
		Demoted: []packet.Addr{s0},
	}

	svc := &ControllerService{}
	c, _ := serveController(t, svc)
	if _, err := c.ClusterHealth(); err == nil || !strings.Contains(err.Error(), "autopilot not enabled") {
		t.Fatalf("ClusterHealth without an autopilot: %v", err)
	}
	svc.Health = func() HealthReport { return report }
	got, err := c.ClusterHealth()
	if err != nil {
		t.Fatal(err)
	}
	if got != healthGolden {
		t.Fatalf("reply\n%s\nwant\n%s", got, healthGolden)
	}
	svc.Health = func() HealthReport { return HealthReport{} }
	if got, err := c.ClusterHealth(); err != nil || !strings.HasSuffix(got, "\nrepair history: empty\n") {
		t.Fatalf("empty report: %q, %v", got, err)
	}
}

// TestControllerServiceStopClosesConns: stop must end service on the
// connections it already accepted, not just on the listener — a client
// that dialled before stop gets an error, not an answer, after it.
func TestControllerServiceStopClosesConns(t *testing.T) {
	c, stop := serveController(t, &ControllerService{Health: func() HealthReport { return HealthReport{} }})
	if _, err := c.ClusterHealth(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ClusterHealth(); err == nil {
		t.Fatal("a connection accepted before stop still answered after it")
	}
}

// TestControllerWireRouteInsertGC drives the key verbs through the client:
// an insert allocates the key, a second is refused, GC frees it, and the
// insert is accepted again; Route answers what the controller routes.
func TestControllerWireRouteInsertGC(t *testing.T) {
	d := newDeployment(t)
	c, _ := serveController(t, &ControllerService{Ctl: d.ctl})
	k := kv.KeyFromString("ctl/gc")
	want := d.ctl.Route(k)
	for step, expectOK := range []bool{true, false} {
		rt, err := c.Insert(k)
		if (err == nil) != expectOK {
			t.Fatalf("insert %d: err = %v", step, err)
		}
		if expectOK && !reflect.DeepEqual(rt, query.Route(want)) {
			t.Fatalf("insert route %+v, want %+v", rt, want)
		}
	}
	if err := c.GC(k); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(k); err != nil {
		t.Fatalf("insert after GC: %v", err)
	}
	rt, err := c.Route(k)
	if err != nil || !reflect.DeepEqual(rt, query.Route(want)) {
		t.Fatalf("Route = %+v, %v; want %+v", rt, err, want)
	}
	// The client is the data path's Directory.
	ops := &Ops{Client: d.ops.Client, Dir: c.Route}
	if _, err := ops.Write(k, kv.Value("through the wire directory")); err != nil {
		t.Fatal(err)
	}
	if v, _, err := ops.Read(k); err != nil || string(v) != "through the wire directory" {
		t.Fatalf("read %q, %v", v, err)
	}
}

// TestControllerWireRemoveSwitchUnregisters: RemoveSwitch over the wire
// calls Unregister exactly once, after the drain has emptied the switch,
// and never for a removal the controller refused.
func TestControllerWireRemoveSwitchUnregisters(t *testing.T) {
	d := newDeployment(t)
	var mu sync.Mutex
	var calls []packet.Addr
	var leftover []int
	svc := &ControllerService{Ctl: d.ctl, Unregister: func(sw packet.Addr) {
		mu.Lock()
		defer mu.Unlock()
		calls = append(calls, sw)
		leftover = append(leftover, d.nodes[sw].Switch().ItemCount())
	}}
	c, _ := serveController(t, svc)
	for i := 0; i < 32; i++ {
		k := kv.KeyFromUint64(uint64(900 + i))
		if _, err := c.Insert(k); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ops.Write(k, kv.Value("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Grow to four members first so draining one leaves a full chain.
	if n, err := c.AddSwitch(d.addrs[3], ""); err != nil || n == 0 {
		t.Fatalf("AddSwitch: %d groups, %v", n, err)
	}
	if _, err := c.RemoveSwitch(packet.AddrFrom4(10, 9, 9, 9)); err == nil {
		t.Fatal("removing a switch outside the ring succeeded")
	}
	drained := d.addrs[1]
	if n, err := c.RemoveSwitch(drained); err != nil || n == 0 {
		t.Fatalf("RemoveSwitch: %d groups, %v", n, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(calls, []packet.Addr{drained}) {
		t.Fatalf("Unregister calls %v, want one for %v", calls, drained)
	}
	if leftover[0] != 0 {
		t.Fatalf("Unregister ran with %d items still on the drained switch", leftover[0])
	}
}

// TestControllerWireFrameRejects: a controller request that is truncated or
// carries a trailing byte is refused as malformed before the service
// touches its controller (there is none here to touch).
func TestControllerWireFrameRejects(t *testing.T) {
	svc := &ControllerService{}
	k := kv.KeyFromUint64(7)
	agentAddr := []byte{0, 9, '1', '2', '7', '.', '0', ':', '9', '0', '1'}
	reqs := map[string][]byte{
		"RouteFor":     append([]byte{verbRouteFor}, k[:]...),
		"Insert":       append([]byte{verbInsert}, k[:]...),
		"GC":           append([]byte{verbGC}, k[:]...),
		"AddSwitch":    append([]byte{verbAddSwitch, 10, 0, 0, 5}, agentAddr...),
		"RemoveSwitch": {verbRemoveSwitch, 10, 0, 0, 5},
	}
	for name, req := range reqs {
		for cut := 1; cut < len(req); cut++ {
			resp := answer(req[:cut], nil, svc.exec)
			if resp[0] != agentErr || !strings.Contains(string(resp[1:]), errAgentFrame.Error()) {
				t.Errorf("%s truncated to %d of %d bytes: %q", name, cut, len(req), resp)
			}
		}
		resp := answer(append(append([]byte(nil), req...), 0), nil, svc.exec)
		if resp[0] != agentErr || !strings.Contains(string(resp[1:]), errAgentFrame.Error()) {
			t.Errorf("%s with a trailing byte: %q", name, resp)
		}
	}
	if resp := answer([]byte{verbClusterHealth, 0}, nil, svc.exec); resp[0] != agentErr {
		t.Errorf("ClusterHealth with a body: %q", resp)
	}
	// A route whose hop count the body cannot hold allocates nothing.
	lying := binary.BigEndian.AppendUint32([]byte{0, 1}, 0xffffffff)
	if n := testing.AllocsPerRun(10, func() {
		d := agentDec{b: lying}
		d.route()
	}); n != 0 {
		t.Errorf("a lying hop count cost %v allocations", n)
	}
}

// TestControlWireWrongPort dials each server with the other's client: the
// call fails with "unknown verb" — an error frame, not a hang, a panic or
// a broken stream — and the connection keeps answering.
func TestControlWireWrongPort(t *testing.T) {
	agentAddr, stopAgent, err := ServeAgent(agentTestSwitch(t, 1), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stopAgent() })
	ctlAddr, stopCtl, err := ServeControllerService(&ControllerService{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stopCtl() })

	ctl, err := DialController(agentAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctl.Close() })
	agent, err := DialAgent(ctlAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { agent.Close() })

	for name, call := range map[string]func() error{
		"controller client → agent": func() error { _, err := ctl.Route(kv.KeyFromUint64(1)); return err },
		"agent client → controller": func() error { return agent.SetSession(1, 1) },
	} {
		for i := 0; i < 2; i++ {
			got := make(chan error, 1)
			go func() { got <- call() }()
			select {
			case err := <-got:
				if err == nil || !strings.Contains(err.Error(), "unknown verb") {
					t.Errorf("%s, call %d: err = %v", name, i, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s, call %d: no answer", name, i)
			}
		}
	}
}
