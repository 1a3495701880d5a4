package transport

import (
	"net/rpc"
	"reflect"
	"testing"
	"time"

	"netchain/internal/controller"
	"netchain/internal/health"
	"netchain/internal/packet"
)

// TestClusterHealthRPC serves ClusterHealth over net/rpc and decodes the
// reply: the detector's SwitchHealth rows, the autopilot's RepairEvents
// and the demoted list must cross the wire unchanged, and a controller
// without the autopilot must say so.
func TestClusterHealthRPC(t *testing.T) {
	s0, s1 := packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(10, 0, 0, 2)
	det := health.NewDetector(health.Config{HeartbeatEvery: time.Millisecond})
	det.Heartbeat(s0, time.Millisecond, health.Payload{Processed: 10, RcvBuf: 4 << 20, DecodeErrs: 2})
	det.ProbeReply(s0, 2*time.Millisecond, 40*time.Microsecond)
	det.ProbeLost(s1, 3*time.Millisecond)
	want := HealthReport{
		Switches: det.Snapshot(4 * time.Millisecond),
		Repairs: []controller.RepairEvent{
			{At: 3 * time.Millisecond, Switch: s1, Action: controller.ActionFailover},
			{At: 5 * time.Millisecond, Switch: s0, Action: controller.ActionDemote, Detail: "gray"},
		},
		Demoted: []packet.Addr{s0},
	}

	svc := &ControllerService{}
	addr, stop, err := ServeControllerService(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	c, err := rpc.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var rep HealthReport
	if err := c.Call("Controller.ClusterHealth", None{}, &rep); err == nil {
		t.Fatal("ClusterHealth answered without an autopilot")
	}
	svc.Health = func() HealthReport { return want }
	if err := c.Call("Controller.ClusterHealth", None{}, &rep); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, want) {
		t.Fatalf("reply decoded as\n%+v\nwant\n%+v", rep, want)
	}
}

// TestControllerServiceStopClosesConns: stop must end service on the
// connections it already accepted, not just on the listener — a client
// that dialled before stop gets an error, not an answer, after it.
func TestControllerServiceStopClosesConns(t *testing.T) {
	svc := &ControllerService{Health: func() HealthReport { return HealthReport{} }}
	addr, stop, err := ServeControllerService(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := rpc.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var rep HealthReport
	if err := c.Call("Controller.ClusterHealth", None{}, &rep); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := c.Call("Controller.ClusterHealth", None{}, &rep); err == nil {
		t.Fatal("a connection accepted before stop still answered after it")
	}
}
