package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"

	"netchain/internal/controller"
	"netchain/internal/health"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/ring"
)

// ControllerService exposes the controller's client-facing API on the
// control wire (agentwire.go, verbs 10–15): route lookup, key insertion
// (§3's agent ↔ controller path), the elastic add-switch/remove-switch
// admin verbs, and — when the autopilot is running — the cluster health
// view.
type ControllerService struct {
	Ctl *controller.Controller
	// Register, when set, connects a new switch's agent before AddSwitch
	// admits it into the ring (the deployment owns the agent map).
	Register func(sw packet.Addr, agentAddr string) error
	// Health, when set, supplies the detector snapshot and repair
	// history behind the ClusterHealth verb (wired by the controller
	// binary when -autopilot is on).
	Health func() HealthReport
	// Unregister, when set, is called after RemoveSwitch drains a switch:
	// the deployment drops its agent, and the health monitor forgets it so
	// the retired box powering off is not "detected" as a failure and
	// repaired.
	Unregister func(sw packet.Addr)
}

// HealthReport is what the ClusterHealth verb renders: the detector's
// snapshot, the autopilot's repair history and the switches it holds
// demoted.
type HealthReport struct {
	Switches []health.SwitchHealth
	Repairs  []controller.RepairEvent
	Demoted  []packet.Addr
}

// String renders the report as netchainctl cluster health prints it: the
// per-switch table, then the repair history.
func (r HealthReport) String() string {
	var b strings.Builder
	b.WriteString(health.Table(r.Switches, r.Demoted))
	if len(r.Repairs) == 0 {
		b.WriteString("repair history: empty\n")
		return b.String()
	}
	b.WriteString("repair history:\n")
	for _, ev := range r.Repairs {
		b.WriteString("  " + ev.String() + "\n")
	}
	return b.String()
}

// ServeControllerService starts the control-wire endpoint for a
// caller-built service — the controller binary wires the autopilot's
// Health hook into the service before serving. stop closes the listener
// and every accepted connection and returns once their goroutines have
// exited.
func ServeControllerService(svc *ControllerService, bind string) (net.Addr, func() error, error) {
	return serveTCP(bind, svc.exec)
}

// exec executes one controller verb: it decodes the whole request before
// acting. AddSwitch and RemoveSwitch block until the live migration
// completes.
func (s *ControllerService) exec(verb byte, d *agentDec, out []byte) ([]byte, error) {
	var k kv.Key
	var sw packet.Addr
	var agentAddr string
	switch verb {
	case verbRouteFor, verbInsert, verbGC:
		k = d.key()
	case verbAddSwitch:
		sw, agentAddr = packet.Addr(d.u32()), d.str()
	case verbRemoveSwitch:
		sw = packet.Addr(d.u32())
	case verbClusterHealth:
	default:
		return out, fmt.Errorf("%w: unknown verb %d", errAgentFrame, verb)
	}
	if err := d.end(); err != nil {
		return out, err
	}
	switch verb {
	case verbRouteFor:
		return appendRoute(out, s.Ctl.Route(k)), nil
	case verbInsert:
		rt, err := s.Ctl.Insert(k)
		return appendRoute(out, rt), err
	case verbGC:
		return out, s.Ctl.GC(k)
	case verbAddSwitch:
		if s.Register != nil && agentAddr != "" {
			if err := s.Register(sw, agentAddr); err != nil {
				return out, err
			}
		}
		return migrate(out, s.Ctl.AddSwitch, sw)
	case verbRemoveSwitch:
		out, err := migrate(out, s.Ctl.RemoveSwitch, sw)
		if err == nil && s.Unregister != nil {
			s.Unregister(sw)
		}
		return out, err
	}
	if s.Health == nil {
		return out, errors.New("autopilot not enabled on this controller")
	}
	return append(out, s.Health().String()...), nil
}

// migrate starts a membership change, blocks until its live migration
// completes, and appends how many virtual groups it moved to out.
func migrate(out []byte, change func(packet.Addr, func()) (ring.Diff, error), sw packet.Addr) ([]byte, error) {
	done := make(chan struct{})
	diff, err := change(sw, func() { close(done) })
	if err != nil {
		return out, err
	}
	<-done
	return binary.BigEndian.AppendUint32(out, uint32(len(diff.Deltas))), nil
}

// ControllerClient is a client's end of one controller-service
// connection; calls from several goroutines serialize on it. Its Route
// method is a Directory.
type ControllerClient struct{ *wireConn }

// DialController connects to a controller service over TCP.
func DialController(addr string) (*ControllerClient, error) {
	c, err := dialWire(addr, "controller")
	if err != nil {
		return nil, err
	}
	return &ControllerClient{c}, nil
}

// Route returns the current route for a key.
func (c *ControllerClient) Route(k kv.Key) (query.Route, error) { return c.route(verbRouteFor, k) }

// Insert allocates a key on its chain and returns the route.
func (c *ControllerClient) Insert(k kv.Key) (query.Route, error) { return c.route(verbInsert, k) }

func (c *ControllerClient) route(verb byte, k kv.Key) (rt query.Route, err error) {
	err = c.call(append(c.begin(verb), k[:]...), func(d *agentDec) { rt = d.route() })
	return rt, err
}

// GC removes a tombstoned key's slots.
func (c *ControllerClient) GC(k kv.Key) error {
	return c.call(append(c.begin(verbGC), k[:]...), nil)
}

// AddSwitch admits a switch, whose agent the controller dials at
// agentAddr, and blocks until the live migration completes. It returns
// how many virtual groups migrated.
func (c *ControllerClient) AddSwitch(sw packet.Addr, agentAddr string) (int, error) {
	if len(agentAddr) > 0xffff {
		return 0, fmt.Errorf("transport: agent address of %d bytes", len(agentAddr))
	}
	b := binary.BigEndian.AppendUint32(c.begin(verbAddSwitch), uint32(sw))
	b = binary.BigEndian.AppendUint16(b, uint16(len(agentAddr)))
	return c.migrated(append(b, agentAddr...))
}

// RemoveSwitch live-drains a switch out of the ring and blocks until its
// state has migrated away. It returns how many virtual groups migrated.
func (c *ControllerClient) RemoveSwitch(sw packet.Addr) (int, error) {
	return c.migrated(binary.BigEndian.AppendUint32(c.begin(verbRemoveSwitch), uint32(sw)))
}

func (c *ControllerClient) migrated(frame []byte) (n int, err error) {
	err = c.call(frame, func(d *agentDec) { n = int(d.u32()) })
	return n, err
}

// ClusterHealth returns the rendered HealthReport: per-switch φ scores,
// quality EWMAs, verdicts and the autopilot's repair history. Errors when
// the autopilot is off.
func (c *ControllerClient) ClusterHealth() (text string, err error) {
	err = c.call(c.begin(verbClusterHealth), func(d *agentDec) { text = string(d.take(len(d.b))) })
	return text, err
}
