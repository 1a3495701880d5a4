package transport

import (
	"fmt"
	"net"
	"net/rpc"

	"netchain/internal/controller"
	"netchain/internal/health"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
)

// None is an empty RPC argument or reply.
type None struct{}

// ControllerService exposes the controller's client-facing API over
// net/rpc: route lookup, key insertion (§3's agent ↔ controller path),
// the elastic add-switch/remove-switch admin verbs, and — when the
// autopilot is running — the cluster health view.
type ControllerService struct {
	Ctl *controller.Controller
	// Register, when set, connects a new switch's agent before AddSwitch
	// admits it into the ring (the deployment owns the agent map).
	Register func(sw packet.Addr, agentAddr string) error
	// Health, when set, supplies the detector snapshot and repair
	// history behind the ClusterHealth verb (wired by the controller
	// binary when -autopilot is on).
	Health func() HealthReport
	// Unregister, when set, is called after RemoveSwitch drains a switch
	// — the health monitor forgets it so the retired box powering off is
	// not "detected" as a failure and repaired.
	Unregister func(sw packet.Addr)
}

// RouteReply carries a route.
type RouteReply struct {
	Group uint16
	Hops  []packet.Addr
}

// RouteFor returns the current route for a key.
func (s *ControllerService) RouteFor(k kv.Key, out *RouteReply) error {
	rt := s.Ctl.Route(k)
	out.Group, out.Hops = rt.Group, rt.Hops
	return nil
}

// Insert allocates a key on its chain and returns the route.
func (s *ControllerService) Insert(k kv.Key, out *RouteReply) error {
	rt, err := s.Ctl.Insert(k)
	if err != nil {
		return err
	}
	out.Group, out.Hops = rt.Group, rt.Hops
	return nil
}

// GC removes a tombstoned key's slots.
func (s *ControllerService) GC(k kv.Key, _ *None) error { return s.Ctl.GC(k) }

// ResizeArgs names the switch an elastic membership change targets.
// AgentAddr (add only) is the new switch agent's RPC endpoint.
type ResizeArgs struct {
	Switch    packet.Addr
	AgentAddr string
}

// ResizeReply reports what the migration touched.
type ResizeReply struct {
	GroupsMigrated int
}

// AddSwitch admits a switch into the ring and blocks until the live
// migration onto the new layout completes.
func (s *ControllerService) AddSwitch(args ResizeArgs, out *ResizeReply) error {
	if s.Register != nil && args.AgentAddr != "" {
		if err := s.Register(args.Switch, args.AgentAddr); err != nil {
			return err
		}
	}
	done := make(chan struct{})
	diff, err := s.Ctl.AddSwitch(args.Switch, func() { close(done) })
	if err != nil {
		return err
	}
	<-done
	out.GroupsMigrated = len(diff.Deltas)
	return nil
}

// HealthReport is the ClusterHealth reply: the detector's snapshot, the
// autopilot's repair history and the switches it holds demoted.
type HealthReport struct {
	Switches []health.SwitchHealth
	Repairs  []controller.RepairEvent
	Demoted  []packet.Addr
}

// ClusterHealth returns per-switch φ scores, quality EWMAs, verdicts and
// the autopilot's repair history. Errors when the autopilot is off.
func (s *ControllerService) ClusterHealth(_ None, out *HealthReport) error {
	if s.Health == nil {
		return fmt.Errorf("transport: autopilot not enabled on this controller")
	}
	*out = s.Health()
	return nil
}

// RemoveSwitch live-drains a switch out of the ring and blocks until its
// state has migrated away; the switch can be shut down afterwards.
func (s *ControllerService) RemoveSwitch(args ResizeArgs, out *ResizeReply) error {
	done := make(chan struct{})
	diff, err := s.Ctl.RemoveSwitch(args.Switch, func() { close(done) })
	if err != nil {
		return err
	}
	<-done
	if s.Unregister != nil {
		s.Unregister(args.Switch)
	}
	out.GroupsMigrated = len(diff.Deltas)
	return nil
}

// ServeControllerService starts the RPC endpoint for a caller-built
// service — the controller binary wires the autopilot's Health hook into
// the service before serving. stop closes the listener and every accepted
// connection and returns once their goroutines have exited.
func ServeControllerService(svc *ControllerService, bind string) (net.Addr, func() error, error) {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Controller", svc); err != nil {
		return nil, nil, err
	}
	return serveTCP(bind, func(conn net.Conn) { srv.ServeConn(conn) })
}

// DialDirectory returns a Directory backed by the controller RPC service.
func DialDirectory(addr string) (Directory, func() error, error) {
	c, err := rpc.Dial("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: dial controller %s: %w", addr, err)
	}
	dir := func(k kv.Key) (query.Route, error) {
		var rep RouteReply
		if err := c.Call("Controller.RouteFor", k, &rep); err != nil {
			return query.Route{}, err
		}
		return query.Route{Group: rep.Group, Hops: rep.Hops}, nil
	}
	return dir, c.Close, nil
}
