// Package localcluster is the live-UDP NetChain deployment on loopback: a
// push-watch relay, switch dataplanes behind their own UDP sockets, a
// wall-clock controller programming each switch through an in-process
// agent (controller.LocalAgent; netchaind and netchain-controller speak
// the framed TCP agent wire between processes), and clients attached
// through a gateway switch. It exists once: the public
// netchain.StartLocalCluster façade and the real-wire chaos harness
// (internal/experiments, -exp realchaos) both boot through it.
package localcluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"netchain/internal/controller"
	"netchain/internal/core"
	"netchain/internal/faultconn"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/relay"
	"netchain/internal/ring"
	"netchain/internal/swsim"
	"netchain/internal/transport"
)

// Config sizes a local real-network cluster.
type Config struct {
	// Switches is the number of switch nodes (≥ Replicas; one extra makes
	// a spare for recovery, like the testbed's S3). Default 4.
	Switches int
	// Replicas is the chain length f+1. Default 3.
	Replicas int
	// VNodesPerSwitch sets virtual-group granularity. Default 8.
	VNodesPerSwitch int
	// Slots bounds keys per switch. Default 4096.
	Slots int
	// ClientWindow caps each client's in-flight queries; async calls block
	// when the pipe is full. 0 leaves admission uncapped (blocking calls
	// keep one query outstanding each, the pre-pipelining behavior).
	ClientWindow int
	// ClientTimeout is the per-attempt retry timer (default 50 ms).
	ClientTimeout time.Duration
	// ClientRetries bounds retransmissions per query (default 5).
	ClientRetries int
	// IngestSockets sets how many SO_REUSEPORT sockets share each switch
	// node's port (the kernel shards client flows across them by 4-tuple
	// hash). 0 = one per schedulable core, capped at 4; ignored on
	// platforms without SO_REUSEPORT.
	IngestSockets int
	// RelayLeaseTTL bounds the relay's unicast watch leases (0 selects
	// relay.DefaultLeaseTTL). Watch subscribers renew at a third of it, so
	// chaos tests shorten it to make a restarted relay — whose lease table
	// starts empty — re-learn its subscribers quickly.
	RelayLeaseTTL time.Duration
	// Faults, when set, threads the wire nemesis through every datagram
	// socket the cluster opens: switch ingest sockets, the relay's ingest
	// and control sockets, client sockets and watch subscriptions. The
	// controller's agents are in-process (controller.LocalAgent, as in the
	// simulator), so no nemesis reaches them: the control channel survives
	// a fail-stopped or partitioned dataplane, and repairs can still
	// program the surviving switches.
	// nil is the production configuration.
	Faults *faultconn.Injector
}

func (c *Config) defaults() {
	if c.Switches == 0 {
		c.Switches = 4
	}
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.VNodesPerSwitch == 0 {
		c.VNodesPerSwitch = 8
	}
	if c.Slots == 0 {
		c.Slots = 4096
	}
}

// Cluster is a real NetChain deployment on loopback: every switch is a
// dataplane goroutine behind its own UDP socket, and the controller
// programs them through in-process agents (controller.LocalAgent), since
// controller and switches share a process; a multi-process deployment
// sends the same verbs over TCP (transport.ServeAgent, DialAgent).
// Close stops every goroutine and closes every descriptor the cluster
// opened, except the sockets of clients from NewClient, which their owners
// close.
type Cluster struct {
	cfg      Config
	book     *transport.AddressBook
	ctl      *controller.Controller
	relaySrv *relay.Server
	nextCl   byte

	// mu guards the mutable topology: AddSwitch/RemoveSwitch run while the
	// controller resolves agents from its own goroutines.
	mu     sync.RWMutex
	nodes  []*transport.SwitchNode
	agents map[packet.Addr]controller.Agent
	stops  []func() error
}

// Start boots a cluster. The first cfg.Replicas switches are ring members;
// the rest are spares available to Recover.
func Start(cfg Config) (*Cluster, error) {
	cfg.defaults()
	if cfg.Switches < cfg.Replicas {
		return nil, fmt.Errorf("netchain: %d switches cannot host %d replicas", cfg.Switches, cfg.Replicas)
	}
	cl := &Cluster{
		cfg:    cfg,
		book:   transport.NewAddressBook(),
		agents: make(map[packet.Addr]controller.Agent),
	}
	// The push-watch relay tier boots first so every switch node can point
	// its event sink at it from birth.
	rs, err := cl.startRelay("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cl.relaySrv = rs
	// The stop hook resolves the relay indirectly: RestartRelay swaps in a
	// fresh incarnation, and cluster shutdown must close that one.
	cl.stops = append(cl.stops, func() error {
		cl.mu.RLock()
		cur := cl.relaySrv
		cl.mu.RUnlock()
		return cur.Close()
	})
	var members []packet.Addr
	for i := 0; i < cfg.Switches; i++ {
		addr, err := cl.bootSwitch()
		if err != nil {
			cl.Close()
			return nil, err
		}
		if i < cfg.Replicas {
			members = append(members, addr)
		}
	}
	r, err := ring.New(ring.Config{
		VNodesPerSwitch: cfg.VNodesPerSwitch, Replicas: cfg.Replicas, Seed: 0x6e63,
	}, members)
	if err != nil {
		cl.Close()
		return nil, err
	}
	ctlCfg := controller.DefaultConfig()
	ctlCfg.RuleDelay = time.Millisecond
	ctlCfg.SyncPerItem = 0
	ctl, err := controller.New(ctlCfg, r, controller.WallClock{},
		func(a packet.Addr) (controller.Agent, bool) {
			cl.mu.RLock()
			defer cl.mu.RUnlock()
			ag, ok := cl.agents[a]
			return ag, ok
		},
		func(failed packet.Addr) []packet.Addr {
			cl.mu.RLock()
			defer cl.mu.RUnlock()
			var out []packet.Addr
			for a := range cl.agents {
				if a != failed {
					out = append(out, a)
				}
			}
			return out
		})
	if err != nil {
		cl.Close()
		return nil, err
	}
	cl.ctl = ctl
	return cl, nil
}

// startRelay boots a relay incarnation on bind and registers its sockets
// with the nemesis, if any. Unicast-lease fan-out: loopback has no
// multicast routing.
func (c *Cluster) startRelay(bind string) (*relay.Server, error) {
	addr := packet.AddrFrom4(10, 2, 0, 1)
	rcfg := relay.Config{Bind: bind, Addr: addr, LeaseTTL: c.cfg.RelayLeaseTTL}
	if c.cfg.Faults != nil {
		rcfg.Faults = c.cfg.Faults.Pipe(addr)
	}
	rs, err := relay.Start(rcfg)
	if err != nil {
		return nil, err
	}
	if c.cfg.Faults != nil {
		c.cfg.Faults.RegisterEndpoint(addr, rs.IngestEndpoint())
		c.cfg.Faults.RegisterEndpoint(addr, rs.ControlEndpoint())
	}
	return rs, nil
}

// bootSwitch starts one switch dataplane node plus its control agent and
// registers both; the new switch's index is len-1 after the call.
func (c *Cluster) bootSwitch() (packet.Addr, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	addr := packet.AddrFrom4(10, 0, 0, byte(len(c.nodes)+1))
	sw, err := core.NewSwitch(addr, swsim.Config{
		Stages: 8, SlotBytes: 16, SlotsPerStage: c.cfg.Slots, PPS: 1e9,
	})
	if err != nil {
		return 0, err
	}
	nodeOpts := []transport.NodeOption{transport.WithIngestSockets(c.cfg.IngestSockets)}
	if c.cfg.Faults != nil {
		nodeOpts = append(nodeOpts, transport.WithFaultPipe(c.cfg.Faults.Pipe(addr)))
	}
	node, err := transport.NewSwitchNode(sw, c.book, "127.0.0.1:0", nodeOpts...)
	if err != nil {
		return 0, err
	}
	node.SetEventSink(c.relaySrv.Addr(), c.relaySrv.IngestEndpoint())
	if c.cfg.Faults != nil {
		c.cfg.Faults.RegisterEndpoint(addr, node.Endpoint())
	}
	c.nodes = append(c.nodes, node)
	c.stops = append(c.stops, node.Close)
	c.agents[addr] = controller.LocalAgent{Switch: sw} // no nemesis: see Config.Faults
	return addr, nil
}

// Close shuts everything down.
func (c *Cluster) Close() error {
	c.mu.Lock()
	stops := c.stops
	c.stops = nil
	c.mu.Unlock()
	var first error
	for i := len(stops) - 1; i >= 0; i-- {
		if err := stops[i](); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// node returns switch i's dataplane node, or the error every verb that
// takes a switch index returns for one the cluster never booted.
func (c *Cluster) node(i int) (*transport.SwitchNode, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if i < 0 || i >= len(c.nodes) {
		return nil, fmt.Errorf("netchain: switch %d out of range", i)
	}
	return c.nodes[i], nil
}

// SwitchAddr returns the virtual address of switch i.
func (c *Cluster) SwitchAddr(i int) (packet.Addr, error) {
	node, err := c.node(i)
	if err != nil {
		return 0, err
	}
	return node.Switch().Addr(), nil
}

// Switches returns the number of switch nodes booted so far (including
// drained ones, whose indexes stay valid but dead).
func (c *Cluster) Switches() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.nodes)
}

// Insert allocates a key on its chain; required before writes (§4.1).
func (c *Cluster) Insert(k kv.Key) error {
	_, err := c.ctl.Insert(k)
	return err
}

// GC reclaims the slots of a key a client has tombstoned.
func (c *Cluster) GC(k kv.Key) error { return c.ctl.GC(k) }

// Controller exposes the control plane for advanced use.
func (c *Cluster) Controller() *controller.Controller { return c.ctl }

// RelayStats snapshots the push-watch relay tier's counters: events
// ingested/deduplicated/sequenced, fan-out datagrams, live leases.
func (c *Cluster) RelayStats() relay.Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.relaySrv.Stats()
}

// RestartRelay kills the relay tier and boots a fresh incarnation on the
// same endpoints: new sequencer epoch, empty lease table, per-group
// sequences back to 1 — the crash-restart failure push-watch subscribers
// must survive. Live subscriptions keep renewing against the same control
// endpoint, so the new incarnation re-learns them within one renew
// cadence; the epoch change makes every subscriber treat the boundary as
// a gap and resync (watch.Sub).
func (c *Cluster) RestartRelay() error {
	c.mu.Lock()
	old := c.relaySrv
	c.mu.Unlock()
	bind := old.IngestEndpoint().String()
	if err := old.Close(); err != nil {
		return err
	}
	rs, err := c.startRelay(bind)
	if err != nil {
		return fmt.Errorf("netchain: relay restart: %w", err)
	}
	c.mu.Lock()
	c.relaySrv = rs
	nodes := append([]*transport.SwitchNode(nil), c.nodes...)
	c.mu.Unlock()
	for _, n := range nodes {
		n.SetEventSink(rs.Addr(), rs.IngestEndpoint())
	}
	return nil
}

// Subscribe opens a push-watch subscription for groups at the current
// relay incarnation on behalf of the host at addr, whose fault pipe it
// runs through when the cluster has a nemesis. The lease renews at a
// third of RelayLeaseTTL when one is set.
func (c *Cluster) Subscribe(addr packet.Addr, groups []uint16, deliver func(query.Event)) (*relay.Conn, error) {
	c.mu.RLock()
	rs := c.relaySrv
	c.mu.RUnlock()
	var opts []relay.SubOption
	if ttl := c.cfg.RelayLeaseTTL; ttl > 0 {
		opts = append(opts, relay.WithRenewEvery(ttl/3))
	}
	if c.cfg.Faults != nil {
		opts = append(opts, relay.WithSubFaults(c.cfg.Faults.Pipe(addr)))
	}
	return relay.Subscribe(rs.Mode(), rs.ControlEndpoint(), groups, deliver, opts...)
}

// StartHeartbeats points every switch's heartbeat beacon at the health
// monitor with virtual address mon: the shared address book learns that
// mon lives at ep (probe replies route through it too), and every node
// beacons there each period.
func (c *Cluster) StartHeartbeats(mon packet.Addr, ep *net.UDPAddr, every time.Duration) error {
	c.book.Set(mon, ep)
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, n := range c.nodes {
		if err := n.StartHeartbeats(mon, every); err != nil {
			return err
		}
	}
	return nil
}

// await blocks until a controller operation calls back on done, or gives
// up after d.
func await(done <-chan struct{}, d time.Duration, what string) error {
	select {
	case <-done:
		return nil
	case <-time.After(d):
		return fmt.Errorf("netchain: %s timed out", what)
	}
}

// FailSwitch kills switch i (fail-stop) and runs fast failover
// (Algorithm 2). Returns when the neighbor rules are installed.
func (c *Cluster) FailSwitch(i int) error {
	node, err := c.node(i)
	if err != nil {
		return err
	}
	if err := node.Close(); err != nil {
		return err
	}
	done := make(chan struct{})
	if err := c.ctl.HandleFailure(node.Switch().Addr(), func() { close(done) }); err != nil {
		return err
	}
	return await(done, 10*time.Second, "failover")
}

// Recover restores the failed switch i's chains using spare switch j
// (Algorithm 3: pre-sync + two-phase atomic switching, per virtual group).
func (c *Cluster) Recover(i, spare int) error {
	failed, err := c.node(i)
	if err != nil {
		return err
	}
	sp, err := c.node(spare)
	if err != nil {
		return err
	}
	done := make(chan struct{})
	if err := c.ctl.Recover(failed.Switch().Addr(),
		[]packet.Addr{sp.Switch().Addr()}, func() { close(done) }); err != nil {
		return err
	}
	return await(done, 60*time.Second, "recovery")
}

// AddSwitch boots a brand-new switch node (dataplane socket + control
// agent) and live-migrates the cluster onto a ring layout that includes
// it: per-group state copy, session bump, atomic route flip — clients keep
// reading throughout. It returns the new switch's index.
func (c *Cluster) AddSwitch() (int, error) {
	addr, err := c.bootSwitch()
	if err != nil {
		return 0, err
	}
	done := make(chan struct{})
	if _, err := c.ctl.AddSwitch(addr, func() { close(done) }); err != nil {
		return 0, err
	}
	if err := await(done, 60*time.Second, "scale-out"); err != nil {
		return 0, err
	}
	return c.Switches() - 1, nil
}

// RemoveSwitch live-drains ring member i: its virtual groups retire, their
// keys migrate to the surviving switches, and once the drain completes the
// now-empty switch is shut down. Its index stays valid but dead.
func (c *Cluster) RemoveSwitch(i int) error {
	node, err := c.node(i)
	if err != nil {
		return err
	}
	addr := node.Switch().Addr()
	done := make(chan struct{})
	if _, err := c.ctl.RemoveSwitch(addr, func() { close(done) }); err != nil {
		return err
	}
	if err := await(done, 60*time.Second, "scale-in"); err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.agents, addr)
	c.mu.Unlock()
	return node.Close()
}

// NewClient attaches a client socket through the given switch (its "ToR")
// whose calls route through the controller. Client addresses are
// 10.1.0.1–10.1.0.255 in attach order and never reused, so a cluster hands
// out at most 255 of them. A gateway FailSwitch or RemoveSwitch took down
// is refused: every query through it would be lost. The caller closes the
// returned Ops.Client.
func (c *Cluster) NewClient(gateway int) (*transport.Ops, error) {
	gw, err := c.node(gateway)
	if err != nil {
		return nil, err
	}
	if gw.Closed() {
		return nil, fmt.Errorf("netchain: switch %d (%v) is down", gateway, gw.Switch().Addr())
	}
	c.mu.Lock()
	if c.nextCl == 255 {
		c.mu.Unlock()
		return nil, fmt.Errorf("netchain: all 255 client addresses are in use")
	}
	c.nextCl++
	claddr := packet.AddrFrom4(10, 1, 0, c.nextCl)
	c.mu.Unlock()
	ccfg := transport.ClientConfig{
		Addr:    claddr,
		Gateway: gw.Switch().Addr(),
		Bind:    "127.0.0.1:0",
		Window:  c.cfg.ClientWindow,
		Timeout: c.cfg.ClientTimeout,
		Retries: c.cfg.ClientRetries,
	}
	if c.cfg.Faults != nil {
		ccfg.Faults = c.cfg.Faults.Pipe(claddr)
	}
	tc, err := transport.NewClient(c.book, ccfg)
	if err != nil {
		return nil, err
	}
	if c.cfg.Faults != nil {
		c.cfg.Faults.RegisterEndpoint(claddr, tc.LocalEndpoint())
	}
	return &transport.Ops{Client: tc, Dir: func(k kv.Key) (query.Route, error) {
		// An empty chain surfaces as kv.ErrUnavailable when the frame is built.
		return c.ctl.Route(k), nil
	}}, nil
}
