// Package localcluster is the live-UDP NetChain deployment on loopback: a
// push-watch relay, switch dataplanes behind their own UDP sockets, a
// wall-clock controller programming each switch through an in-process
// agent (controller.LocalAgent; netchaind and netchain-controller speak
// the framed TCP agent wire between processes), and clients attached
// through a gateway switch. It exists once: the public
// netchain.StartLocalCluster façade, the real-wire chaos harness and the
// trace experiment (internal/experiments, -exp realchaos and -exp trace)
// all boot through it.
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
	registry controller.Agents // each switch's in-process agent
	relaySrv *relay.Server
	nextCl   byte

	// mu guards the mutable topology: AddSwitch, RemoveSwitch and
	// RestartRelay change it while other verbs read it.
	mu    sync.RWMutex
	nodes []*transport.SwitchNode
	stops []func() error
	// watched is set by the first Subscribe: from then on every node,
	// booted before or after, publishes its commits to the relay; until
	// then no tail sends an event.
	watched bool
}

// Start boots a cluster. The first cfg.Replicas switches are ring members;
// the rest are spares available to Recover.
func Start(cfg Config) (*Cluster, error) {
	cfg.defaults()
	cl := &Cluster{cfg: cfg, book: transport.NewAddressBook()}
	// The push-watch relay tier boots first: it serves the first Subscribe,
	// whichever switches exist by then.
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
	cl.ctl, err = controller.NewLive(controller.Config{RuleDelay: time.Millisecond},
		cfg.VNodesPerSwitch, cfg.Replicas, members, &cl.registry)
	if err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

// startRelay boots a relay incarnation on bind, its sockets behind the
// nemesis, if any. Unicast-lease fan-out: loopback has no multicast
// routing.
func (c *Cluster) startRelay(bind string) (*relay.Server, error) {
	addr := packet.AddrFrom4(10, 2, 0, 1)
	rcfg := relay.Config{Bind: bind, Addr: addr, LeaseTTL: c.cfg.RelayLeaseTTL}
	if c.cfg.Faults != nil {
		rcfg.Faults = c.cfg.Faults.Pipe(addr)
	}
	return relay.Start(rcfg)
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
	c.nodes = append(c.nodes, node)
	c.publishLocked()
	c.stops = append(c.stops, node.Close)
	c.registry.Set(addr, controller.LocalAgent{Switch: sw}) // no nemesis: see Config.Faults
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

// Ledgers audits every switch's node law on core.Stats: each frame a
// node's host step took in left it or is one drop. It holds once Close
// has stopped every ingest goroutine; a harness calls it after Close.
func (c *Cluster) Ledgers() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, n := range c.nodes {
		st := n.Switch().Stats()
		if out := st.Forwarded + st.WritesStale + st.RuleDrops + st.RouteDrops + st.LocalDrops; out != st.FramesIn {
			return fmt.Errorf("netchain: switch %v took in %d frames but forwarded or dropped %d",
				n.Switch().Addr(), st.FramesIn, out)
		}
	}
	return nil
}

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

// AddressBook exposes the book mapping the cluster's virtual addresses to
// its UDP endpoints, for a caller that attaches a client configured beyond
// what NewClient sets (a traced one, say).
func (c *Cluster) AddressBook() *transport.AddressBook { return c.book }

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
	defer c.mu.Unlock()
	c.relaySrv = rs
	c.publishLocked()
	return nil
}

// publishLocked points every node's event sink at the current relay once
// the cluster has a watch plane (a Subscribe ran); before that, tails
// publish nothing. Caller holds c.mu.
func (c *Cluster) publishLocked() {
	if !c.watched {
		return
	}
	for _, n := range c.nodes {
		n.SetEventSink(c.relaySrv.Addr(), c.relaySrv.IngestEndpoint())
	}
}

// Subscribe opens a push-watch subscription for groups at the current
// relay incarnation on behalf of the host at addr, whose fault pipe it
// runs through when the cluster has a nemesis. The first one gives the
// cluster its watch plane: every tail starts publishing before the
// subscription opens. A write already inside a tail's host step when the
// sink is set may commit unpublished; if the subscription's initial state
// read ran before that commit, anti-entropy delivers it. The lease renews at a third of RelayLeaseTTL when
// one is set.
func (c *Cluster) Subscribe(addr packet.Addr, groups []uint16, deliver func(query.Event)) (*relay.Conn, error) {
	c.mu.Lock()
	if !c.watched {
		c.watched = true
		c.publishLocked()
	}
	rs := c.relaySrv
	c.mu.Unlock()
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
	c.registry.Delete(addr)
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
	return &transport.Ops{Client: tc, Dir: func(k kv.Key) (query.Route, error) {
		// An empty chain surfaces as kv.ErrUnavailable when the frame is built.
		return c.ctl.Route(k), nil
	}}, nil
}
