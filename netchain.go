// Package netchain is a software reproduction of NetChain (NSDI 2018):
// scale-free sub-RTT coordination — a strongly-consistent, fault-tolerant
// key-value store that lives in the network dataplane, replicated with a
// chain-replication variant (Vertical Paxos steady state) and repaired by
// a controller (fast failover + two-phase failure recovery).
//
// Two substrates run the same protocol code:
//
//   - a real deployment: switch dataplanes behind UDP sockets, a
//     controller driving per-switch agents over a framed binary TCP
//     channel (one batch verb per round trip), clients with timeout-based
//     retries — see StartLocalCluster;
//   - a deterministic discrete-event simulation of the paper's testbed
//     (four switches, four servers) used by the evaluation harness — see
//     NewSimCluster and the bench suite, which regenerates every table
//     and figure of the paper (EXPERIMENTS.md).
package netchain

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

// Key is a fixed 16-byte key (§7).
type Key = kv.Key

// Value is a bounded value (≤128 B at line rate in the paper's prototype).
type Value = kv.Value

// Version is the (session, sequence) write-ordering pair (§4.3, §5.2).
type Version = kv.Version

// Sentinel errors returned by clients.
var (
	ErrNotFound    = kv.ErrNotFound
	ErrCASFail     = kv.ErrCASFail
	ErrTimeout     = kv.ErrTimeout
	ErrUnavailable = kv.ErrUnavailable
)

// KeyFromString builds a key from text (truncated/padded to 16 bytes).
func KeyFromString(s string) Key { return kv.KeyFromString(s) }

// KeyFromUint64 builds a key from an integer (synthetic workloads).
func KeyFromUint64(v uint64) Key { return kv.KeyFromUint64(v) }

// ClusterConfig sizes a local real-network cluster.
type ClusterConfig struct {
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
	// IngestWorkers sizes each switch node's dataplane worker pool
	// (frames shard onto workers by key hash, preserving per-key order).
	// 0 = one worker per schedulable core, capped at 8.
	IngestWorkers int
	// IngestSockets sets how many SO_REUSEPORT sockets share each switch
	// node's port (the kernel shards client flows across them by 4-tuple
	// hash). 0 = one per schedulable core, capped at 4; ignored on
	// platforms without SO_REUSEPORT.
	IngestSockets int
	// RecvBatch sets the datagrams one ingest syscall may drain per socket
	// (the receive-ring depth). 0 = 32.
	RecvBatch int
	// RelayLeaseTTL bounds the relay's unicast watch leases (0 selects
	// relay.DefaultLeaseTTL). Watch subscribers renew at a third of it, so
	// chaos tests shorten it to make a restarted relay — whose lease table
	// starts empty — re-learn its subscribers quickly.
	RelayLeaseTTL time.Duration
	// Faults, when set, threads the wire nemesis through every socket the
	// cluster opens: switch ingest workers, the relay's ingest and control
	// sockets, client sockets, watch subscriptions, and the controller's
	// agent streams. nil is the production configuration.
	Faults *faultconn.Injector
}

func (c *ClusterConfig) defaults() {
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
// dataplane goroutine behind its own UDP socket, and the controller drives
// them through wire agents (transport.ServeAgent / transport.WireAgent over
// loopback TCP) exactly as a multi-process deployment would. Close stops
// every goroutine and closes every descriptor the cluster opened.
type Cluster struct {
	cfg      ClusterConfig
	book     *transport.AddressBook
	ctl      *controller.Controller
	ringV    *ring.Ring
	relaySrv *relay.Server
	nextCl   byte

	// mu guards the mutable topology: AddSwitch/RemoveSwitch run while the
	// controller resolves agents from its own goroutines.
	mu     sync.RWMutex
	nodes  []*transport.SwitchNode
	agents map[packet.Addr]*transport.WireAgent
	stops  []func() error
}

// StartLocalCluster boots a cluster. The first cfg.Replicas switches are
// ring members; the rest are spares available to Recover.
func StartLocalCluster(cfg ClusterConfig) (*Cluster, error) {
	cfg.defaults()
	if cfg.Switches < cfg.Replicas {
		return nil, fmt.Errorf("netchain: %d switches cannot host %d replicas", cfg.Switches, cfg.Replicas)
	}
	cl := &Cluster{
		cfg:    cfg,
		book:   transport.NewAddressBook(),
		agents: make(map[packet.Addr]*transport.WireAgent),
	}
	// The push-watch relay tier boots first so every switch node can point
	// its event sink at it from birth. Unicast-lease fan-out: loopback has
	// no multicast routing.
	relayAddr := packet.AddrFrom4(10, 2, 0, 1)
	rcfg := relay.Config{Addr: relayAddr, LeaseTTL: cfg.RelayLeaseTTL}
	if cfg.Faults != nil {
		rcfg.Faults = cfg.Faults.Pipe(relayAddr)
	}
	rs, err := relay.Start(rcfg)
	if err != nil {
		return nil, err
	}
	cl.relaySrv = rs
	if cfg.Faults != nil {
		cfg.Faults.RegisterEndpoint(relayAddr, rs.IngestEndpoint())
		cfg.Faults.RegisterEndpoint(relayAddr, rs.ControlEndpoint())
	}
	// The stop hook resolves the relay indirectly: RestartRelay swaps in a
	// fresh incarnation, and cluster shutdown must close that one.
	cl.stops = append(cl.stops, func() error {
		cl.mu.RLock()
		cur := cl.relaySrv
		cl.mu.RUnlock()
		if cur != nil {
			return cur.Close()
		}
		return nil
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
	cl.ringV = r
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
	nodeOpts := []transport.NodeOption{
		transport.WithIngestWorkers(c.cfg.IngestWorkers),
		transport.WithIngestSockets(c.cfg.IngestSockets),
		transport.WithRecvBatch(c.cfg.RecvBatch),
	}
	if c.cfg.Faults != nil {
		nodeOpts = append(nodeOpts, transport.WithFaultPipe(c.cfg.Faults.Pipe(addr)))
	}
	node, err := transport.NewSwitchNode(sw, c.book, "127.0.0.1:0", nodeOpts...)
	if err != nil {
		return 0, err
	}
	if c.relaySrv != nil {
		node.SetEventSink(c.relaySrv.Addr(), c.relaySrv.IngestEndpoint())
	}
	if c.cfg.Faults != nil {
		c.cfg.Faults.RegisterEndpoint(addr, node.Endpoint())
	}
	c.nodes = append(c.nodes, node)
	c.stops = append(c.stops, node.Close)

	agentAddr, stop, err := transport.ServeAgent(sw, "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	c.stops = append(c.stops, stop)
	var wrap func(net.Conn) net.Conn
	if c.cfg.Faults != nil {
		wrap = c.cfg.Faults.WrapStream(addr)
	}
	agent, err := transport.DialAgentWrapped(agentAddr.String(), wrap)
	if err != nil {
		return 0, err
	}
	// Stops run in reverse: the controller's end hangs up first, so the
	// agent's stop finds its connection already finished.
	c.stops = append(c.stops, agent.Close)
	c.agents[addr] = agent
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

// SwitchAddr returns the virtual address of switch i.
func (c *Cluster) SwitchAddr(i int) packet.Addr {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nodes[i].Switch().Addr()
}

// Switches returns the number of switch nodes booted so far (including
// drained ones, whose indexes stay valid but dead).
func (c *Cluster) Switches() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.nodes)
}

// Insert allocates a key on its chain; required before writes (§4.1).
func (c *Cluster) Insert(k Key) error {
	_, err := c.ctl.Insert(k)
	return err
}

// Delete tombstones must be issued by a client; GC reclaims the slots.
func (c *Cluster) GC(k Key) error { return c.ctl.GC(k) }

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
	if old == nil {
		return fmt.Errorf("netchain: cluster has no relay tier")
	}
	bind := old.IngestEndpoint().String()
	relayAddr := old.Addr()
	if err := old.Close(); err != nil {
		return err
	}
	rcfg := relay.Config{Bind: bind, Addr: relayAddr, LeaseTTL: c.cfg.RelayLeaseTTL}
	if c.cfg.Faults != nil {
		rcfg.Faults = c.cfg.Faults.Pipe(relayAddr)
	}
	rs, err := relay.Start(rcfg)
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
	if c.cfg.Faults != nil {
		c.cfg.Faults.RegisterEndpoint(relayAddr, rs.IngestEndpoint())
		c.cfg.Faults.RegisterEndpoint(relayAddr, rs.ControlEndpoint())
	}
	return nil
}

// FailSwitch kills switch i (fail-stop) and runs fast failover
// (Algorithm 2). Returns when the neighbor rules are installed.
func (c *Cluster) FailSwitch(i int) error {
	addr := c.SwitchAddr(i)
	c.mu.RLock()
	node := c.nodes[i]
	c.mu.RUnlock()
	if err := node.Close(); err != nil {
		return err
	}
	done := make(chan struct{})
	if err := c.ctl.HandleFailure(addr, func() { close(done) }); err != nil {
		return err
	}
	select {
	case <-done:
		return nil
	case <-time.After(10 * time.Second):
		return fmt.Errorf("netchain: failover timed out")
	}
}

// Recover restores the failed switch i's chains using spare switch j
// (Algorithm 3: pre-sync + two-phase atomic switching, per virtual group).
func (c *Cluster) Recover(i, spare int) error {
	done := make(chan struct{})
	if err := c.ctl.Recover(c.SwitchAddr(i),
		[]packet.Addr{c.SwitchAddr(spare)}, func() { close(done) }); err != nil {
		return err
	}
	select {
	case <-done:
		return nil
	case <-time.After(60 * time.Second):
		return fmt.Errorf("netchain: recovery timed out")
	}
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
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		return 0, fmt.Errorf("netchain: scale-out timed out")
	}
	return c.Switches() - 1, nil
}

// RemoveSwitch live-drains ring member i: its virtual groups retire, their
// keys migrate to the surviving switches, and once the drain completes the
// now-empty switch is shut down. Its index stays valid but dead.
func (c *Cluster) RemoveSwitch(i int) error {
	addr := c.SwitchAddr(i)
	done := make(chan struct{})
	if _, err := c.ctl.RemoveSwitch(addr, func() { close(done) }); err != nil {
		return err
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		return fmt.Errorf("netchain: scale-in timed out")
	}
	c.mu.Lock()
	node := c.nodes[i]
	delete(c.agents, addr)
	c.mu.Unlock()
	return node.Close()
}

// Client is a blocking NetChain client: the agent of §3 translating API
// calls to in-network queries with retries.
type Client struct {
	ops     *transport.Ops
	client  *transport.Client
	cluster *Cluster
}

// NewClient attaches a client through the given switch (its "ToR"). Client
// addresses are 10.1.0.1–10.1.0.255 and never reused, so a cluster hands
// out at most 255 of them.
func (c *Cluster) NewClient(gateway int) (*Client, error) {
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
		Gateway: c.SwitchAddr(gateway),
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
	ops := &transport.Ops{Client: tc, Dir: func(k kv.Key) (query.Route, error) {
		rt := c.ctl.Route(k)
		return query.Route{Group: rt.Group, Hops: rt.Hops}, nil
	}}
	return &Client{ops: ops, client: tc, cluster: c}, nil
}

// Close releases the client socket.
func (cl *Client) Close() error { return cl.client.Close() }

// Read returns the value and version of k.
func (cl *Client) Read(k Key) (Value, Version, error) { return cl.ops.Read(k) }

// Write stores v under k and returns the committed version.
func (cl *Client) Write(k Key, v Value) (Version, error) { return cl.ops.Write(k, v) }

// Delete tombstones k.
func (cl *Client) Delete(k Key) error { return cl.ops.Delete(k) }

// CAS swaps k's value iff its owner field equals expect (§8.5).
func (cl *Client) CAS(k Key, expect uint64, newValue Value) (bool, Value, error) {
	return cl.ops.CAS(k, expect, newValue)
}

// ReadAsync issues a pipelined read: it returns once the query is on the
// wire (blocking only while the client's in-flight window is full) and
// invokes done from the receive goroutine, which must not block. Use
// ClusterConfig.ClientWindow to size the pipe.
func (cl *Client) ReadAsync(k Key, done func(Value, Version, error)) {
	cl.ops.ReadAsync(k, done)
}

// WriteAsync issues a pipelined write; see ReadAsync for the contract.
func (cl *Client) WriteAsync(k Key, v Value, done func(Version, error)) {
	cl.ops.WriteAsync(k, v, done)
}

// CASAsync issues a pipelined compare-and-swap; see CAS and ReadAsync.
func (cl *Client) CASAsync(k Key, expect uint64, newValue Value, done func(bool, Value, error)) {
	cl.ops.CASAsync(k, expect, newValue, done)
}

// TransportStats exposes the client's transport counters (sent datagrams,
// retries, timeouts, late/duplicate replies).
func (cl *Client) TransportStats() transport.ClientStats { return cl.client.Stats() }

// Acquire takes the exclusive lock k for owner.
func (cl *Client) Acquire(k Key, owner uint64) (bool, error) { return cl.ops.Acquire(k, owner) }

// Release frees the lock k held by owner.
func (cl *Client) Release(k Key, owner uint64) (bool, error) { return cl.ops.Release(k, owner) }

// LockValue builds a lock record: owner id plus payload.
func LockValue(owner uint64, payload []byte) Value { return query.OwnerValue(owner, payload) }

// LockOwner extracts the owner of a lock record (0 = free).
func LockOwner(v Value) uint64 { return query.Owner(v) }
