// Package simclient models NetChain client agents inside the simulator
// (§3): it tracks outstanding queries, retries on timeout (the §4.3 answer
// to UDP loss), and applies the DPDK host cost model — a fixed per-side
// stack delay and a bounded per-server query rate (the paper's 20.5 MQPS /
// 9.7 µs client envelope). What a query looks like and what its reply
// means is not decided here: frames are built and replies read through
// query.Call, the same code the wire client runs.
//
// Several logical clients can share one simulated host through a Mux that
// demultiplexes replies by UDP destination port, mirroring how the paper
// runs up to 100 client processes on one server (§8.5).
package simclient

import (
	"fmt"

	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/netsim"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/stats"
)

// Directory resolves a key to its current route. The controller provides a
// fresh view; harnesses can wrap it with a stale snapshot to model slow
// agent updates (§4.2).
type Directory func(k kv.Key) query.Route

// Mux owns a simulated host and routes replies to the clients and
// generators bound to it by UDP destination port.
type Mux struct {
	sim      *event.Sim
	net      *netsim.Network
	addr     packet.Addr
	sinks    map[uint16]func(*packet.Frame)
	nextPort uint16
}

// NewMux attaches to host addr. The host must already exist in the
// network; its receive callback is claimed by the mux.
func NewMux(sim *event.Sim, net *netsim.Network, addr packet.Addr) (*Mux, error) {
	m := &Mux{sim: sim, net: net, addr: addr, sinks: make(map[uint16]func(*packet.Frame)), nextPort: 20000}
	if err := net.HostRecv(addr, m.recv); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *Mux) recv(f *packet.Frame) {
	if sink, ok := m.sinks[f.UDP.DstPort]; ok {
		sink(f)
	}
}

// Addr returns the simulated host the mux owns.
func (m *Mux) Addr() packet.Addr { return m.addr }

// Sink binds fn to a fresh UDP port on the mux's host and returns the
// port plus a release func. Push-watch subscribers use this to claim the
// endpoint they join multicast groups with; frames arriving on the port
// (events, watch acks) go straight to fn.
func (m *Mux) Sink(fn func(*packet.Frame)) (uint16, func()) {
	port := m.nextPort
	m.nextPort++
	m.sinks[port] = fn
	return port, func() { delete(m.sinks, port) }
}

// Config tunes one client.
type Config struct {
	// HostDelay is charged once on send and once on receive (the DPDK
	// stack share of the 9.7 µs end-to-end latency).
	HostDelay event.Time
	// Timeout is how long a tracked query waits before retry (client-side
	// retries, §4.3); generators use it to age out lost queries.
	Timeout event.Time
	// MaxRetries bounds retransmissions before reporting ErrTimeout.
	MaxRetries int
	// Window caps a generator's outstanding queries, mirroring the real
	// transport's in-flight window. 0 leaves the open loop unbounded.
	Window int
}

// DefaultConfig mirrors the paper's client: 2 µs per stack traversal,
// 1 ms retry timer.
func DefaultConfig() Config {
	return Config{
		HostDelay:  event.Duration(2000),
		Timeout:    event.Duration(1e6),
		MaxRetries: 8,
	}
}

// Result is the outcome of one tracked query.
type Result struct {
	Status  kv.Status
	Value   kv.Value
	Version kv.Version
	Latency event.Time
	Err     error
	Retries int

	call query.Call // what was asked; Outcome reads the reply through it
}

// Outcome reads the result the way every NetChain client does: the
// transport error when the query never resolved, else the reply through
// the call that produced it (query.Call.Outcome, Assumed included).
func (r Result) Outcome() (query.Outcome, error) {
	if r.Err != nil {
		return query.Outcome{}, r.Err
	}
	return r.call.Outcome(query.Reply{Status: r.Status, Value: r.Value, Version: r.Version})
}

type pending struct {
	call    query.Call
	start   event.Time
	retries int
	done    func(Result)
	timer   uint64 // generation counter to cancel stale timeouts
}

// Client is one logical NetChain client.
type Client struct {
	mux  *Mux
	cfg  Config
	dir  Directory
	ep   query.Endpoint
	next uint64
	out  map[uint64]*pending

	// Latency records tracked-query round trips.
	Latency *stats.Histogram
	// Completed counts per-status outcomes.
	Completed map[kv.Status]uint64
	Timeouts  uint64
}

// NewClient binds a client to the mux with a fresh port.
func (m *Mux) NewClient(cfg Config, dir Directory) (*Client, error) {
	if dir == nil {
		return nil, fmt.Errorf("simclient: nil directory")
	}
	port := m.nextPort
	m.nextPort++
	c := &Client{
		mux:       m,
		cfg:       cfg,
		dir:       dir,
		ep:        query.Endpoint{Addr: m.addr, Port: port},
		out:       make(map[uint64]*pending),
		Latency:   stats.NewLatencyHistogram(),
		Completed: make(map[kv.Status]uint64),
	}
	m.sinks[port] = c.recv
	return c, nil
}

// Endpoint returns the client's address/port identity.
func (c *Client) Endpoint() query.Endpoint { return c.ep }

// Do issues a tracked call.
func (c *Client) Do(call query.Call, done func(Result)) {
	c.next++
	qid := c.next
	p := &pending{call: call, start: c.mux.sim.Now(), done: done}
	c.out[qid] = p
	c.send(qid, p)
}

// Read issues a tracked read.
func (c *Client) Read(k kv.Key, done func(Result)) {
	c.Do(query.Call{Op: kv.OpRead, Key: k}, done)
}

// Write issues a tracked write.
func (c *Client) Write(k kv.Key, v kv.Value, done func(Result)) {
	c.Do(query.Call{Op: kv.OpWrite, Key: k, Value: v}, done)
}

// Delete issues a tracked tombstone write.
func (c *Client) Delete(k kv.Key, done func(Result)) {
	c.Do(query.Call{Op: kv.OpDelete, Key: k}, done)
}

// CAS issues a tracked compare-and-swap (§8.5 locks): newValue replaces
// the stored value iff its owner field equals expect.
func (c *Client) CAS(k kv.Key, expect uint64, newValue kv.Value, done func(Result)) {
	c.Do(query.Call{Op: kv.OpCAS, Key: k, Expect: expect, Value: newValue}, done)
}

func (c *Client) send(qid uint64, p *pending) {
	f, err := p.call.Frame(c.ep, qid, c.dir(p.call.Key))
	if err != nil {
		delete(c.out, qid)
		p.done(Result{Err: err, Latency: c.mux.sim.Now() - p.start, call: p.call})
		return
	}
	p.timer++
	gen := p.timer
	// TX stack delay, then on the wire.
	c.mux.sim.After(c.cfg.HostDelay, func() { c.mux.net.Inject(c.mux.addr, f) })
	c.mux.sim.After(c.cfg.HostDelay+c.cfg.Timeout, func() { c.timeout(qid, gen) })
}

func (c *Client) timeout(qid uint64, gen uint64) {
	p, ok := c.out[qid]
	if !ok || p.timer != gen {
		return // reply already arrived, or a newer retransmission owns the timer
	}
	if p.retries >= c.cfg.MaxRetries {
		delete(c.out, qid)
		c.Timeouts++
		p.done(Result{Err: kv.ErrTimeout, Latency: c.mux.sim.Now() - p.start, Retries: p.retries, call: p.call})
		return
	}
	p.retries++
	c.send(qid, p)
}

func (c *Client) recv(f *packet.Frame) {
	rep, err := query.ParseReply(f)
	if err != nil {
		return
	}
	p, ok := c.out[rep.QueryID]
	if !ok {
		return // duplicate reply after retry
	}
	delete(c.out, rep.QueryID)
	// RX stack delay before the application sees it.
	c.mux.sim.After(c.cfg.HostDelay, func() {
		lat := c.mux.sim.Now() - p.start
		c.Latency.Observe(float64(lat))
		c.Completed[rep.Status]++
		p.done(Result{
			Status:  rep.Status,
			Value:   rep.Value,
			Version: rep.Version,
			Latency: lat,
			Retries: p.retries,
			call:    p.call,
		})
	})
}

// Outstanding returns the number of in-flight tracked queries.
func (c *Client) Outstanding() int { return len(c.out) }
