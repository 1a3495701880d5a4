// Package simclient models NetChain client agents inside the simulator
// (§3): it applies the DPDK host cost model — a fixed per-side stack delay
// and a bounded per-server query rate (the paper's 20.5 MQPS / 9.7 µs
// client envelope) — and drives the protocol's client half on event.Sim's
// clock. None of that half is decided here: frames are built and replies
// read through query.Call, and outstanding queries, retries on timeout (the
// §4.3 answer to UDP loss) and give-up are query.Pending — the same code
// the wire client runs.
//
// Several logical clients can share one simulated host through a Mux that
// demultiplexes replies by UDP destination port, mirroring how the paper
// runs up to 100 client processes on one server (§8.5).
package simclient

import (
	"fmt"
	"time"

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
	// Timeout is how long a tracked query's first attempt waits; retries
	// back off from it (§4.3). Generators use it to age out lost queries.
	Timeout event.Time
	// MaxRetries bounds retransmissions before reporting kv.ErrTimeout.
	MaxRetries int
	// Window caps a generator's outstanding queries, mirroring the real
	// transport's in-flight window. 0 leaves the open loop unbounded.
	Window int
}

// DefaultConfig mirrors the paper's client: 2 µs per stack traversal,
// 1 ms before the first retry.
func DefaultConfig() Config {
	return Config{
		HostDelay:  event.Duration(2000),
		Timeout:    event.Duration(1e6),
		MaxRetries: 8,
	}
}

// Result is the outcome of one tracked query.
type Result struct {
	query.Reply // Status, Value and Version; zero when Err is set
	Latency     event.Time
	Err         error
	Retries     int

	call query.Call // what was asked; Outcome reads the reply through it
}

// Outcome reads the result the way every NetChain client does: the
// transport error when the query never resolved, else the reply through
// the call that produced it (query.Call.Outcome, Assumed included).
func (r Result) Outcome() (query.Outcome, error) {
	if r.Err != nil {
		return query.Outcome{}, r.Err
	}
	return r.call.Outcome(r.Reply)
}

// tracked is what a Client keeps per call in the retry core.
type tracked struct {
	call query.Call
	done func(Result)
}

// Client is one logical NetChain client. Pending calls, query ids, retry
// pacing and give-up live in query.Pending, the engine the wire client
// runs too; this type only feeds it the simulator's clock.
type Client struct {
	mux      *Mux
	cfg      Config
	dir      Directory
	ep       query.Endpoint
	calls    *query.Pending[tracked]
	scanning bool // the scan event is scheduled

	// Latency records tracked-query round trips.
	Latency *stats.Histogram
}

// NewClient binds a client to the mux with a fresh port.
func (m *Mux) NewClient(cfg Config, dir Directory) (*Client, error) {
	if dir == nil {
		return nil, fmt.Errorf("simclient: nil directory")
	}
	c := &Client{
		mux:     m,
		cfg:     cfg,
		dir:     dir,
		Latency: stats.NewLatencyHistogram(),
	}
	c.ep.Addr = m.addr
	c.ep.Port, _ = m.Sink(c.recv)
	// Seeding jitter from the endpoint keeps runs reproducible and clients apart.
	seed := int64(c.ep.Addr)<<16 | int64(c.ep.Port)
	c.calls = query.NewPending[tracked](time.Duration(cfg.Timeout), cfg.MaxRetries, seed)
	return c, nil
}

func (c *Client) now() time.Duration { return time.Duration(c.mux.sim.Now()) }

// Do issues a tracked call.
func (c *Client) Do(call query.Call, done func(Result)) {
	qid, err := c.calls.Submit(tracked{call: call, done: done}, c.now())
	if err != nil {
		done(Result{Err: err, call: call})
		return
	}
	c.send(qid, call)
	c.armScan()
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

// send transmits one attempt of a registered call along the route of the
// moment, so retries pick up new chains.
func (c *Client) send(qid uint64, call query.Call) {
	f, err := call.Frame(c.ep, qid, c.dir(call.Key))
	if err != nil {
		if e, ok := c.calls.Cancel(qid); ok {
			c.finish(e, Result{Err: err})
		}
		return
	}
	// TX stack delay, then on the wire.
	c.mux.sim.After(c.cfg.HostDelay, func() { c.mux.net.Inject(c.mux.addr, f) })
}

// armScan schedules the one event that ticks the retry core for every
// pending call. It re-arms itself only while some remain, so Sim.Run still
// drains.
func (c *Client) armScan() {
	if c.scanning || c.calls.InFlight() == 0 {
		return
	}
	c.scanning = true
	c.mux.sim.After(event.Duration(c.calls.ScanEvery()), func() {
		for _, d := range c.calls.OnTick(c.now()) {
			if d.Err != nil {
				c.finish(d.Entry, Result{Err: d.Err})
			} else {
				c.send(d.QID, d.Call.call)
			}
		}
		c.scanning = false
		c.armScan()
	})
}

// finish completes a call the caller has just taken out of the retry core.
func (c *Client) finish(e query.Entry[tracked], r Result) {
	r.Latency, r.Retries, r.call = event.Duration(c.now()-e.Submitted), e.Retries, e.Call.call
	e.Call.done(r)
}

func (c *Client) recv(f *packet.Frame) {
	rep, err := query.ParseReply(f)
	if err != nil {
		return
	}
	e, ok := c.calls.OnReply(rep.QueryID)
	if !ok {
		return // late or duplicate: the core counted it
	}
	// RX stack delay before the application sees it.
	c.mux.sim.After(c.cfg.HostDelay, func() {
		c.Latency.Observe(float64(c.now() - e.Submitted))
		c.finish(e, Result{Reply: rep})
	})
}

// Outstanding returns the number of in-flight tracked queries.
func (c *Client) Outstanding() int { return c.calls.InFlight() }

// Stats returns the retry core's counters: the same four the wire client
// reports.
func (c *Client) Stats() query.Stats { return c.calls.Stats() }
