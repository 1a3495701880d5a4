package transport

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/trace"
)

// ErrClosed is returned by client operations after Close.
var ErrClosed = errors.New("transport: client closed")

// switchQueueDepth sizes the client's send queue (sendCh), the only
// user-space queue left on the wire path: deep enough to absorb a
// pipelined window, shallow enough that a stalled send loop backpressures
// Submit.
const switchQueueDepth = 512

// call is one logical request as the client registers it with the retry
// core (query.Pending, which owns its QueryID, its attempts and its
// deadline): how to build an attempt's frame, whom to tell, and whether the
// call is sampled for in-band telemetry. It holds exactly one window slot
// from Submit until its callback fires.
type call struct {
	build func(qid uint64) (*packet.Frame, error)
	done  func(*packet.Frame, error)

	// Sampled calls (zero when untraced): queued is when Submit was entered,
	// before any window wait. queued→Entry.Submitted is client queueing,
	// Submitted→LastSent is time burned on lost attempts (retry/backoff
	// share), LastSent→receive is the window the reply's hop records
	// decompose.
	traced bool
	queued time.Duration
}

// ClientStats counts transport-level events since the client started.
type ClientStats struct {
	query.Stats         // Sent, Retries, Timeouts, Late: the retry core's counters
	ReadErrors   uint64 // transient socket read errors survived
	DecodeErrors uint64 // datagrams with undecodable reply bytes
	Traces       uint64 // sampled traced replies recorded
}

// Client is a pipelined NetChain client over real UDP: up to Window
// queries ride the wire at once, each matched to its caller by QueryID and
// retransmitted until answered or given up on (§4.3) by query.Pending, the
// retry engine the simulator's clients run too. This type owns what is the
// wire's alone: the socket, the batched send and receive loops, the window
// and telemetry sampling. Safe for concurrent use; Submit applies
// backpressure when the window is full.
type Client struct {
	book    *AddressBook
	conn    *net.UDPConn
	addr    packet.Addr
	port    uint16
	gateway packet.Addr

	calls  *query.Pending[call]
	window chan struct{} // in-flight slots; nil = unlimited
	start  time.Time     // zero of the timeline the retry core is fed

	fault FaultPipe // wire nemesis hook (nil = healthy)

	sendCh   chan outFrame
	sendDone chan struct{}

	readErrs   atomic.Uint64
	decodeErrs atomic.Uint64
	traces     atomic.Uint64

	// In-band telemetry sampling: every traceEvery-th Submit is traced
	// (0 = tracing off). tracer receives the reconstructed per-hop
	// breakdowns.
	traceEvery uint64
	traceTick  atomic.Uint64
	tracer     *trace.Collector

	closed atomic.Bool
	done   chan struct{}

	// newReader builds the receive loop's reader; tests inject transient
	// read errors through it. nil means newBatchReader.
	newReader func(*net.UDPConn, *recvRing) batchReader
}

// ClientConfig tunes the client.
type ClientConfig struct {
	// Addr is the client's virtual NetChain address (must be unique).
	Addr packet.Addr
	// Gateway is the switch the client sends through (its ToR).
	Gateway packet.Addr
	// Bind is the local UDP bind address ("127.0.0.1:0" for tests).
	Bind string
	// Timeout is how long the first attempt waits for its reply
	// (client-side retries, §4.3); retries back off from it as
	// query.Pending paces them. Default 50 ms.
	Timeout time.Duration
	// Retries before giving up. Default 5.
	Retries int
	// Window caps in-flight queries; Submit blocks while the pipe is full.
	// 0 leaves admission uncapped (each blocking call still has exactly one
	// outstanding query, so serial callers behave as before).
	Window int

	// TraceSampleRate samples queries for in-band telemetry: a rate r
	// traces roughly one query in 1/r (the sampler is deterministic
	// counter-based, so r=0.001 traces exactly every 1000th Submit).
	// 0 selects the default 1/1024; negative disables tracing. Traced
	// queries carry the packet trace extension, every hop appends its
	// record, and the reply's breakdown lands in Tracer.
	TraceSampleRate float64
	// Tracer aggregates sampled traces (per-stage histograms, coverage,
	// retry share). nil disables tracing regardless of TraceSampleRate.
	Tracer *trace.Collector

	// Faults, when set, routes every datagram the client sends or
	// receives through the wire nemesis (see FaultPipe).
	Faults FaultPipe

	// testReader, when set (in-package tests only), replaces the receive
	// loop's reader so transient socket errors can be injected.
	testReader func(*net.UDPConn, *recvRing) batchReader
}

// NewClient binds a socket and registers the client's virtual address.
func NewClient(book *AddressBook, cfg ClientConfig) (*Client, error) {
	if cfg.Addr.IsZero() {
		return nil, fmt.Errorf("transport: client needs a virtual address")
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 50 * time.Millisecond
	}
	if cfg.Retries == 0 {
		cfg.Retries = 5
	}
	laddr, err := net.ResolveUDPAddr("udp", cfg.Bind)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		book:     book,
		conn:     conn,
		addr:     cfg.Addr,
		port:     uint16(conn.LocalAddr().(*net.UDPAddr).Port),
		gateway:  cfg.Gateway,
		calls:    query.NewPending[call](cfg.Timeout, cfg.Retries, time.Now().UnixNano()^int64(cfg.Addr)),
		start:    time.Now(),
		sendCh:   make(chan outFrame, switchQueueDepth),
		sendDone: make(chan struct{}),
		done:     make(chan struct{}),
		fault:    cfg.Faults,

		newReader: cfg.testReader,
	}
	if cfg.Tracer != nil && cfg.TraceSampleRate >= 0 {
		rate := cfg.TraceSampleRate
		if rate == 0 {
			rate = 1.0 / 1024
		}
		if rate > 1 {
			rate = 1
		}
		c.traceEvery = uint64(1 / rate)
		if c.traceEvery == 0 {
			c.traceEvery = 1
		}
		c.tracer = cfg.Tracer
	}
	if c.newReader == nil {
		c.newReader = newBatchReader
	}
	if cfg.Window > 0 {
		c.window = make(chan struct{}, cfg.Window)
	}
	book.Set(cfg.Addr, conn.LocalAddr().(*net.UDPAddr))
	go c.serve()
	go c.sendLoop()
	go c.timeoutLoop()
	return c, nil
}

// Close shuts the client down and fails every pending call with ErrClosed.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := c.conn.Close()
	<-c.done
	<-c.sendDone
	for _, e := range c.calls.Drain(ErrClosed) {
		c.finish(e, nil, ErrClosed)
	}
	return err
}

// Stats returns a snapshot of the transport counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Stats:        c.calls.Stats(),
		ReadErrors:   c.readErrs.Load(),
		DecodeErrors: c.decodeErrs.Load(),
		Traces:       c.traces.Load(),
	}
}

// InFlight returns the number of queries currently awaiting a reply.
func (c *Client) InFlight() int { return c.calls.InFlight() }

// serve is the client's receive loop: one batched read drains a burst of
// reply datagrams, and every frame batched inside each datagram is
// delivered. Only a closed socket ends the loop — a transient error (an
// ICMP port-unreachable surfacing after a switch died mid-failover, say)
// is counted and survived, where exiting would silently strand every
// in-flight and future query until its timer fired.
func (c *Client) serve() {
	defer close(c.done)
	ring := newRecvRing(defaultRecvBatch)
	rd := c.newReader(c.conn, ring)
	var f packet.Frame
	for {
		k, err := rd.ReadBatch(ring)
		if err != nil {
			if isClosedErr(err) {
				return
			}
			c.readErrs.Add(1)
			time.Sleep(20 * time.Microsecond) // don't spin on an error storm
			continue
		}
		for i := 0; i < k; i++ {
			if c.fault != nil && !c.fault.Ingress(ring.bufs[i][:ring.sizes[i]]) {
				continue
			}
			if _, derr := packet.DecodeBatch(&f, ring.bufs[i][:ring.sizes[i]], c.deliver); derr != nil {
				// Frames before the corruption were already delivered;
				// whatever the torn tail carried will retry on its timer.
				c.decodeErrs.Add(1)
			}
		}
	}
}

// deliver routes one decoded reply to its pending call. f aliases the
// receive buffer and is handed to the callback synchronously — the
// callback copies what it keeps (ParseReply clones the value), so the
// reply crosses the hot path without an intermediate frame copy.
func (c *Client) deliver(f *packet.Frame) {
	if e, ok := c.calls.OnReply(f.NC.QueryID); ok {
		c.finish(e, f, nil)
	}
}

// sendLoop drains the client's outbound queue, folding each queued burst
// into one batched send syscall (frames for the same gateway coalesce into
// single datagrams along the way).
func (c *Client) sendLoop() {
	defer close(c.sendDone)
	eg := newEgressBatch(newBatchSender(c.conn))
	if c.fault != nil {
		eg.withFault(c.fault, rawSender(c.conn))
	}
	for {
		select {
		case o := <-c.sendCh:
			eg.add(o)
		drain:
			for {
				select {
				case o2 := <-c.sendCh:
					eg.add(o2)
				default:
					break drain
				}
			}
			eg.flush()
		case <-c.done:
			return
		}
	}
}

// Submit issues one request asynchronously: build is called once per
// attempt with the call's QueryID (the same on every retry; running build
// again lets retries pick up new chains), and done fires exactly once with
// the reply frame or an error. The reply frame is valid only for the
// duration of the callback — it aliases the receive buffer, so the callback
// must copy anything it keeps. done runs on the receive or timer goroutine
// and must not block; Submit itself blocks only while the in-flight window
// is full.
func (c *Client) Submit(build func(qid uint64) (*packet.Frame, error), done func(*packet.Frame, error)) {
	// Telemetry sampling decides before the window wait so a traced call's
	// queueing span covers admission backpressure too.
	cl := call{build: build, done: done}
	if c.traceEvery > 0 && c.traceTick.Add(1)%c.traceEvery == 0 {
		cl.traced, cl.queued = true, time.Since(c.start)
	}
	if c.window != nil {
		// Fast path: a free slot needs no select machinery. Only a full
		// window falls back to blocking (racing shutdown).
		select {
		case c.window <- struct{}{}:
		default:
			select {
			case c.window <- struct{}{}:
			case <-c.done:
				done(nil, ErrClosed)
				return
			}
		}
	}
	qid, err := c.calls.Submit(cl, time.Since(c.start))
	if err != nil {
		c.finish(query.Entry[call]{Call: cl}, nil, err)
		return
	}
	c.transmit(qid, cl)
}

// finish releases the call's window slot and delivers its outcome; the
// caller has just removed e from the retry core, so it runs once per call.
// Traced replies are reconstructed into the collector first — the hop
// records alias the receive buffer, which is only valid during this
// delivery.
func (c *Client) finish(e query.Entry[call], f *packet.Frame, err error) {
	cl := e.Call
	if cl.traced && err == nil && f != nil && c.tracer != nil && f.NC.Traced {
		var hopBuf [packet.MaxTraceHops]packet.TraceHop
		hops := f.NC.TraceHops(hopBuf[:0])
		c.tracer.Record(hops, c.start.Add(e.LastSent).UnixNano(), time.Now().UnixNano(),
			int64(e.Submitted-cl.queued), int64(e.LastSent-e.Submitted), e.Retries)
		c.traces.Add(1)
	}
	if c.window != nil {
		<-c.window
	}
	cl.done(f, err)
}

// transmit puts one attempt of a registered call on the wire. An attempt
// that cannot be built or addressed fails the call, unless a reply to an
// earlier attempt has completed it meanwhile.
func (c *Client) transmit(qid uint64, cl call) {
	if err := c.send(qid, cl); err != nil {
		if e, ok := c.calls.Cancel(qid); ok {
			c.finish(e, nil, err)
		}
	}
}

// send builds, serializes and queues one attempt under the call's one
// QueryID (see query.Pending for why a retransmit must not take a fresh one).
func (c *Client) send(qid uint64, cl call) error {
	f, err := cl.build(qid)
	if err != nil {
		return err
	}
	if cl.traced {
		f.EnableTrace() // sampled: serialize with the telemetry extension
	}
	gw, ok := c.book.Get(c.gateway)
	if !ok {
		packet.PutFrame(f)
		return fmt.Errorf("transport: no endpoint for gateway %v", c.gateway)
	}
	bp := packet.GetBuf()
	out, err := f.Serialize((*bp)[:0])
	packet.PutFrame(f)
	if err != nil {
		packet.PutBuf(bp)
		return err
	}
	*bp = out

	// Hand the datagram to the send stage; past this point a lost write
	// surfaces as a timeout, exactly like a drop on the wire.
	select {
	case c.sendCh <- outFrame{buf: bp, ep: gw}:
	case <-c.done:
		packet.PutBuf(bp)
	}
	return nil
}

// timeoutLoop feeds the retry core the wall clock: every quarter timeout
// it retransmits the attempts whose deadline passed and fails the calls
// that are out of attempts.
func (c *Client) timeoutLoop() {
	tick := time.NewTicker(max(c.calls.ScanEvery(), time.Millisecond))
	defer tick.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-tick.C:
		}
		for _, d := range c.calls.OnTick(time.Since(c.start)) {
			if d.Err != nil {
				c.finish(d.Entry, nil, d.Err)
			} else {
				c.transmit(d.QID, d.Call)
			}
		}
	}
}

// Endpoint returns the client identity used in frames.
func (c *Client) Endpoint() (packet.Addr, uint16) { return c.addr, c.port }

// LocalEndpoint returns the client's UDP socket address — the wire
// nemesis registers it so directed link faults can target switch→client
// traffic.
func (c *Client) LocalEndpoint() *net.UDPAddr { return c.conn.LocalAddr().(*net.UDPAddr) }
