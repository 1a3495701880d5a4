// Package transport deploys NetChain on a real network: each switch is a
// Go process (or goroutine) running the same core.Switch dataplane behind
// a UDP socket, the controller drives switch agents over a framed binary
// channel (agentwire.go; the paper's Python controller spoke xmlrpc to
// per-switch agents, §7), and clients (client.go) issue queries over UDP,
// retried on timeout (§4.3) by query.Pending, the engine the simulator's
// clients run too.
//
// NetChain addresses (the virtual 10.x.y.z identifiers that appear in
// packet headers and chain lists) are mapped to real UDP endpoints by an
// AddressBook, so a whole deployment can run across machines or on
// loopback. Frames travel fully serialized — Ethernet/IPv4/UDP/NetChain —
// as UDP payloads, exercising the exact wire codec the dataplane parses.
//
// Clients send through a gateway switch (their ToR in the paper's
// testbed); every switch forwards transit frames toward the header's IP
// destination after consulting its neighbor rule table, which is how
// Algorithm 2 failover redirection happens on the real network too.
package transport

import (
	"fmt"
	"log"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netchain/internal/core"
	"netchain/internal/health"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/stats"
	"netchain/internal/telemetry"
)

// AddressBook maps virtual NetChain addresses to real UDP endpoints.
type AddressBook struct {
	mu sync.RWMutex
	m  map[packet.Addr]*net.UDPAddr
}

// NewAddressBook returns an empty book.
func NewAddressBook() *AddressBook {
	return &AddressBook{m: make(map[packet.Addr]*net.UDPAddr)}
}

// Set registers or replaces a mapping.
func (b *AddressBook) Set(a packet.Addr, ep *net.UDPAddr) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[a] = ep
}

// Get resolves a mapping.
func (b *AddressBook) Get(a packet.Addr) (*net.UDPAddr, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	ep, ok := b.m[a]
	return ep, ok
}

// maxBatchBytes caps how many frames one datagram may carry when an
// egress batch coalesces the frames it queued for one endpoint (burst
// batching, like the paper's DPDK clients). Latency is unaffected: batches
// only form from frames one receive batch produced, flushed together.
const maxBatchBytes = 4096

// outFrame is one serialized frame (or a growing batch) awaiting the wire.
type outFrame struct {
	buf *[]byte
	ep  *net.UDPAddr
}

// NodeOption tunes a SwitchNode.
type NodeOption func(*nodeConfig)

type nodeConfig struct {
	sockets   int
	batch     int
	portable  bool                                      // force the pre-batching reference path
	newReader func(*net.UDPConn, *recvRing) batchReader // test seam: inject read errors
	fault     FaultPipe                                 // wire nemesis hook (nil = healthy)
}

// WithFaultPipe routes every datagram the node sends or receives through
// p — ingest drops before decode, egress verdicts per serialized frame
// (before coalescing, so per-frame faults see frame boundaries).
func WithFaultPipe(p FaultPipe) NodeOption {
	return func(c *nodeConfig) { c.fault = p }
}

// WithIngestSockets sets how many SO_REUSEPORT sockets share the node's
// port, each owned by its own batch-reading ingest goroutine (the kernel
// shards flows across them by 4-tuple hash, so one client's datagrams
// always arrive in order on one socket). n < 1 selects the default (one
// per schedulable core, capped at 4); platforms without SO_REUSEPORT
// always run one socket.
func WithIngestSockets(n int) NodeOption {
	return func(c *nodeConfig) { c.sockets = n }
}

// WithRecvBatch sets the datagrams one ingest syscall may drain (the
// receive-ring depth per socket). n < 1 selects the default (32).
func WithRecvBatch(n int) NodeOption {
	return func(c *nodeConfig) { c.batch = n }
}

// withPortableIO forces the portable single-socket, one-datagram-per-
// syscall path on any platform — the reference the batched fast path is
// tested for equivalence against.
func withPortableIO() NodeOption {
	return func(c *nodeConfig) { c.portable = true }
}

// withReader injects the ingest reader constructor (tests only): a
// wrapping reader can surface transient socket errors on demand.
func withReader(fn func(*net.UDPConn, *recvRing) batchReader) NodeOption {
	return func(c *nodeConfig) { c.newReader = fn }
}

// defaultIngestSockets sizes the ingest-socket shard count: ingest
// goroutines serve every frame inline, so more sockets than cores just
// adds scheduler churn.
func defaultIngestSockets() int {
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

// socketBufBytes is requested for the node's UDP socket in both
// directions, absorbing multi-client bursts while the ingest goroutines
// are busy with the batch before.
const socketBufBytes = 4 << 20

// warnRcvBufOnce rate-limits the clamped-receive-buffer warning: every
// socket in a process hits the same rmem_max, so one line says it all.
var warnRcvBufOnce sync.Once

// rcvBufClamped reports whether the kernel granted less receive buffer
// than requested. Linux reads back double the granted value, so any
// effective reading below the request means net.core.rmem_max clamped it.
// effective == 0 means the platform could not read it back.
func rcvBufClamped(requested, effective int) bool {
	return effective > 0 && effective < requested
}

// configureSocket requests the big socket buffers and reads back what the
// kernel actually granted — the difference between "batching works" and
// "mystery drops": a 4 MB request silently clamped to rmem_max's default
// ~208 KB overflows under a single burst, so the clamp is surfaced both
// in the log and (via NodeStats and heartbeat payloads) to the monitor.
func configureSocket(conn *net.UDPConn) int {
	if err := conn.SetReadBuffer(socketBufBytes); err != nil {
		log.Printf("transport: SetReadBuffer(%d): %v", socketBufBytes, err)
	}
	_ = conn.SetWriteBuffer(socketBufBytes)
	eff := effectiveRcvBuf(conn)
	if rcvBufClamped(socketBufBytes, eff) {
		warnRcvBufOnce.Do(func() {
			log.Printf("transport: kernel clamped SO_RCVBUF to %d bytes (requested %d); "+
				"raise it with `sysctl -w net.core.rmem_max=%d` or expect ingest drops under bursts",
				eff, socketBufBytes, socketBufBytes)
		})
	}
	return eff
}

// NodeStats is a switch node's metrics ledger: its switch's dataplane
// counters, plus what core.Switch.Stats cannot see — transport-level
// events at the node's sockets (bad bytes never reach the dataplane) and
// what the switch stores. Each tagged field is one exported series (see
// telemetry.Registry.Export); heartbeat payloads read the same snapshot.
type NodeStats struct {
	core.Stats
	ReadErrors       uint64 `metric:"netchain_node_read_errors_total" help:"transient socket read errors survived"`
	DecodeErrors     uint64 `metric:"netchain_node_decode_errors_total" help:"datagrams containing undecodable bytes"`
	TruncatedBatches uint64 `metric:"netchain_node_truncated_batches_total" help:"batched datagrams cut short by a corrupt frame after good ones"`
	RecvBatches      uint64 `metric:"netchain_node_recv_batches_total" help:"ingest syscalls that returned datagrams"`
	RecvDatagrams    uint64 `metric:"netchain_node_recv_datagrams_total" help:"datagrams drained by ingest syscalls (per batch: batching effectiveness)"`
	RecvFrames       uint64 `metric:"netchain_node_recv_frames_total" help:"frames decoded off the wire"`
	EventsPublished  uint64 `metric:"netchain_node_events_published_total" help:"push-watch events emitted to the relay sink"`
	NoRoute          uint64 `metric:"netchain_node_no_route_total" help:"forwarded frames dropped: no address book entry for the destination"`
	EncodeErrors     uint64 `metric:"netchain_node_encode_errors_total" help:"forwarded frames dropped: serialization failed"`
	SendErrors       uint64 `metric:"netchain_node_send_errors_total" help:"datagrams that did not leave: refused by the kernel (too large, unroutable) or the socket was closed"`
	RcvBufBytes      int    `metric:"netchain_node_rcvbuf_bytes,gauge" help:"effective kernel SO_RCVBUF (0 = unknown); below 4 MB means clamped"`
	QueueDepth       int    `metric:"netchain_node_queue_depth,gauge" help:"datagrams drained by each ingest socket's latest receive batch, summed"`
	Items            int    `metric:"netchain_switch_items,gauge" help:"keys installed in the match table"`
	RegisterBytes    int    `metric:"netchain_switch_register_bytes,gauge" help:"process memory held by the register file (materialised pages + directory)"`
}

// SwitchNode runs one NetChain switch dataplane behind real UDP sockets.
// Ingest is sharded and batched: up to S SO_REUSEPORT sockets share the
// node's port, each owned by a goroutine that drains whole datagram
// batches per syscall (recvmmsg on Linux) into its own receive ring and
// handles every frame it decodes right there, zero-copy off the ring, in
// one pass from the socket to the egress batch — as a switch pipeline
// handles a packet, with no queue between the stamp and the wire.
//
// Reads, replies and transit frames take no lock: the seqlock snapshot
// linearizes reads regardless of arrival order. Mutations (write/delete/
// CAS/sync, whether this node stamps, applies or only forwards them) are
// handled under one node-wide lock and emit into one shared egress batch,
// so a mutation's output is queued before that of any mutation stamped
// after it and leaves in queue order — the order chain replication needs
// at the next hop, whichever sockets the writes arrived on.
type SwitchNode struct {
	sw    *core.Switch
	book  *AddressBook
	conns []*BatchConn // every ingest socket; conns[0] also carries mutations and heartbeats

	// mutMu is held across the handling of each mutation and across the
	// flush of mutEg, the egress every mutation's output is queued on.
	mutMu sync.Mutex
	mutEg *egressBatch

	readErrs     atomic.Uint64
	decodeErrs   atomic.Uint64
	truncBatches atomic.Uint64
	recvBatches  atomic.Uint64
	recvDgrams   atomic.Uint64
	recvFrames   atomic.Uint64
	evtPublished atomic.Uint64
	noRoute      atomic.Uint64
	encodeErrs   atomic.Uint64
	rcvBuf       int

	// procHist samples handle() wall time (roughly 1/1024 frames, 1/256
	// mutations — each ingest loop keeps its own non-atomic tick so the
	// fast path pays nothing). Exported via the metrics registry as the
	// node's per-hop processing percentiles.
	procHist *stats.Histogram

	evtSink atomic.Pointer[eventSink] // push-watch egress target (zero addr = off)

	mu     sync.Mutex
	closed bool
	recvWG sync.WaitGroup
	hbStop chan struct{}
	hbDone chan struct{}
}

// NewSwitchNode binds the node's UDP socket(s) (pass "127.0.0.1:0" for
// tests), records the mapping in the book, and starts serving.
func NewSwitchNode(sw *core.Switch, book *AddressBook, bind string, opts ...NodeOption) (*SwitchNode, error) {
	cfg := nodeConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.sockets < 1 {
		cfg.sockets = defaultIngestSockets()
	}
	if cfg.batch < 1 {
		cfg.batch = defaultRecvBatch
	}
	if cfg.portable || !reusePortSupported {
		// Without SO_REUSEPORT flow pinning, concurrent readers on one
		// socket would interleave a client's datagrams and break per-key
		// write ordering — so the fallback is one socket, one reader.
		cfg.sockets = 1
	}
	io := platformIO
	if cfg.portable {
		io = portableIO
	}
	if cfg.newReader != nil {
		io.reader = cfg.newReader
	}

	var conns []*BatchConn
	if cfg.sockets > 1 {
		for i := 0; i < cfg.sockets; i++ {
			c, err := listenReusePort(bind)
			if err != nil {
				for _, bc := range conns {
					bc.Close()
				}
				return nil, fmt.Errorf("transport: listen shard %d: %w", i, err)
			}
			conns = append(conns, newBatchConn(c, cfg.batch, cfg.fault, io))
			bind = c.LocalAddr().String()
		}
	} else {
		c, err := listen(bind, cfg.batch, cfg.fault, io)
		if err != nil {
			return nil, fmt.Errorf("transport: listen: %w", err)
		}
		conns = append(conns, c)
	}

	n := &SwitchNode{
		sw: sw, book: book, conns: conns,
		mutEg:    conns[0].newEgress(),
		procHist: stats.NewLatencyHistogram(),
	}
	n.evtSink.Store(&eventSink{})
	for _, c := range conns {
		n.rcvBuf = configureSocket(c.conn)
	}
	book.Set(sw.Addr(), n.Endpoint())
	n.recvWG.Add(len(conns))
	for i, c := range conns {
		go n.ingestLoop(i, c)
	}
	return n, nil
}

// Switch exposes the dataplane (local agent access in-process).
func (n *SwitchNode) Switch() *core.Switch { return n.sw }

// Endpoint returns the real UDP address of the node.
func (n *SwitchNode) Endpoint() *net.UDPAddr { return n.conns[0].LocalAddr() }

// Close stops the node (fail-stop: packets to it are lost, like a dead
// switch) and returns once every ingest goroutine has exited.
func (n *SwitchNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	hbStop, hbDone := n.hbStop, n.hbDone
	n.mu.Unlock()
	if hbStop != nil {
		close(hbStop)
		<-hbDone
	}
	var err error
	for _, c := range n.conns {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	n.recvWG.Wait()
	return err
}

// Closed reports whether Close has run: the node is fail-stopped.
func (n *SwitchNode) Closed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// Stats returns a snapshot of the node's ledger.
func (n *SwitchNode) Stats() NodeStats {
	st := NodeStats{
		Stats:            n.sw.Stats(),
		ReadErrors:       n.readErrs.Load(),
		DecodeErrors:     n.decodeErrs.Load(),
		TruncatedBatches: n.truncBatches.Load(),
		RecvBatches:      n.recvBatches.Load(),
		RecvDatagrams:    n.recvDgrams.Load(),
		RecvFrames:       n.recvFrames.Load(),
		EventsPublished:  n.evtPublished.Load(),
		NoRoute:          n.noRoute.Load(),
		EncodeErrors:     n.encodeErrs.Load(),
		RcvBufBytes:      n.rcvBuf,
		QueueDepth:       n.QueueDepth(),
		Items:            n.sw.ItemCount(),
		RegisterBytes:    n.sw.ResidentBytes(),
	}
	for _, c := range n.conns {
		st.SendErrors += c.SendErrors()
	}
	return st
}

// clampQueue saturates a queue depth into the hop record's uint16 field.
func clampQueue(d int) uint16 {
	if d < 0 {
		return 0
	}
	if d > 0xffff {
		return 0xffff
	}
	return uint16(d)
}

// ProcHist returns the node's sampled processing-time histogram
// (concurrency-safe; feed it to a metrics registry or read percentiles
// directly).
func (n *SwitchNode) ProcHist() *stats.Histogram { return n.procHist }

// RegisterMetrics exports the node's ledger (Stats) and its sampled
// processing-time histogram through reg.
func (n *SwitchNode) RegisterMetrics(reg *telemetry.Registry) {
	reg.Histogram(telemetry.NodeProcNs, "sampled handle() wall time in ns", n.procHist)
	reg.Export(func() any { return n.Stats() })
}

// eventSink is where a node publishes push-watch events: the relay tier's
// ingest endpoint plus the virtual address stamped into event frames.
type eventSink struct {
	addr packet.Addr
	ep   *net.UDPAddr
}

// SetEventSink points the node's push-watch egress at a relay ingest
// endpoint: from then on, every mutation this node commits (a write-family
// query it converts into an OK reply — i.e. it acted as the chain tail)
// additionally leaves as one OpEvent frame on the same batched egress path
// the reply takes. A nil ep turns publishing off. Safe to call while the
// node is serving.
func (n *SwitchNode) SetEventSink(addr packet.Addr, ep *net.UDPAddr) {
	if ep == nil {
		addr = 0
	}
	n.evtSink.Store(&eventSink{addr: addr, ep: ep})
}

// QueueDepth returns the sum, over the node's ingest sockets, of the
// datagrams each socket's latest receive batch drained — the backlog the
// node works through per wakeup, and the signal heartbeat payloads carry.
func (n *SwitchNode) QueueDepth() int {
	depth := 0
	for _, c := range n.conns {
		depth += int(c.depth.Load())
	}
	return depth
}

// StartHeartbeats emits a health.Payload-carrying heartbeat frame to the
// monitor's virtual address every interval, over the node's existing
// dataplane socket (a dead node's heartbeats die with its socket, which
// is the point). The monitor learns this node's endpoint from the
// datagram source address, so no registration round-trip is needed.
// Stops at Close.
func (n *SwitchNode) StartHeartbeats(monitor packet.Addr, every time.Duration) error {
	ep, ok := n.book.Get(monitor)
	if !ok {
		return fmt.Errorf("transport: no endpoint for monitor %v", monitor)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return fmt.Errorf("transport: node closed")
	}
	if n.hbStop != nil {
		n.mu.Unlock()
		return fmt.Errorf("transport: heartbeats already running")
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	n.hbStop, n.hbDone = stop, done
	n.mu.Unlock()
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		f := packet.GetFrame()
		defer packet.PutFrame(f)
		var buf []byte
		var seq uint64
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			st := n.Stats()
			seq++
			health.NewHeartbeat(f, n.sw.Addr(), monitor, seq, health.Payload{
				Queue: uint32(st.QueueDepth),
				// Drops stays zero on the real transport: the node has
				// no visibility into socket-level loss, and the
				// protocol-normal discards it CAN count (stale-dropped
				// duplicate writes, failover rule drops) are signs of
				// the protocol working, not of this switch ailing —
				// feeding them in would demote a healthy head absorbing
				// client retries. Gray detection on the real path rides
				// the probe RTT/loss channel instead.
				Drops:     0,
				Processed: st.Processed,
				Retries:   st.WritesReplayed,
				// Wire-level corruption and the kernel's actual receive
				// buffer ride along so the monitor can tell "this switch's
				// links are tearing frames" and "this switch's socket was
				// clamped below the batching working set" apart from
				// protocol trouble.
				DecodeErrs: st.DecodeErrors,
				RcvBuf:     uint32(st.RcvBufBytes),
			})
			out, err := f.Serialize(buf[:0])
			if err != nil {
				continue
			}
			buf = out
			_ = n.conns[0].WriteTo(out, ep) // a failure is counted in SendErrors
		}
	}()
	return nil
}

// ingestLoop owns ingest socket idx: it drains whole datagram batches per
// syscall into its ring, decodes every frame batched inside each
// datagram, and handles each one before decoding the next, zero-copy off
// the ring — nothing keeps a frame past n.handle, which serializes what it
// forwards, so the next ReadBatch may reuse the slots.
//
// Every other frame — reads, replies, transit of non-mutations — takes no
// lock and emits into this socket's own egress batch: the seqlock snapshot,
// not arrival order,
// linearizes reads, and a client only issues a read-after-write once the
// write's tail ack arrived, by which point the value is committed.
// Mutations are handled under n.mutMu and emit into n.mutEg, so their
// output leaves in stamp order even when two clients' writes to a key
// arrive on different sockets. Without the lock, writes stamped n, n+1 can
// reach the next hop as n+1, n — the replica stale-drops n and its client
// waits out a retry (TestCrossSocketWritesKeepStampOrder). After each
// receive batch the loop flushes its own egress, then, if it handled a
// mutation, the mutation egress under the lock.
//
// Only a closed socket ends the loop; any other read error — an ICMP
// refusal surfacing from a dead client, a transient ENOBUFS — is counted
// and survived (BatchConn.ReadLoop). Exiting on those killed the switch's
// whole data plane.
func (n *SwitchNode) ingestLoop(idx int, bc *BatchConn) {
	defer n.recvWG.Done()
	var f, ev packet.Frame // ev: the commit event Step fills
	emit, mutEmit := bc.eg.add, n.mutEg.add
	var procTick uint32 // loop-local sampling tick, no hot-path atomics
	mutated := false    // this batch queued output on n.mutEg
	handleFrame := func(f *packet.Frame) {
		var hop packet.TraceHop
		if f.NC.Traced {
			// In-band telemetry ingress stamp: receive time, the node's
			// receive backlog, ingest socket. Step completes the record.
			hop = packet.TraceHop{
				SwitchID:  uint32(n.sw.Addr()),
				IngressNs: time.Now().UnixNano(),
				Queue:     clampQueue(n.QueueDepth()),
				Shard:     uint8(idx),
			}
		}
		out, sample := emit, uint32(1023)
		switch f.NC.Op {
		case kv.OpWrite, kv.OpDelete, kv.OpCAS, kv.OpSync:
			out, sample = mutEmit, 255
			mutated = true
			n.mutMu.Lock()
			defer n.mutMu.Unlock()
		}
		if procTick++; procTick&sample == 0 {
			t0 := time.Now()
			n.handle(f, &ev, out, hop)
			n.procHist.ObserveDuration(time.Since(t0))
			return
		}
		n.handle(f, &ev, out, hop)
	}
	handleDatagram := func(dgram []byte) {
		frames, derr := packet.DecodeBatch(&f, dgram, handleFrame)
		n.recvFrames.Add(uint64(frames))
		if derr != nil {
			// A torn or corrupt frame: everything before it was
			// delivered above; the undecodable tail is dropped with
			// accounting so the monitor can see wire corruption.
			n.decodeErrs.Add(1)
			if frames > 0 {
				n.truncBatches.Add(1)
			}
		}
	}
	bc.ReadLoop(func() error {
		k, err := bc.ReadBatch(handleDatagram)
		if err != nil {
			return err
		}
		n.recvBatches.Add(1)
		n.recvDgrams.Add(uint64(k))
		bc.Flush()
		if mutated {
			mutated = false
			n.mutMu.Lock()
			n.mutEg.flush()
			n.mutMu.Unlock()
		}
		return nil
	}, func() { n.readErrs.Add(1) })
}

// handle runs the host step (core.Switch.Step) on a frame and puts what it
// forwards on the wire: the commit event Step filled into ev toward the
// relay sink, on the same batched egress the reply takes, then the frame
// itself. Output frames are serialized and passed to emit while the
// frame's value may still alias dataplane storage or the receive ring;
// nothing keeps f or ev afterwards.
func (n *SwitchNode) handle(f, ev *packet.Frame, emit func(outFrame), hop packet.TraceHop) {
	sink := n.evtSink.Load()
	v, published := n.sw.Step(f, hop, wallNs, sink.addr, ev)
	if v != core.VerdictForward {
		return
	}
	if published {
		if bp, err := packet.SerializeBuf(ev); err == nil {
			emit(outFrame{buf: bp, ep: sink.ep})
			n.evtPublished.Add(1)
		}
	}
	ep, ok := n.book.Get(f.IP.Dst)
	if !ok {
		n.noRoute.Add(1)
		return
	}
	bp, err := packet.SerializeBuf(f)
	if err != nil {
		n.encodeErrs.Add(1)
		return
	}
	emit(outFrame{buf: bp, ep: ep})
}

// wallNs is the wire's trace clock: a hop's egress time.
func wallNs() int64 { return time.Now().UnixNano() }
