package transport

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"netchain/internal/packet"
)

// Batch datagram I/O. One syscall per datagram caps the real-UDP data
// plane far below what the lock-free switch core can absorb, so ingest
// and egress run in datagram batches: on Linux a single recvmmsg drains
// up to a whole ring of datagrams and a single sendmmsg flushes a burst
// of replies (batch_linux.go); everywhere else the same interfaces fall
// back to the one-datagram-per-syscall loop the transport always had
// (batch_other.go). The portable implementations also compile on Linux,
// so tests can run both paths side by side and prove them equivalent.

const (
	// defaultRecvBatch is the number of datagrams one ReadBatch may drain
	// per syscall. Past ~32 the syscall amortization flattens while the
	// ring's cache footprint keeps growing.
	defaultRecvBatch = 32

	// recvSlotBytes is the capacity of one receive-ring slot: exactly the
	// largest datagram our own senders emit. The egress coalescer never
	// grows a datagram past maxBatchBytes, and the largest single frame the
	// system builds — a MaxValueBytes (1024 B) value with a full chain and
	// MaxTraceHops trace records, 1945 B — is under half of that
	// (TestLargestFrameFitsRecvSlot). A ring is batch × recvSlotBytes per
	// ingest socket, client and relay, so headroom here is paid many times
	// over; an oversized foreign datagram truncates and surfaces as a
	// counted decode error rather than silent loss.
	recvSlotBytes = maxBatchBytes

	// sendBatchMsgs caps the datagrams flushed by one WriteBatch — the
	// egress mirror of defaultRecvBatch.
	sendBatchMsgs = 32
)

// FaultPipe is the socket-boundary fault filter the wire nemesis
// (internal/faultconn) binds to one socket owner. A BatchConn is the only
// code that applies it, so every real-path datagram crosses it and a chaos
// schedule perturbs the actual syscall boundary instead of a model of it:
//
//   - Attach is told the endpoint of each socket the pipe is attached to,
//     so datagrams addressed there can be attributed to the pipe's owner.
//   - Egress judges one serialized frame (or coalesced datagram) about to
//     leave toward ep. true means "send it yourself, now" — the healthy
//     zero-copy path. false means the pipe consumed it: dropped, or held
//     for delayed/duplicated delivery through send, the socket's own
//     single-datagram sender — delayed copies must leave the owner's own
//     socket so receivers that learn endpoints from datagram sources (the
//     health monitor, the relay's lease table) never see a foreign one.
//   - Ingress judges one received datagram before decode; false drops it.
//
// A nil FaultPipe everywhere is the production configuration; every hook
// is one nil check on the hot path.
type FaultPipe interface {
	Attach(ep *net.UDPAddr)
	Egress(buf []byte, ep *net.UDPAddr, send func(buf []byte, ep *net.UDPAddr)) bool
	Ingress(buf []byte) bool
}

// batchReader reads datagrams from one UDP socket in batches. Not safe
// for concurrent use; each reading goroutine owns one reader and one ring.
type batchReader interface {
	// ReadBatch blocks until at least one datagram is readable, fills the
	// ring's slots, and returns the number of datagrams read. Errors pass
	// through unwrapped: the caller distinguishes net.ErrClosed (socket
	// gone, stop) from transient failures (count and continue).
	ReadBatch(r *recvRing) (int, error)
}

// batchSender writes datagrams to one UDP socket in batches. Not safe for
// concurrent use; each sending goroutine owns one sender.
type batchSender interface {
	// WriteBatch sends every message as its own datagram and returns how
	// many did not leave: a message the kernel refuses is skipped, like
	// loss on the wire, and a closed socket fails every message left.
	WriteBatch(msgs []outFrame) (failed int)
}

// recvRing is the pooled message ring one reading goroutine owns: batch
// slots carved from a single backing array (sequential kernel fills stay
// cache-friendly), reused for the lifetime of the goroutine. Frames
// decoded from a slot alias it only until the next ReadBatch, which is
// why non-detached processing must finish within the batch iteration.
type recvRing struct {
	bufs  [][]byte
	sizes []int
}

func newRecvRing(batch int) *recvRing {
	if batch < 1 {
		batch = 1
	}
	r := &recvRing{bufs: make([][]byte, batch), sizes: make([]int, batch)}
	backing := make([]byte, batch*recvSlotBytes)
	for i := range r.bufs {
		r.bufs[i] = backing[i*recvSlotBytes : (i+1)*recvSlotBytes : (i+1)*recvSlotBytes]
	}
	return r
}

// batchIO builds a socket's reader and sender. platformIO picks the
// fastest the platform offers; portableIO is the reference path, and
// tests substitute readers that fail on demand.
type batchIO struct {
	reader func(*net.UDPConn, *recvRing) batchReader
	sender func(*net.UDPConn) batchSender
}

var (
	platformIO = batchIO{reader: newBatchReader, sender: newBatchSender}
	portableIO = batchIO{
		reader: func(c *net.UDPConn, _ *recvRing) batchReader { return &portableReader{conn: c} },
		sender: func(c *net.UDPConn) batchSender { return &portableSender{conn: c} },
	}
)

// newBatchReader returns the fastest reader the platform offers for conn.
func newBatchReader(conn *net.UDPConn, ring *recvRing) batchReader {
	if r := newPlatformBatchReader(conn, ring); r != nil {
		return r
	}
	return &portableReader{conn: conn}
}

// newBatchSender returns the fastest sender the platform offers for conn.
func newBatchSender(conn *net.UDPConn) batchSender {
	if s := newPlatformBatchSender(conn); s != nil {
		return s
	}
	return &portableSender{conn: conn}
}

// portableReader is the fallback (and reference) implementation: one
// blocking ReadFromUDP per ReadBatch — exactly the pre-batching loop.
type portableReader struct{ conn *net.UDPConn }

func (p *portableReader) ReadBatch(r *recvRing) (int, error) {
	sz, _, err := p.conn.ReadFromUDP(r.bufs[0][:recvSlotBytes])
	if err != nil {
		return 0, err
	}
	r.sizes[0] = sz
	return 1, nil
}

// portableSender is the fallback egress: one WriteToUDP per message.
type portableSender struct{ conn *net.UDPConn }

func (p *portableSender) WriteBatch(msgs []outFrame) (failed int) {
	for i, m := range msgs {
		if _, err := p.conn.WriteToUDP(*m.buf, m.ep); err != nil {
			if errors.Is(err, net.ErrClosed) {
				return failed + len(msgs) - i
			}
			failed++
		}
	}
	return failed
}

// BatchConn is the one datagram socket of the wire: every UDP endpoint the
// switch nodes, clients, relay, subscribers and health monitor open is
// one, and it is the only code that reads, writes or applies a FaultPipe
// to a socket. It exposes the platform batch engine (recvmmsg/sendmmsg on
// Linux, plain syscalls elsewhere): ReadBatch and Queue/Flush for the data
// path, ReadFrom for loops that learn peers from the source address, and
// WriteTo for single sends. One goroutine at a time may read (ReadBatch or
// ReadFrom) and one may queue (Queue/Flush); WriteTo is safe from any.
type BatchConn struct {
	conn  *net.UDPConn
	io    batchIO
	fault FaultPipe
	raw   func([]byte, *net.UDPAddr) // the pipe's re-injection path: send, counted

	batch int
	ring  *recvRing // built by the first ReadBatch: a socket that never reads holds none
	rd    batchReader
	depth atomic.Int32 // datagrams the latest ReadBatch drained, stored before any is handled

	eg       *egressBatch
	sendErrs atomic.Uint64
}

// NewBatchConn wraps conn. batch sizes the receive ring (datagrams per
// ReadBatch syscall); batch < 1 selects the default.
func NewBatchConn(conn *net.UDPConn, batch int) *BatchConn {
	return newBatchConn(conn, batch, nil, platformIO)
}

// Listen binds a UDP socket at bind ("127.0.0.1:0" for tests) and wraps
// it. p, if not nil, filters every datagram the socket reads or sends and
// is told the socket's endpoint. batch is as for NewBatchConn.
func Listen(bind string, batch int, p FaultPipe) (*BatchConn, error) {
	return listen(bind, batch, p, platformIO)
}

// ListenMulticast joins the multicast group and wraps the socket. p, if
// not nil, filters its datagrams but is not told the group endpoint:
// every subscriber of the group shares it.
func ListenMulticast(group *net.UDPAddr, batch int, p FaultPipe) (*BatchConn, error) {
	conn, err := net.ListenMulticastUDP("udp4", nil, group)
	if err != nil {
		return nil, err
	}
	b := NewBatchConn(conn, batch)
	b.fault = p
	return b, nil
}

func listen(bind string, batch int, p FaultPipe, io batchIO) (*BatchConn, error) {
	laddr, err := net.ResolveUDPAddr("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("resolve %q: %w", bind, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	return newBatchConn(conn, batch, p, io), nil
}

// newBatchConn wraps a bound unicast socket. p, if not nil, is attached:
// it filters every datagram and is told the socket's endpoint.
func newBatchConn(conn *net.UDPConn, batch int, p FaultPipe, io batchIO) *BatchConn {
	if batch < 1 {
		batch = defaultRecvBatch
	}
	b := &BatchConn{conn: conn, io: io, fault: p, batch: batch}
	b.raw = func(buf []byte, ep *net.UDPAddr) { _ = b.send(buf, ep) }
	b.eg = b.newEgress()
	if p != nil {
		p.Attach(b.LocalAddr())
	}
	return b
}

// newEgress returns another egress batch on the socket, with its own
// sender, for a second queueing goroutine; it shares the pipe and the
// send-error count.
func (b *BatchConn) newEgress() *egressBatch { return newEgressBatch(b.io.sender(b.conn), b) }

// LocalAddr returns the socket's bound endpoint.
func (b *BatchConn) LocalAddr() *net.UDPAddr { return b.conn.LocalAddr().(*net.UDPAddr) }

// Close closes the socket; a blocked read returns net.ErrClosed.
func (b *BatchConn) Close() error { return b.conn.Close() }

// SendErrors counts the datagrams that did not leave: the kernel refused
// them (too large, unroutable) or the socket was closed.
func (b *BatchConn) SendErrors() uint64 { return b.sendErrs.Load() }

// ReadLoop calls read until it returns net.ErrClosed, then drops the
// receive ring: a closed socket's owner may outlive it (a fail-stopped
// switch node). Any other error is transient — an ICMP refusal surfacing
// from a dead peer, a brief ENOBUFS — and must not end the loop: onErr, if
// not nil, counts it, and the loop backs off 20 µs so an error storm
// cannot spin it. Run it on the goroutine that reads.
func (b *BatchConn) ReadLoop(read func() error, onErr func()) {
	for {
		err := read()
		if err == nil {
			continue
		}
		if errors.Is(err, net.ErrClosed) {
			b.ring, b.rd = nil, nil
			return
		}
		if onErr != nil {
			onErr()
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// ReadBatch blocks for at least one datagram, invokes fn for each datagram
// drained by the syscall that passes the pipe (the slice aliases the ring:
// fn must finish with it before returning), and reports how many were
// read. A closed socket returns net.ErrClosed; other errors are transient.
func (b *BatchConn) ReadBatch(fn func(datagram []byte)) (int, error) {
	if b.ring == nil {
		b.ring = newRecvRing(b.batch)
		b.rd = b.io.reader(b.conn, b.ring)
	}
	k, err := b.rd.ReadBatch(b.ring)
	if err != nil {
		return 0, err
	}
	b.depth.Store(int32(k))
	for i := 0; i < k; i++ {
		dgram := b.ring.bufs[i][:b.ring.sizes[i]]
		if b.fault != nil && !b.fault.Ingress(dgram) {
			continue
		}
		fn(dgram)
	}
	return k, nil
}

// ReadFrom reads the next datagram that passes the pipe into buf and
// returns its length and source endpoint.
func (b *BatchConn) ReadFrom(buf []byte) (int, *net.UDPAddr, error) {
	for {
		n, src, err := b.conn.ReadFromUDP(buf)
		if err != nil || b.fault == nil || b.fault.Ingress(buf[:n]) {
			return n, src, err
		}
	}
}

// WriteTo sends buf to ep as one datagram, through the pipe. A datagram
// the pipe consumes reports no error, as a kernel that then lost it would.
func (b *BatchConn) WriteTo(buf []byte, ep *net.UDPAddr) error {
	if b.fault != nil && !b.fault.Egress(buf, ep, b.raw) {
		return nil
	}
	return b.send(buf, ep)
}

func (b *BatchConn) send(buf []byte, ep *net.UDPAddr) error {
	_, err := b.conn.WriteToUDP(buf, ep)
	if err != nil {
		b.sendErrs.Add(1)
	}
	return err
}

// Queue adds one serialized datagram payload bound for ep, taking
// ownership of buf (obtain it with packet.GetBuf). It joins the newest
// queued datagram for the same ep pointer while that stays within the
// batch cap, so payloads for one ep keep their order; a full message ring
// flushes automatically.
func (b *BatchConn) Queue(buf *[]byte, ep *net.UDPAddr) {
	b.eg.add(outFrame{buf: buf, ep: ep})
}

// Flush sends everything queued.
func (b *BatchConn) Flush() { b.eg.flush() }

// egressBatch accumulates serialized frames into datagrams and flushes
// them with one WriteBatch per burst: a frame joins the newest queued
// datagram bound for the same endpoint (the receiver's DecodeBatch
// separates them, DPDK-style burst batching) up to maxBatchBytes, so
// interleaved replies, forwards and events for a handful of endpoints
// still share datagrams. Frames for one endpoint leave in the order they
// were added; no receiver depends on the order across endpoints, which
// become separate messages of the same syscall. One goroutine at a time
// uses an egressBatch.
type egressBatch struct {
	snd  batchSender
	msgs []outFrame
	bc   *BatchConn // the socket's pipe and send-error count
}

func newEgressBatch(snd batchSender, bc *BatchConn) *egressBatch {
	return &egressBatch{snd: snd, msgs: make([]outFrame, 0, sendBatchMsgs), bc: bc}
}

// add queues one serialized frame, taking ownership of o.buf. The fault
// verdict runs here, before coalescing, so per-directed-endpoint faults
// judge real frame boundaries rather than merged datagrams.
func (e *egressBatch) add(o outFrame) {
	if p := e.bc.fault; p != nil && !p.Egress(*o.buf, o.ep, e.bc.raw) {
		packet.PutBuf(o.buf)
		return
	}
	for i := len(e.msgs) - 1; i >= 0; i-- {
		m := &e.msgs[i]
		if m.ep != o.ep {
			continue
		}
		// Only the newest message for ep may grow: appending to an older
		// one would put this frame ahead of frames already queued after it.
		if len(*m.buf)+len(*o.buf) <= maxBatchBytes {
			*m.buf = append(*m.buf, *o.buf...)
			packet.PutBuf(o.buf)
			return
		}
		break
	}
	e.msgs = append(e.msgs, o)
	if len(e.msgs) == cap(e.msgs) {
		e.flush()
	}
}

// flush sends everything queued and recycles the buffers.
func (e *egressBatch) flush() {
	if len(e.msgs) == 0 {
		return
	}
	if failed := e.snd.WriteBatch(e.msgs); failed > 0 {
		e.bc.sendErrs.Add(uint64(failed))
	}
	for i := range e.msgs {
		packet.PutBuf(e.msgs[i].buf)
	}
	e.msgs = e.msgs[:0]
}
