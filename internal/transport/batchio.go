package transport

import (
	"errors"
	"net"

	"netchain/internal/packet"
)

// isClosedErr reports whether err means the socket is gone for good — the
// only read/write error that should stop a datagram loop.
func isClosedErr(err error) bool { return errors.Is(err, net.ErrClosed) }

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

// batchReader reads datagrams from one UDP socket in batches. Not safe
// for concurrent use; each ingest goroutine owns one reader and one ring.
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
	// WriteBatch sends every message as its own datagram. Send failures
	// on individual messages are dropped silently — on UDP a refused or
	// unreachable destination is indistinguishable from loss anyway — but
	// a closed socket returns net.ErrClosed.
	WriteBatch(msgs []outFrame) error
}

// recvRing is the pooled message ring one ingest goroutine owns: batch
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

func (p *portableSender) WriteBatch(msgs []outFrame) error {
	for _, m := range msgs {
		if _, err := p.conn.WriteToUDP(*m.buf, m.ep); err != nil {
			if isClosedErr(err) {
				return err
			}
			// A refused/unreachable destination: drop, like the wire would.
		}
	}
	return nil
}

// BatchConn exposes the transport's platform batch datagram engine
// (recvmmsg/sendmmsg on Linux, plain syscalls elsewhere) for other tiers —
// the watch relay's event ingest and fan-out reuse it instead of growing a
// second I/O stack. One goroutine owns a BatchConn.
type BatchConn struct {
	conn  *net.UDPConn
	ring  *recvRing
	rd    batchReader
	eg    *egressBatch
	fault FaultPipe
}

// NewBatchConn wraps conn. batch sizes the receive ring (datagrams per
// ReadBatch syscall); batch < 1 selects the default.
func NewBatchConn(conn *net.UDPConn, batch int) *BatchConn {
	if batch < 1 {
		batch = defaultRecvBatch
	}
	ring := newRecvRing(batch)
	return &BatchConn{
		conn: conn,
		ring: ring,
		rd:   newBatchReader(conn, ring),
		eg:   newEgressBatch(newBatchSender(conn)),
	}
}

// SetFaults routes every datagram the BatchConn reads or queues through
// p (see FaultPipe). Call before serving; the owning goroutine is the
// only reader of the field afterwards.
func (b *BatchConn) SetFaults(p FaultPipe) {
	b.fault = p
	b.eg.withFault(p, rawSender(b.conn))
}

// ReadBatch blocks for at least one datagram, invokes fn for each datagram
// drained by the syscall (the slice aliases the ring: fn must finish with
// it before returning), and reports how many were read. A closed
// socket returns net.ErrClosed; other errors are transient.
func (b *BatchConn) ReadBatch(fn func(datagram []byte)) (int, error) {
	k, err := b.rd.ReadBatch(b.ring)
	if err != nil {
		return 0, err
	}
	for i := 0; i < k; i++ {
		dgram := b.ring.bufs[i][:b.ring.sizes[i]]
		if b.fault != nil && !b.fault.Ingress(dgram) {
			continue
		}
		fn(dgram)
	}
	return k, nil
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
	snd   batchSender
	msgs  []outFrame
	fault FaultPipe                  // nil in production: one branch per add
	raw   func([]byte, *net.UDPAddr) // owner's raw sender for delayed re-injection
}

func newEgressBatch(snd batchSender) *egressBatch {
	return &egressBatch{snd: snd, msgs: make([]outFrame, 0, sendBatchMsgs)}
}

// add queues one serialized frame, taking ownership of o.buf. The fault
// verdict runs here, before coalescing, so per-directed-endpoint faults
// judge real frame boundaries rather than merged datagrams.
func (e *egressBatch) add(o outFrame) {
	if e.fault != nil && !e.fault.Egress(*o.buf, o.ep, e.raw) {
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
	_ = e.snd.WriteBatch(e.msgs)
	for i := range e.msgs {
		packet.PutBuf(e.msgs[i].buf)
	}
	e.msgs = e.msgs[:0]
}
