// The controller↔switch-agent channel (the paper's controller spoke xmlrpc
// to a per-switch Python agent, §7) is a length-prefixed binary protocol
// over one TCP connection per switch between processes (ServeAgent,
// DialAgent); a controller that shares a process with its switches skips
// the wire and programs them through controller.LocalAgent.
// All integers are big-endian.
//
//	request:  u32 len | u8 verb   | body
//	response: u32 len | u8 status | body
//
// len counts the verb/status byte plus the body and must lie in
// [1, maxAgentFrame]; a prefix outside that range is a framing error that
// closes the connection, never an allocation. status 0 is success, status 1
// an error whose body is the message text.
//
//	key   = 16 bytes
//	item  = key | session u32 | seq u64 | flags u8 (bit 0: tombstone) | vlen u16 | value
//	keys  = u32 n | n × key
//	items = u32 n | n × item
//
//	verb             request body                               success body
//	1 InstallKeys    keys                                       —
//	2 RemoveKeys     keys                                       —
//	3 ReadItems      keys                                       items found | keys missing
//	4 WriteItems     items                                      —
//	5 SetSession     group u16 | session u32                    —
//	6 FreezeWrites   group u16 | frozen u8                      —
//	7 InstallRule    dst u32 | group i32 | action u8 | to u32   —
//	8 RemoveRule     dst u32 | group i32                        —
//	9 Keys           —                                          keys
//
// One request is in flight per connection: the client holds a mutex from
// the first request byte to the last response byte, and the agent decodes,
// executes and answers each frame on the connection's own goroutine — no
// request ids, no per-call goroutine, no reflection. Every state verb is a
// batch, so a verb is one round trip however many keys it names.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"

	"netchain/internal/controller"
	"netchain/internal/core"
	"netchain/internal/kv"
	"netchain/internal/packet"
)

// maxAgentFrame bounds a frame's length field. A full default switch
// (32 768 slots of 128-byte values) dumps in about 5 MiB.
const maxAgentFrame = 16 << 20

// agentReadChunk is how far ahead of the bytes actually received a frame
// reader allocates: a length prefix that lies about a short stream costs
// one chunk, not maxAgentFrame.
const agentReadChunk = 64 << 10

const (
	verbInstallKeys byte = iota + 1
	verbRemoveKeys
	verbReadItems
	verbWriteItems
	verbSetSession
	verbFreezeWrites
	verbInstallRule
	verbRemoveRule
	verbKeys
)

const (
	agentOK  byte = 0
	agentErr byte = 1
)

const (
	// itemFixed is an item's size without its value.
	itemFixed         = kv.KeySize + 4 + 8 + 1 + 2
	itemFlagTombstone = 1
)

var errAgentFrame = errors.New("transport: malformed agent frame")

// ---------------------------------------------------------------------------
// Codec.

func appendKeys(b []byte, keys []kv.Key) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(keys)))
	for i := range keys {
		b = append(b, keys[i][:]...)
	}
	return b
}

func appendItems(b []byte, items []core.Item) ([]byte, error) {
	b = binary.BigEndian.AppendUint32(b, uint32(len(items)))
	for i := range items {
		it := &items[i]
		if len(it.Value) > 0xffff {
			return b, fmt.Errorf("transport: value of %v is %d bytes, the agent wire carries at most 65535", it.Key, len(it.Value))
		}
		b = append(b, it.Key[:]...)
		b = binary.BigEndian.AppendUint32(b, it.Version.Session)
		b = binary.BigEndian.AppendUint64(b, it.Version.Seq)
		var flags byte
		if it.Tombstone {
			flags |= itemFlagTombstone
		}
		b = append(b, flags)
		b = binary.BigEndian.AppendUint16(b, uint16(len(it.Value)))
		b = append(b, it.Value...)
	}
	return b, nil
}

// agentDec consumes a frame body front to back. The first short read
// poisons it: later reads return zeros and end reports errAgentFrame, so
// verb handlers decode straight through and check once.
type agentDec struct {
	b   []byte
	bad bool
}

func (d *agentDec) take(n int) []byte {
	if d.bad || len(d.b) < n {
		d.bad = true
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

func (d *agentDec) u8() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *agentDec) u16() uint16 {
	if b := d.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (d *agentDec) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (d *agentDec) u64() uint64 {
	if b := d.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// count reads an element count and rejects one the remaining bytes cannot
// hold at minSize bytes apiece, so a lying count allocates nothing.
func (d *agentDec) count(minSize int) int {
	n := d.u32()
	if uint64(n)*uint64(minSize) > uint64(len(d.b)) {
		d.bad = true
		return 0
	}
	return int(n)
}

func (d *agentDec) keys() []kv.Key {
	n := d.count(kv.KeySize)
	if n == 0 {
		return nil
	}
	out := make([]kv.Key, n)
	for i := range out {
		copy(out[i][:], d.take(kv.KeySize))
	}
	return out
}

// items decodes an item list. Values alias the frame: whoever lets them
// outlive the frame buffer copies the body first.
func (d *agentDec) items() []core.Item {
	n := d.count(itemFixed)
	if n == 0 {
		return nil
	}
	out := make([]core.Item, n)
	for i := range out {
		it := &out[i]
		copy(it.Key[:], d.take(kv.KeySize))
		it.Version.Session = d.u32()
		it.Version.Seq = d.u64()
		it.Tombstone = d.u8()&itemFlagTombstone != 0
		it.Value = d.take(int(d.u16()))
	}
	if d.bad {
		return nil
	}
	return out
}

// end reports whether the body decoded cleanly and completely.
func (d *agentDec) end() error {
	if d.bad || len(d.b) != 0 {
		return errAgentFrame
	}
	return nil
}

// readAgentFrame reads one frame (verb/status byte plus body, without the
// length prefix) into buf's storage and returns it.
func readAgentFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf[:0], err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n < 1 || n > maxAgentFrame {
		return buf[:0], fmt.Errorf("%w: length %d outside [1, %d]", errAgentFrame, n, maxAgentFrame)
	}
	buf = buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), agentReadChunk)
		buf = slices.Grow(buf, step)
		if _, err := io.ReadFull(r, buf[len(buf):len(buf)+step]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf[:0], err
		}
		buf = buf[:len(buf)+step]
	}
	return buf, nil
}

// ---------------------------------------------------------------------------
// Agent side.

// serveAgentFrame executes one request frame against sw and appends the
// response frame (status byte plus body) to out.
func serveAgentFrame(sw *core.Switch, req, out []byte) []byte {
	mark := len(out)
	out = append(out, agentOK)
	fail := func(err error) []byte {
		return append(append(out[:mark], agentErr), err.Error()...)
	}
	if len(req) == 0 {
		return fail(errAgentFrame)
	}
	d := agentDec{b: req[1:]}
	var err error
	switch req[0] {
	case verbInstallKeys:
		keys := d.keys()
		if err = d.end(); err == nil {
			err = sw.InstallKeys(keys)
		}
	case verbRemoveKeys:
		keys := d.keys()
		if err = d.end(); err == nil {
			err = sw.RemoveKeys(keys)
		}
	case verbReadItems:
		keys := d.keys()
		if err = d.end(); err == nil {
			items, missing := sw.ReadItems(keys)
			if out, err = appendItems(out, items); err == nil {
				out = appendKeys(out, missing)
			}
		}
	case verbWriteItems:
		items := d.items()
		if err = d.end(); err == nil {
			err = sw.WriteItems(items)
		}
	case verbSetSession:
		group, session := d.u16(), d.u32()
		if err = d.end(); err == nil {
			sw.SetSession(group, session)
		}
	case verbFreezeWrites:
		group, frozen := d.u16(), d.u8()
		if err = d.end(); err == nil {
			sw.SetWriteFreeze(group, frozen != 0)
		}
	case verbInstallRule:
		dst, group := packet.Addr(d.u32()), int(int32(d.u32()))
		rule := core.Rule{Action: core.RuleAction(d.u8()), To: packet.Addr(d.u32())}
		if err = d.end(); err == nil {
			sw.InstallRule(dst, group, rule)
		}
	case verbRemoveRule:
		dst, group := packet.Addr(d.u32()), int(int32(d.u32()))
		if err = d.end(); err == nil {
			sw.RemoveRule(dst, group)
		}
	case verbKeys:
		if err = d.end(); err == nil {
			out = appendKeys(out, sw.Keys())
		}
	default:
		err = fmt.Errorf("%w: unknown verb %d", errAgentFrame, req[0])
	}
	if err != nil {
		return fail(err)
	}
	return out
}

// ServeAgent starts the control agent for a switch on bind and returns the
// listener address and a stop function. stop closes the listener and every
// accepted connection and returns once their goroutines have exited.
func ServeAgent(sw *core.Switch, bind string) (net.Addr, func() error, error) {
	return serveTCP(bind, func(conn net.Conn) { serveAgentConn(sw, conn) })
}

// serveAgentConn answers one connection's requests in order until the
// peer hangs up, the stream loses framing, or the server closes it.
func serveAgentConn(sw *core.Switch, conn net.Conn) {
	// Buffered so a frame's prefix and body cost one read syscall.
	r := bufio.NewReader(conn)
	var in, out []byte
	for {
		var err error
		if in, err = readAgentFrame(r, in); err != nil {
			return
		}
		out = serveAgentFrame(sw, in, append(out[:0], 0, 0, 0, 0))
		binary.BigEndian.PutUint32(out, uint32(len(out)-4))
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// tcpServer is a TCP listener and the connections accepted from it, all
// of which stop closes and waits out.
type tcpServer struct {
	ln     net.Listener
	handle func(net.Conn)

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup // accept loop + one per live connection
}

// serveTCP listens on bind and runs handle on each accepted connection,
// one goroutine per connection. It returns the listener address and a
// stop function that closes the listener and every accepted connection
// and returns once their goroutines have exited.
func serveTCP(bind string, handle func(net.Conn)) (net.Addr, func() error, error) {
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, nil, err
	}
	s := &tcpServer{ln: ln, handle: handle, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.accept()
	return ln.Addr(), s.stop, nil
}

// accept serves each connection on its own goroutine until the listener
// closes; a connection accepted after stop has run is closed unserved.
func (s *tcpServer) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		go s.serve(conn)
		s.mu.Unlock()
	}
}

func (s *tcpServer) serve(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	s.handle(conn)
}

func (s *tcpServer) stop() error {
	s.mu.Lock()
	s.closed = true
	err := s.ln.Close()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// ---------------------------------------------------------------------------
// Controller side.

// WireAgent is the controller's end of one switch's agent connection. It
// implements controller.Agent; calls from several goroutines serialize on
// the connection.
type WireAgent struct {
	conn net.Conn

	mu     sync.Mutex
	r      *bufio.Reader // over conn: a reply's prefix and body cost one read syscall
	buf    []byte        // the request frame, then the response frame
	broken error         // set once the stream has lost framing
}

var _ controller.Agent = (*WireAgent)(nil)

// DialAgent connects to a switch agent over TCP.
func DialAgent(addr string) (*WireAgent, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial agent %s: %w", addr, err)
	}
	return NewWireAgent(conn), nil
}

// NewWireAgent speaks the agent protocol over conn, a stream whose other
// end an agent serves; the WireAgent owns conn from here on.
func NewWireAgent(conn net.Conn) *WireAgent {
	return &WireAgent{conn: conn, r: bufio.NewReader(conn)}
}

// Close hangs up. A call in flight fails; so does every later one.
func (a *WireAgent) Close() error { return a.conn.Close() }

// begin locks the connection and starts a request frame.
func (a *WireAgent) begin(verb byte) {
	a.mu.Lock()
	a.buf = append(a.buf[:0], 0, 0, 0, 0, verb)
}

// finish sends the frame begin started, reads the reply into a.buf and
// returns its body, which is valid until the caller unlocks a.mu. A
// request the stream refused whole (no byte written) leaves the
// connection usable; a partial write or any read failure does not — the
// stream's framing is gone.
func (a *WireAgent) finish() ([]byte, error) {
	if a.broken != nil {
		return nil, a.broken
	}
	n := len(a.buf) - 4
	if n > maxAgentFrame {
		return nil, fmt.Errorf("transport: agent request of %d bytes exceeds the %d-byte frame bound", n, maxAgentFrame)
	}
	binary.BigEndian.PutUint32(a.buf, uint32(n))
	if w, err := a.conn.Write(a.buf); err != nil {
		if w > 0 {
			a.fail(err)
		}
		return nil, fmt.Errorf("transport: agent call: %w", err)
	}
	var err error
	if a.buf, err = readAgentFrame(a.r, a.buf); err != nil {
		a.fail(err)
		return nil, a.broken
	}
	switch body := a.buf[1:]; a.buf[0] {
	case agentOK:
		return body, nil
	case agentErr:
		return nil, fmt.Errorf("transport: agent: %s", body)
	default:
		a.fail(fmt.Errorf("%w: status %d", errAgentFrame, a.buf[0]))
		return nil, a.broken
	}
}

func (a *WireAgent) fail(err error) {
	a.broken = fmt.Errorf("transport: agent connection broken: %w", err)
	a.conn.Close()
}

// call finishes a request whose reply carries no body.
func (a *WireAgent) call() error {
	_, err := a.finish()
	return err
}

func (a *WireAgent) InstallKeys(keys []kv.Key) error {
	a.begin(verbInstallKeys)
	defer a.mu.Unlock()
	a.buf = appendKeys(a.buf, keys)
	return a.call()
}

func (a *WireAgent) RemoveKeys(keys []kv.Key) error {
	a.begin(verbRemoveKeys)
	defer a.mu.Unlock()
	a.buf = appendKeys(a.buf, keys)
	return a.call()
}

func (a *WireAgent) ReadItems(keys []kv.Key) ([]core.Item, []kv.Key, error) {
	a.begin(verbReadItems)
	defer a.mu.Unlock()
	a.buf = appendKeys(a.buf, keys)
	body, err := a.finish()
	if err != nil {
		return nil, nil, err
	}
	// The items' values outlive a.buf: decode from a copy.
	d := agentDec{b: append([]byte(nil), body...)}
	items, missing := d.items(), d.keys()
	if err := d.end(); err != nil {
		return nil, nil, err
	}
	return items, missing, nil
}

func (a *WireAgent) WriteItems(items []core.Item) error {
	a.begin(verbWriteItems)
	defer a.mu.Unlock()
	var err error
	if a.buf, err = appendItems(a.buf, items); err != nil {
		return err
	}
	return a.call()
}

func (a *WireAgent) SetSession(group uint16, session uint32) error {
	a.begin(verbSetSession)
	defer a.mu.Unlock()
	a.buf = binary.BigEndian.AppendUint16(a.buf, group)
	a.buf = binary.BigEndian.AppendUint32(a.buf, session)
	return a.call()
}

func (a *WireAgent) FreezeWrites(group uint16, frozen bool) error {
	a.begin(verbFreezeWrites)
	defer a.mu.Unlock()
	a.buf = binary.BigEndian.AppendUint16(a.buf, group)
	var f byte
	if frozen {
		f = 1
	}
	a.buf = append(a.buf, f)
	return a.call()
}

func (a *WireAgent) InstallRule(dst packet.Addr, group int, r core.Rule) error {
	a.begin(verbInstallRule)
	defer a.mu.Unlock()
	a.buf = binary.BigEndian.AppendUint32(a.buf, uint32(dst))
	a.buf = binary.BigEndian.AppendUint32(a.buf, uint32(int32(group)))
	a.buf = append(a.buf, byte(r.Action))
	a.buf = binary.BigEndian.AppendUint32(a.buf, uint32(r.To))
	return a.call()
}

func (a *WireAgent) RemoveRule(dst packet.Addr, group int) error {
	a.begin(verbRemoveRule)
	defer a.mu.Unlock()
	a.buf = binary.BigEndian.AppendUint32(a.buf, uint32(dst))
	a.buf = binary.BigEndian.AppendUint32(a.buf, uint32(int32(group)))
	return a.call()
}

func (a *WireAgent) Keys() ([]kv.Key, error) {
	a.begin(verbKeys)
	defer a.mu.Unlock()
	body, err := a.finish()
	if err != nil {
		return nil, err
	}
	d := agentDec{b: body}
	keys := d.keys()
	if err := d.end(); err != nil {
		return nil, err
	}
	return keys, nil
}
