// The control channels between processes — controller↔switch agent (the
// paper's controller spoke xmlrpc to a per-switch Python agent, §7) and
// client↔controller — are one length-prefixed binary protocol, one TCP
// connection per peer: ServeAgent/DialAgent and
// ServeControllerService/DialController. A controller that shares a
// process with its switches skips the wire and programs them through
// controller.LocalAgent. All integers are big-endian.
//
//	request:  u32 len | u8 verb   | body
//	response: u32 len | u8 status | body
//
// len counts the verb/status byte plus the body and must lie in
// [1, maxAgentFrame]; a prefix outside that range is a framing error that
// closes the connection, never an allocation. status 0 is success, status 1
// an error whose body is the message text. The two servers share one verb
// space, so a client that dialled the wrong one gets "unknown verb".
//
//	key   = 16 bytes
//	item  = key | session u32 | seq u64 | flags u8 (bit 0: tombstone) | vlen u16 | value
//	keys  = u32 n | n × key
//	items = u32 n | n × item
//	route = group u16 | u32 n | n × addr u32
//
//	verb              request body                               success body
//	switch agent:
//	 1 InstallKeys    keys                                       —
//	 2 RemoveKeys     keys                                       —
//	 3 ReadItems      keys                                       items found | keys missing
//	 4 WriteItems     items                                      —
//	 5 SetSession     group u16 | session u32                    —
//	 6 FreezeWrites   group u16 | frozen u8                      —
//	 7 InstallRule    dst u32 | group i32 | action u8 | to u32   —
//	 8 RemoveRule     dst u32 | group i32                        —
//	 9 Keys           —                                          keys
//	controller:
//	10 RouteFor       key                                        route
//	11 Insert         key                                        route
//	12 GC             key                                        —
//	13 AddSwitch      switch u32 | u16 n | n bytes agent address groups migrated u32
//	14 RemoveSwitch   switch u32                                 groups migrated u32
//	15 ClusterHealth  —                                          the health report as text
//
// One request is in flight per connection: the client holds a mutex from
// the first request byte to the last response byte, and the server decodes,
// executes and answers each frame on the connection's own goroutine — no
// request ids, no per-call goroutine, no reflection. Every agent state verb
// is a batch, so a verb is one round trip however many keys it names.
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
	"netchain/internal/query"
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
	verbRouteFor
	verbInsert
	verbGC
	verbAddSwitch
	verbRemoveSwitch
	verbClusterHealth
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

var errAgentFrame = errors.New("transport: malformed control frame")

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

func appendRoute(b []byte, rt query.Route) []byte {
	b = binary.BigEndian.AppendUint16(b, rt.Group)
	b = binary.BigEndian.AppendUint32(b, uint32(len(rt.Hops)))
	for _, h := range rt.Hops {
		b = binary.BigEndian.AppendUint32(b, uint32(h))
	}
	return b
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

// zeros is what a poisoned decoder reads as an integer.
var zeros [8]byte

// fixed takes n ≤ 8 bytes for an integer, or n zero bytes once poisoned.
func (d *agentDec) fixed(n int) []byte {
	if b := d.take(n); b != nil {
		return b
	}
	return zeros[:n]
}

func (d *agentDec) u8() byte    { return d.fixed(1)[0] }
func (d *agentDec) u16() uint16 { return binary.BigEndian.Uint16(d.fixed(2)) }
func (d *agentDec) u32() uint32 { return binary.BigEndian.Uint32(d.fixed(4)) }
func (d *agentDec) u64() uint64 { return binary.BigEndian.Uint64(d.fixed(8)) }

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

func (d *agentDec) key() (k kv.Key) {
	copy(k[:], d.take(kv.KeySize))
	return k
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

// str reads a u16-length-prefixed string.
func (d *agentDec) str() string {
	return string(d.take(int(d.u16())))
}

func (d *agentDec) route() query.Route {
	rt := query.Route{Group: d.u16()}
	n := d.count(4)
	if n == 0 {
		return rt
	}
	rt.Hops = make([]packet.Addr, n)
	for i := range rt.Hops {
		rt.Hops[i] = packet.Addr(d.u32())
	}
	return rt
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
// Serving side.

// A verbFunc executes one request — its verb, and its body in d — and
// appends the success body to out. It checks d.end() before acting, so a
// malformed request changes nothing. On error the response carries the
// error alone, whatever was appended to out.
type verbFunc func(verb byte, d *agentDec, out []byte) ([]byte, error)

// answer executes one request frame with exec and appends the response
// frame (status byte plus body) to out.
func answer(req, out []byte, exec verbFunc) []byte {
	mark := len(out)
	var err error = errAgentFrame // an empty frame names no verb
	if len(req) > 0 {
		out, err = exec(req[0], &agentDec{b: req[1:]}, append(out, agentOK))
	}
	if err != nil {
		return append(append(out[:mark], agentErr), err.Error()...)
	}
	return out
}

// tcpServer is a TCP listener and the connections accepted from it, all
// of which stop closes and waits out.
type tcpServer struct {
	ln   net.Listener
	exec verbFunc

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup // accept loop + one per live connection
}

// serveTCP listens on bind and answers each accepted connection's request
// frames with exec, one goroutine per connection. It returns the listener
// address and a stop function that closes the listener and every accepted
// connection and returns once their goroutines have exited.
func serveTCP(bind string, exec verbFunc) (net.Addr, func() error, error) {
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, nil, err
	}
	s := &tcpServer{ln: ln, exec: exec, conns: make(map[net.Conn]struct{})}
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

// serve answers one connection's requests in order until the peer hangs
// up, the stream loses framing, or stop closes it.
func (s *tcpServer) serve(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	// Buffered so a frame's prefix and body cost one read syscall.
	r := bufio.NewReader(conn)
	var in, out []byte
	for {
		var err error
		if in, err = readAgentFrame(r, in); err != nil {
			return
		}
		out = answer(in, append(out[:0], 0, 0, 0, 0), s.exec)
		binary.BigEndian.PutUint32(out, uint32(len(out)-4))
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
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
// Agent side.

// ServeAgent starts the control agent for a switch on bind and returns the
// listener address and a stop function. stop closes the listener and every
// accepted connection and returns once their goroutines have exited.
func ServeAgent(sw *core.Switch, bind string) (net.Addr, func() error, error) {
	return serveTCP(bind, agentVerbs(sw))
}

// agentVerbs executes the agent verbs against sw.
func agentVerbs(sw *core.Switch) verbFunc {
	return func(verb byte, d *agentDec, out []byte) ([]byte, error) {
		var err error
		switch verb {
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
			err = fmt.Errorf("%w: unknown verb %d", errAgentFrame, verb)
		}
		return out, err
	}
}

// ---------------------------------------------------------------------------
// Calling side.

// wireConn is the calling end of one framed stream: begin starts a request
// frame, call sends it and reads the response back into buf. WireAgent and
// ControllerClient each wrap one; calls from several goroutines serialize
// on mu.
type wireConn struct {
	conn net.Conn
	peer string // "agent" or "controller", for error texts

	mu     sync.Mutex
	r      *bufio.Reader // over conn: a reply's prefix and body cost one read syscall
	buf    []byte        // the request frame, then the response frame
	broken error         // set once the stream has lost framing
}

func newWireConn(conn net.Conn, peer string) *wireConn {
	return &wireConn{conn: conn, peer: peer, r: bufio.NewReader(conn)}
}

// dialWire connects to a peer's control endpoint over TCP.
func dialWire(addr, peer string) (*wireConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s %s: %w", peer, addr, err)
	}
	return newWireConn(conn, peer), nil
}

// Close hangs up. A call in flight fails; so does every later one.
func (c *wireConn) Close() error { return c.conn.Close() }

// begin locks the connection and returns a request frame for verb to
// append the body to and hand to call.
func (c *wireConn) begin(verb byte) []byte {
	c.mu.Lock()
	return append(c.buf[:0], 0, 0, 0, 0, verb)
}

// call sends frame, reads the reply, runs decode (if set) over its body
// and unlocks the connection. decode must not retain the body: it is the
// connection's buffer.
func (c *wireConn) call(frame []byte, decode func(*agentDec)) error {
	defer c.mu.Unlock()
	c.buf = frame
	body, err := c.finish()
	if err != nil || decode == nil {
		return err
	}
	d := agentDec{b: body}
	decode(&d)
	return d.end()
}

// finish sends c.buf and returns the reply's body. A request the stream
// refused whole (no byte written) leaves the connection usable; a partial
// write or any read failure does not — the stream's framing is gone.
func (c *wireConn) finish() ([]byte, error) {
	if c.broken != nil {
		return nil, c.broken
	}
	n := len(c.buf) - 4
	if n > maxAgentFrame {
		return nil, fmt.Errorf("transport: %s request of %d bytes exceeds the %d-byte frame bound", c.peer, n, maxAgentFrame)
	}
	binary.BigEndian.PutUint32(c.buf, uint32(n))
	if w, err := c.conn.Write(c.buf); err != nil {
		if w > 0 {
			c.fail(err)
		}
		return nil, fmt.Errorf("transport: %s call: %w", c.peer, err)
	}
	var err error
	if c.buf, err = readAgentFrame(c.r, c.buf); err != nil {
		c.fail(err)
		return nil, c.broken
	}
	switch body := c.buf[1:]; c.buf[0] {
	case agentOK:
		return body, nil
	case agentErr:
		return nil, fmt.Errorf("transport: %s: %s", c.peer, body)
	default:
		c.fail(fmt.Errorf("%w: status %d", errAgentFrame, c.buf[0]))
		return nil, c.broken
	}
}

func (c *wireConn) fail(err error) {
	c.broken = fmt.Errorf("transport: %s connection broken: %w", c.peer, err)
	c.conn.Close()
}

// ---------------------------------------------------------------------------
// Controller side of the agent channel.

// WireAgent is the controller's end of one switch's agent connection. It
// implements controller.Agent; calls from several goroutines serialize on
// the connection.
type WireAgent struct{ *wireConn }

var _ controller.Agent = (*WireAgent)(nil)

// DialAgent connects to a switch agent over TCP.
func DialAgent(addr string) (*WireAgent, error) {
	c, err := dialWire(addr, "agent")
	if err != nil {
		return nil, err
	}
	return &WireAgent{c}, nil
}

// NewWireAgent speaks the agent protocol over conn, a stream whose other
// end an agent serves; the WireAgent owns conn from here on.
func NewWireAgent(conn net.Conn) *WireAgent { return &WireAgent{newWireConn(conn, "agent")} }

func (a *WireAgent) InstallKeys(keys []kv.Key) error {
	return a.call(appendKeys(a.begin(verbInstallKeys), keys), nil)
}

func (a *WireAgent) RemoveKeys(keys []kv.Key) error {
	return a.call(appendKeys(a.begin(verbRemoveKeys), keys), nil)
}

func (a *WireAgent) ReadItems(keys []kv.Key) (items []core.Item, missing []kv.Key, err error) {
	err = a.call(appendKeys(a.begin(verbReadItems), keys), func(d *agentDec) {
		d.b = slices.Clone(d.b) // the items' values outlive the buffer
		items, missing = d.items(), d.keys()
	})
	return items, missing, err
}

func (a *WireAgent) WriteItems(items []core.Item) error {
	b, err := appendItems(a.begin(verbWriteItems), items)
	if err != nil {
		a.mu.Unlock()
		return err
	}
	return a.call(b, nil)
}

func (a *WireAgent) SetSession(group uint16, session uint32) error {
	b := binary.BigEndian.AppendUint16(a.begin(verbSetSession), group)
	return a.call(binary.BigEndian.AppendUint32(b, session), nil)
}

func (a *WireAgent) FreezeWrites(group uint16, frozen bool) error {
	var f byte
	if frozen {
		f = 1
	}
	return a.call(append(binary.BigEndian.AppendUint16(a.begin(verbFreezeWrites), group), f), nil)
}

func (a *WireAgent) InstallRule(dst packet.Addr, group int, r core.Rule) error {
	b := binary.BigEndian.AppendUint32(a.begin(verbInstallRule), uint32(dst))
	b = binary.BigEndian.AppendUint32(b, uint32(int32(group)))
	b = append(b, byte(r.Action))
	return a.call(binary.BigEndian.AppendUint32(b, uint32(r.To)), nil)
}

func (a *WireAgent) RemoveRule(dst packet.Addr, group int) error {
	b := binary.BigEndian.AppendUint32(a.begin(verbRemoveRule), uint32(dst))
	return a.call(binary.BigEndian.AppendUint32(b, uint32(int32(group))), nil)
}

func (a *WireAgent) Keys() (keys []kv.Key, err error) {
	err = a.call(a.begin(verbKeys), func(d *agentDec) { keys = d.keys() })
	return keys, err
}
