//go:build linux

package transport

import (
	"context"
	"net"
	"syscall"
	"unsafe"
)

// Linux fast path: recvmmsg/sendmmsg straight through the stdlib syscall
// package (no cgo, no external modules), integrated with the runtime
// netpoller via syscall.RawConn — MSG_DONTWAIT plus RawConn.Read/Write
// retries is exactly how golang.org/x/net drives the same syscalls. One
// recvmmsg drains up to a full receive ring of datagrams; one sendmmsg
// flushes a burst of datagrams to arbitrary destinations.

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-filled
// datagram length. Go's trailing struct padding matches the C layout on
// both 32-bit (size 32) and 64-bit (size 64) Linux, so a []mmsghdr has
// the stride recvmmsg expects.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
}

// mmsgReader drives recvmmsg for one socket. The iovecs are armed once,
// pointing at the ring's fixed slots; every ReadBatch is then a single
// syscall with no per-datagram setup and, as RawConn.Read gets the method
// value recv built once, no allocation.
type mmsgReader struct {
	conn *net.UDPConn
	rc   syscall.RawConn
	hdrs []mmsghdr
	iovs []syscall.Iovec
	recv func(fd uintptr) bool // r.recvmmsg, which fills n or err
	n    int
	err  error
}

func newPlatformBatchReader(conn *net.UDPConn, ring *recvRing) batchReader {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil // fall back to the portable loop
	}
	r := &mmsgReader{
		conn: conn,
		rc:   rc,
		hdrs: make([]mmsghdr, len(ring.bufs)),
		iovs: make([]syscall.Iovec, len(ring.bufs)),
	}
	r.recv = r.recvmmsg
	for i := range ring.bufs {
		r.iovs[i].Base = &ring.bufs[i][0]
		r.iovs[i].SetLen(recvSlotBytes)
		// Source addresses are not collected (Name stays nil): ReadBatch
		// callers route by the frame's own NetChain addressing.
		r.hdrs[i].hdr.Iov = &r.iovs[i]
		r.hdrs[i].hdr.Iovlen = 1
	}
	return r
}

func (r *mmsgReader) ReadBatch(ring *recvRing) (int, error) {
	r.n, r.err = 0, nil
	if err := r.rc.Read(r.recv); err != nil {
		return 0, err
	}
	if r.err != nil {
		return 0, r.err
	}
	for i := 0; i < r.n; i++ {
		ring.sizes[i] = int(r.hdrs[i].n)
	}
	return r.n, nil
}

// recvmmsg is one RawConn.Read attempt; false waits for readability.
func (r *mmsgReader) recvmmsg(fd uintptr) bool {
	for {
		rn, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&r.hdrs[0])), uintptr(len(r.hdrs)),
			syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case 0:
			r.n = int(rn)
			return true
		case syscall.EAGAIN:
			return false
		case syscall.EINTR:
			continue
		default:
			r.err = e
			return true
		}
	}
}

// sockaddrBuf is a pre-converted destination: a raw sockaddr sized for
// either family, built once per endpoint (the AddressBook hands out
// stable *net.UDPAddr pointers, so pointer-keyed caching is exact).
type sockaddrBuf struct {
	raw syscall.RawSockaddrInet6
	len uint32
}

// mmsgSender drives sendmmsg for one socket; as in mmsgReader, a
// WriteBatch allocates nothing.
type mmsgSender struct {
	conn *net.UDPConn
	rc   syscall.RawConn
	v6   bool // socket family: v4 destinations need mapping on a v6 socket
	hdrs []mmsghdr
	iovs []syscall.Iovec
	sas  map[*net.UDPAddr]*sockaddrBuf
	send func(fd uintptr) bool // s.sendmmsg: sends hdrs[sent:n] or sets err
	n    int
	sent int
	err  error
}

func newPlatformBatchSender(conn *net.UDPConn) batchSender {
	if sysSendmmsg == 0 {
		return nil // arch without a known sendmmsg number: portable egress
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	la, _ := conn.LocalAddr().(*net.UDPAddr)
	s := &mmsgSender{
		conn: conn,
		rc:   rc,
		v6:   la != nil && la.IP.To4() == nil,
		hdrs: make([]mmsghdr, sendBatchMsgs),
		iovs: make([]syscall.Iovec, sendBatchMsgs),
		sas:  make(map[*net.UDPAddr]*sockaddrBuf),
	}
	s.send = s.sendmmsg
	return s
}

func (s *mmsgSender) sockaddrFor(ep *net.UDPAddr) *sockaddrBuf {
	if sb, ok := s.sas[ep]; ok {
		return sb
	}
	sb := &sockaddrBuf{}
	if ip4 := ep.IP.To4(); ip4 != nil && !s.v6 {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&sb.raw))
		sa.Family = syscall.AF_INET
		copy(sa.Addr[:], ip4)
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		p[0], p[1] = byte(ep.Port>>8), byte(ep.Port) // network byte order
		sb.len = syscall.SizeofSockaddrInet4
	} else {
		sb.raw.Family = syscall.AF_INET6
		copy(sb.raw.Addr[:], ep.IP.To16()) // v4 maps to ::ffff:a.b.c.d
		p := (*[2]byte)(unsafe.Pointer(&sb.raw.Port))
		p[0], p[1] = byte(ep.Port>>8), byte(ep.Port)
		sb.len = syscall.SizeofSockaddrInet6
	}
	s.sas[ep] = sb
	return sb
}

func (s *mmsgSender) WriteBatch(msgs []outFrame) (failed int) {
	for len(msgs) > 0 {
		n := len(msgs)
		if n > len(s.hdrs) {
			n = len(s.hdrs)
		}
		for i := 0; i < n; i++ {
			buf := *msgs[i].buf
			s.iovs[i].Base = &buf[0]
			s.iovs[i].SetLen(len(buf))
			sb := s.sockaddrFor(msgs[i].ep)
			h := &s.hdrs[i]
			h.hdr.Name = (*byte)(unsafe.Pointer(&sb.raw))
			h.hdr.Namelen = sb.len
			h.hdr.Iov = &s.iovs[i]
			h.hdr.Iovlen = 1
		}
		s.n, s.sent, s.err = n, 0, nil
		err := s.rc.Write(s.send)
		sent := s.sent
		if err != nil {
			return failed + len(msgs) - sent // socket closed
		}
		if s.err != nil {
			// sendmmsg only errors when the FIRST unsent message fails
			// (e.g. EMSGSIZE, or a cached ICMP refusal for one
			// destination). Skip that message — UDP semantics: it's loss —
			// and keep the batch moving rather than sinking everything
			// behind it.
			sent++
			failed++
		}
		msgs = msgs[sent:]
	}
	return failed
}

// sendmmsg is one RawConn.Write attempt; false waits for writability.
func (s *mmsgSender) sendmmsg(fd uintptr) bool {
	for s.sent < s.n {
		rn, _, e := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&s.hdrs[s.sent])), uintptr(s.n-s.sent),
			syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case 0:
			s.sent += int(rn)
		case syscall.EAGAIN:
			return false
		case syscall.EINTR:
		default:
			s.err = e
			return true
		}
	}
	return true
}

// soReusePort is SO_REUSEPORT, absent from the stdlib syscall constants.
const soReusePort = 0xf

// reusePortSupported gates multi-socket ingest sharding.
const reusePortSupported = true

// listenReusePort binds a UDP socket with SO_REUSEPORT set before bind,
// so several sockets can share one port and the kernel shards flows
// across them (per-4-tuple hashing: one client's datagrams always land
// on the same socket, preserving per-flow arrival order).
func listenReusePort(bind string) (*net.UDPConn, error) {
	lc := net.ListenConfig{Control: func(network, address string, c syscall.RawConn) error {
		var serr error
		if err := c.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
		}); err != nil {
			return err
		}
		return serr
	}}
	pc, err := lc.ListenPacket(context.Background(), "udp", bind)
	if err != nil {
		return nil, err
	}
	return pc.(*net.UDPConn), nil
}

// effectiveRcvBuf reads back the kernel's actual SO_RCVBUF for conn.
// Linux reports double the usable value it granted (bookkeeping
// overhead), so a result below the requested size always means the
// request was clamped by net.core.rmem_max. Returns 0 when unreadable.
func effectiveRcvBuf(conn *net.UDPConn) int {
	rc, err := conn.SyscallConn()
	if err != nil {
		return 0
	}
	eff := 0
	_ = rc.Control(func(fd uintptr) {
		if v, err := syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF); err == nil {
			eff = v
		}
	})
	return eff
}
