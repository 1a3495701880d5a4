//go:build unix

package transport

import (
	"net"
	"os"
	"syscall"
)

// streamPair returns the two ends of a connected AF_UNIX stream
// socketpair: the byte stream a loopback TCP connection carries, without
// the TCP stack's segments, acknowledgements and timers on every call.
func streamPair() (net.Conn, net.Conn, error) {
	// Under ForkLock, as the net package opens sockets where
	// SOCK_CLOEXEC is not portable: a concurrent exec must not inherit them.
	syscall.ForkLock.RLock()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err == nil {
		syscall.CloseOnExec(fds[0])
		syscall.CloseOnExec(fds[1])
	}
	syscall.ForkLock.RUnlock()
	if err != nil {
		return nil, nil, os.NewSyscallError("socketpair", err)
	}
	a, err := fileConn(fds[0])
	if err != nil {
		syscall.Close(fds[1])
		return nil, nil, err
	}
	b, err := fileConn(fds[1])
	if err != nil {
		a.Close()
		return nil, nil, err
	}
	return a, b, nil
}

// fileConn hands a socket descriptor to the runtime poller. net.FileConn
// works on a duplicate, so fd itself is closed either way.
func fileConn(fd int) (net.Conn, error) {
	f := os.NewFile(uintptr(fd), "agent-socketpair")
	defer f.Close()
	return net.FileConn(f)
}
