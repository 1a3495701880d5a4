//go:build !linux

package transport

import (
	"fmt"
	"net"
)

// Non-Linux platforms keep the portable one-datagram-per-syscall loop:
// newBatchReader/newBatchSender fall back to portableReader/Sender, and
// ingest runs on a single shared socket (without SO_REUSEPORT flow
// pinning, multiple readers on one socket would interleave a client's
// datagrams and break per-key write ordering).

func newPlatformBatchReader(*net.UDPConn, *recvRing) batchReader { return nil }

func newPlatformBatchSender(*net.UDPConn) batchSender { return nil }

// reusePortSupported gates multi-socket ingest sharding.
const reusePortSupported = false

func listenReusePort(string) (*net.UDPConn, error) {
	return nil, fmt.Errorf("transport: SO_REUSEPORT sharding requires linux")
}

// effectiveRcvBuf is unavailable portably; 0 means unknown.
func effectiveRcvBuf(*net.UDPConn) int { return 0 }
