//go:build linux

package transport

import (
	"net"
	"testing"
)

// TestMmsgBatchSyscallsDoNotAllocate: a recvmmsg that finds a datagram and
// a one-message sendmmsg allocate nothing — every seed write, reply and
// relay event passes through them.
func TestMmsgBatchSyscallsDoNotAllocate(t *testing.T) {
	from, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer from.Close()
	to, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer to.Close()
	snd, ok := newPlatformBatchSender(from).(*mmsgSender)
	if !ok {
		t.Skip("no sendmmsg on this architecture")
	}
	ring := newRecvRing(1) // one datagram per read: each read drains one send
	rd, ok := newPlatformBatchReader(to, ring).(*mmsgReader)
	if !ok {
		t.Fatal("no recvmmsg reader on linux")
	}
	buf := []byte("netchain")
	msg := []outFrame{{buf: &buf, ep: to.LocalAddr().(*net.UDPAddr)}}

	const runs = 50 // AllocsPerRun adds one warm-up call: runs+1 datagrams
	sends := testing.AllocsPerRun(runs, func() {
		if failed := snd.WriteBatch(msg); failed != 0 {
			t.Fatalf("%d messages not sent", failed)
		}
	})
	reads := testing.AllocsPerRun(runs, func() {
		if n, err := rd.ReadBatch(ring); n != 1 || err != nil || ring.sizes[0] != len(buf) {
			t.Fatalf("ReadBatch = %d, %v (size %d)", n, err, ring.sizes[0])
		}
	})
	if sends != 0 || reads != 0 {
		t.Fatalf("allocations per call: WriteBatch %.1f, ReadBatch %.1f; want 0", sends, reads)
	}
}
