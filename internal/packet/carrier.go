package packet

import (
	"encoding/binary"
	"fmt"
)

// The carrier is the fixed 15-byte header in front of every NetChain
// header on the wire. It holds only the fields the protocol reads: the
// virtual IP source and destination (chain routing and replies), the
// virtual UDP ports (the NetChain port match and client, event and watch
// demux), the TTL (the transit loop guard) and the frame length (which
// splits back-to-back frames in one datagram):
//
//	src(4) dst(4) sport(2) dport(2) ttl(1) len(2)
//
// It has no checksum of its own: no socket in this module disables the
// UDP checksum, so the kernel's checksum covers the whole datagram,
// carrier included, on every path that can corrupt it.

// CarrierLen is the byte length of the carrier.
const CarrierLen = 4 + 4 + 2 + 2 + 1 + 2

// maxFrameLen is the largest frame the carrier's length field describes.
const maxFrameLen = 0xffff

// IP is a frame's virtual network addressing.
type IP struct {
	Src, Dst Addr
	TTL      uint8
}

// UDP is a frame's virtual port pair.
type UDP struct {
	SrcPort, DstPort uint16
}

// Serialize appends the complete frame to buf and returns it.
func (f *Frame) Serialize(buf []byte) ([]byte, error) {
	n := CarrierLen + f.NC.WireLen()
	if n > maxFrameLen {
		return nil, fmt.Errorf("packet: frame of %d bytes exceeds the %d-byte carrier limit", n, maxFrameLen)
	}
	var c [CarrierLen]byte
	binary.BigEndian.PutUint32(c[0:], uint32(f.IP.Src))
	binary.BigEndian.PutUint32(c[4:], uint32(f.IP.Dst))
	binary.BigEndian.PutUint16(c[8:], f.UDP.SrcPort)
	binary.BigEndian.PutUint16(c[10:], f.UDP.DstPort)
	c[12] = f.IP.TTL
	binary.BigEndian.PutUint16(c[13:], uint16(n))
	return f.NC.SerializeTo(append(buf, c[:]...))
}

// PeekAddrs reads the virtual IP source/destination out of a serialized
// frame without decoding it — a fault injector's partition matcher runs on
// every egress frame and cannot afford a parse.
func PeekAddrs(buf []byte) (src, dst Addr, ok bool) {
	if len(buf) < CarrierLen {
		return 0, 0, false
	}
	return Addr(binary.BigEndian.Uint32(buf[0:])), Addr(binary.BigEndian.Uint32(buf[4:])), true
}

// decode parses the frame at the front of data and returns its length.
// The carrier's length must be exactly the carrier plus the NetChain
// header it describes, so an accepted frame re-serializes to the bytes it
// was decoded from.
func (f *Frame) decode(data []byte) (int, error) {
	if len(data) < CarrierLen {
		return 0, fmt.Errorf("packet: carrier truncated: %d bytes", len(data))
	}
	f.IP.Src = Addr(binary.BigEndian.Uint32(data[0:]))
	f.IP.Dst = Addr(binary.BigEndian.Uint32(data[4:]))
	f.UDP.SrcPort = binary.BigEndian.Uint16(data[8:])
	f.UDP.DstPort = binary.BigEndian.Uint16(data[10:])
	f.IP.TTL = data[12]
	n := int(binary.BigEndian.Uint16(data[13:]))
	if n < CarrierLen || n > len(data) {
		return 0, fmt.Errorf("packet: frame length %d outside datagram of %d bytes", n, len(data))
	}
	if f.UDP.DstPort != Port && f.UDP.SrcPort != Port {
		return 0, fmt.Errorf("packet: neither UDP port is the NetChain port")
	}
	f.traceOwned = false // a decoded NC.Trace aliases data
	if err := f.NC.DecodeFromBytes(data[CarrierLen:n]); err != nil {
		return 0, err
	}
	if want := CarrierLen + f.NC.WireLen(); n != want {
		return 0, fmt.Errorf("packet: carrier length %d, but its netchain header makes %d", n, want)
	}
	return n, nil
}
