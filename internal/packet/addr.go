// Package packet implements the NetChain wire format of Fig. 2(b): a
// fixed 15-byte carrier (virtual IP source and destination, UDP ports,
// TTL and frame length) followed by the custom NetChain header (OP, SEQ,
// SESSION, KEY, VALUE, SC and the chain IP list). On a switch ASIC the
// carrier's fields are the packet's real IPv4 and UDP headers; here the
// real headers belong to the kernel socket that carries each datagram, so
// the carrier holds the virtual ones and nothing the protocol never reads.
//
// The codec follows the gopacket DecodingLayer discipline: decoding
// parses into a preallocated struct without retaining the input slice for
// header fields, and serializing appends into a caller-provided buffer, so
// steady-state encode/decode performs no allocation.
package packet

import (
	"fmt"
	"net/netip"
	"strings"
)

// Addr is an IPv4 address in host integer form. Switches, hosts and the
// controller are all identified by an Addr; the underlay routes on it.
type Addr uint32

// AddrFrom4 builds an Addr from four octets a.b.c.d.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses dotted-quad text into an Addr.
func ParseAddr(s string) (Addr, error) {
	ip, err := netip.ParseAddr(s)
	if err != nil {
		return 0, fmt.Errorf("packet: parse addr %q: %w", s, err)
	}
	if !ip.Is4() {
		return 0, fmt.Errorf("packet: addr %q is not IPv4", s)
	}
	b := ip.As4()
	return AddrFrom4(b[0], b[1], b[2], b[3]), nil
}

// ParseMapping parses a "virtual=host:port" spec — the form every CLI
// flag that maps a virtual address onto a real endpoint takes — into the
// virtual address and the endpoint text, which it leaves unresolved.
func ParseMapping(spec string) (Addr, string, error) {
	virt, hostport, ok := strings.Cut(spec, "=")
	if !ok || hostport == "" {
		return 0, "", fmt.Errorf("packet: %q is not virtual=host:port", spec)
	}
	a, err := ParseAddr(virt)
	if err != nil {
		return 0, "", err
	}
	return a, hostport, nil
}

// MustParseAddr is ParseAddr that panics on error; for tests and tables.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Octets returns the four dotted-quad octets.
func (a Addr) Octets() [4]byte {
	return [4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}
}

func (a Addr) String() string {
	o := a.Octets()
	return fmt.Sprintf("%d.%d.%d.%d", o[0], o[1], o[2], o[3])
}

// IsZero reports whether a is the unspecified address.
func (a Addr) IsZero() bool { return a == 0 }

// IsMulticast reports whether a is an IPv4 class-D (multicast) address —
// the watch relay's fan-out groups live in this range, and the simulator
// replicates frames addressed to one toward every joined member.
func (a Addr) IsMulticast() bool { return byte(a>>24)&0xf0 == 0xe0 }
