//go:build !unix

package transport

import "net"

// streamPair returns the two ends of a loopback TCP connection: without
// AF_UNIX socketpairs, PairAgent keeps the stream ServeAgent and DialAgent
// use.
func streamPair() (net.Conn, net.Conn, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	b, err := ln.Accept()
	if err != nil {
		a.Close()
		return nil, nil, err
	}
	return a, b, nil
}
