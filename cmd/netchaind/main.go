// Command netchaind runs one NetChain software switch: the dataplane
// behind a UDP socket plus the control-plane agent behind a TCP socket
// (the paper's per-switch agent, §7; the -rpc flag keeps its name, the
// protocol is transport's framed binary agent channel).
//
// The address book maps virtual NetChain addresses to real endpoints;
// every node of a deployment must share the same book.
//
// Example (three chain switches on one machine):
//
//	netchaind -addr 10.0.0.1 -udp 127.0.0.1:9001 -rpc 127.0.0.1:9101 \
//	   -peer 10.0.0.2=127.0.0.1:9002 -peer 10.0.0.3=127.0.0.1:9003
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"netchain/internal/core"
	"netchain/internal/packet"
	"netchain/internal/swsim"
	"netchain/internal/telemetry"
	"netchain/internal/transport"
)

func main() {
	addrFlag := flag.String("addr", "", "virtual NetChain address of this switch, e.g. 10.0.0.1 (required)")
	udpBind := flag.String("udp", "127.0.0.1:0", "UDP bind address for the dataplane")
	rpcBind := flag.String("rpc", "127.0.0.1:0", "TCP bind address for the control-plane agent")
	slots := flag.Int("slots", 65536, "key slots per stage (the paper's Tofino profile uses 64K)")
	sockets := flag.Int("sockets", 0, "SO_REUSEPORT ingest sockets sharing the port, each handling the frames it reads (0 = one per core, capped at 4; Linux only)")
	batch := flag.Int("batch", 0, "datagrams drained per ingest syscall (0 = 32)")
	monitor := flag.String("monitor", "", "health monitor: virtual=host:port — the switch emits heartbeats there and routes probe replies to it")
	heartbeat := flag.Duration("heartbeat", 100*time.Millisecond, "heartbeat cadence when -monitor is set")
	relayFlag := flag.String("relay", "", "push-watch relay ingest: virtual=host:port — every applied mutation this switch commits publishes one event frame there")
	debugAddr := flag.String("debug-addr", "", "HTTP bind for the metrics plane: /metrics (Prometheus text), /debug/vars (expvar), /debug/pprof (empty = disabled)")
	book := transport.NewAddressBook()
	flag.Func("peer", "virtual=real UDP endpoint of a peer (repeatable), e.g. 10.0.0.2=127.0.0.1:9002", func(spec string) error {
		va, ep, err := udpMapping(spec)
		if err == nil {
			book.Set(va, ep)
		}
		return err
	})
	flag.Parse()

	if *addrFlag == "" {
		flag.Usage()
		os.Exit(2)
	}
	vaddr, err := packet.ParseAddr(*addrFlag)
	if err != nil {
		log.Fatalf("netchaind: %v", err)
	}
	cfg := swsim.Tofino()
	cfg.SlotsPerStage = *slots

	sw, err := core.NewSwitch(vaddr, cfg)
	if err != nil {
		log.Fatalf("netchaind: %v", err)
	}

	node, err := transport.NewSwitchNode(sw, book, *udpBind,
		transport.WithIngestSockets(*sockets),
		transport.WithRecvBatch(*batch))
	if err != nil {
		log.Fatalf("netchaind: %v", err)
	}
	rpcAddr, stopRPC, err := transport.ServeAgent(sw, *rpcBind)
	if err != nil {
		log.Fatalf("netchaind: %v", err)
	}
	hb := ""
	if *monitor != "" {
		mv, mep, err := udpMapping(*monitor)
		if err != nil {
			log.Fatalf("netchaind: -monitor: %v", err)
		}
		book.Set(mv, mep) // probe replies route back through the book
		if err := node.StartHeartbeats(mv, *heartbeat); err != nil {
			log.Fatalf("netchaind: %v", err)
		}
		hb = fmt.Sprintf(", heartbeats to %v every %v", mv, *heartbeat)
	}
	ev := ""
	if *relayFlag != "" {
		rv, rep, err := udpMapping(*relayFlag)
		if err != nil {
			log.Fatalf("netchaind: -relay: %v", err)
		}
		node.SetEventSink(rv, rep)
		ev = fmt.Sprintf(", events to %v (%v)", rv, rep)
	}
	dbg := ""
	if *debugAddr != "" {
		reg := telemetry.NewRegistry()
		node.RegisterMetrics(reg)
		srv, err := telemetry.Serve(*debugAddr, reg)
		if err != nil {
			log.Fatalf("netchaind: debug server: %v", err)
		}
		defer srv.Close()
		dbg = fmt.Sprintf(", metrics http://%s/metrics", srv.Addr)
	}
	fmt.Printf("netchaind %v: dataplane %v, agent %v, %d slots/stage%s%s%s\n",
		vaddr, node.Endpoint(), rpcAddr, *slots, hb, ev, dbg)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	stopRPC()
	node.Close()
}

// udpMapping parses a virtual=host:port flag value and resolves its
// endpoint.
func udpMapping(spec string) (packet.Addr, *net.UDPAddr, error) {
	va, hostport, err := packet.ParseMapping(spec)
	if err != nil {
		return 0, nil, err
	}
	ep, err := net.ResolveUDPAddr("udp", hostport)
	return va, ep, err
}
