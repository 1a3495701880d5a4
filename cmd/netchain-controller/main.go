// Command netchain-controller runs the NetChain control plane (§5): it
// owns the consistent-hash ring, allocates keys on chains (Insert),
// serves route lookups to clients, and performs fast failover, failure
// recovery and live add/remove-switch. It programs each switch over that
// switch's agent connection and serves clients (netchainctl) on -rpc; both
// speak the one framed binary control wire of internal/transport.
//
// Example:
//
//	netchain-controller -rpc 127.0.0.1:9200 \
//	  -switch 10.0.0.1=127.0.0.1:9101 -switch 10.0.0.2=127.0.0.1:9102 \
//	  -switch 10.0.0.3=127.0.0.1:9103 -spare 10.0.0.4=127.0.0.1:9104
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"netchain/internal/controller"
	"netchain/internal/health"
	"netchain/internal/packet"
	"netchain/internal/relay"
	"netchain/internal/telemetry"
	"netchain/internal/transport"
)

func main() {
	// The agent registry: -switch and -spare register switches as they
	// parse, add-switch and remove-switch change it live, and under
	// -autopilot the health monitor watches exactly its switches.
	var agents controller.Agents
	var memberAddrs, spareAddrs []packet.Addr
	switchFlag := func(into *[]packet.Addr) func(string) error {
		return func(spec string) error {
			va, agentAddr, err := packet.ParseMapping(spec)
			var ag *transport.WireAgent
			if err == nil {
				ag, err = transport.DialAgent(agentAddr)
			}
			if err == nil {
				agents.Set(va, ag)
				*into = append(*into, va)
			}
			return err
		}
	}

	rpcBind := flag.String("rpc", "127.0.0.1:9200", "TCP bind address for the client-facing controller service")
	replicas := flag.Int("replicas", 3, "chain length f+1")
	vnodes := flag.Int("vnodes", 100, "virtual nodes (groups) per switch")
	autopilot := flag.Bool("autopilot", false, "self-healing: φ-accrual failure detection over switch heartbeats + autonomous failover/recovery/demotion")
	healthBind := flag.String("health-udp", "127.0.0.1:9300", "UDP bind for the health monitor (switch heartbeats + probe echoes); netchaind -monitor points here")
	monitorVaddr := flag.String("monitor-vaddr", "10.255.0.1", "virtual NetChain address of the health monitor")
	heartbeat := flag.Duration("heartbeat", 100*time.Millisecond, "expected heartbeat cadence (must match netchaind -heartbeat)")
	repairBudget := flag.Int("repair-budget", 4, "max data-moving repairs (recover/demote/restore) per budget window")
	relayBind := flag.String("relay-udp", "", "UDP bind for the push-watch relay tier (empty = relay off); netchaind -relay points at the printed ingest endpoint, netchainctl watch at the control endpoint")
	relayVaddr := flag.String("relay-vaddr", "10.255.0.2", "virtual NetChain address of the relay")
	relayMcast := flag.Bool("relay-multicast", false, "fan events out over per-group UDP multicast instead of unicast leases (needs multicast routing to subscribers)")
	debugAddr := flag.String("debug-addr", "", "HTTP bind for the metrics plane: /metrics (Prometheus text), /debug/vars (expvar), /debug/pprof (empty = disabled)")
	flag.Func("switch", "ring member: virtual=agent host:port (repeatable)", switchFlag(&memberAddrs))
	flag.Func("spare", "spare switch: virtual=agent host:port (repeatable); the autopilot recovers failed switches onto these", switchFlag(&spareAddrs))
	flag.Parse()

	ctl, err := controller.NewLive(controller.DefaultConfig(), *vnodes, *replicas, memberAddrs, &agents)
	if err != nil {
		log.Fatalf("netchain-controller: %v", err)
	}

	// Metrics plane: components register into one registry as they come
	// up; -debug-addr exposes it (plus expvar and pprof) over HTTP.
	reg := telemetry.NewRegistry()
	var ap *controller.Autopilot

	// Self-healing: health monitor (heartbeats in, probes out), φ-accrual
	// detector, and the reconcile loop that repairs convicted switches.
	svc := &transport.ControllerService{Ctl: ctl, Agents: &agents,
		Dial: func(addr string) (controller.Agent, error) { return transport.DialAgent(addr) }}
	apLine := ""
	if *autopilot {
		mv, err := packet.ParseAddr(*monitorVaddr)
		if err != nil {
			log.Fatalf("netchain-controller: -monitor-vaddr: %v", err)
		}
		det := health.NewDetector(health.Config{HeartbeatEvery: *heartbeat})
		mon, err := transport.NewMonitor(*healthBind, mv, det)
		if err != nil {
			log.Fatalf("netchain-controller: %v", err)
		}
		defer mon.Close()
		agents.Follow(mon) // so a switch silent from boot still accrues suspicion
		mon.StartProbes()
		mon.RegisterMetrics(reg)
		ap = controller.NewAutopilot(ctl, det, mon.Clock(),
			controller.AutopilotConfig{
				Spares:       spareAddrs,
				RepairBudget: *repairBudget,
			})
		ap.Start()
		svc.Health = func() transport.HealthReport {
			return transport.HealthReport{
				Switches: det.Snapshot(mon.Clock().Now()), Repairs: ap.History(), Demoted: ap.Demoted(),
			}
		}
		apLine = fmt.Sprintf(", autopilot on (health %v, %d spares)",
			mon.Endpoint(), len(spareAddrs))
	}

	// Push-watch relay tier: tails publish one event per applied mutation
	// to the ingest endpoint; subscribers lease (or multicast-join) streams
	// via the control endpoint.
	relayLine := ""
	if *relayBind != "" {
		rv, err := packet.ParseAddr(*relayVaddr)
		if err != nil {
			log.Fatalf("netchain-controller: -relay-vaddr: %v", err)
		}
		mode := relay.ModeUnicast
		if *relayMcast {
			mode = relay.ModeMulticast
		}
		rs, err := relay.Start(relay.Config{Bind: *relayBind, Addr: rv, Mode: mode})
		if err != nil {
			log.Fatalf("netchain-controller: %v", err)
		}
		defer rs.Close()
		rs.RegisterMetrics(reg)
		relayLine = fmt.Sprintf(", relay %s ingest %v control %v",
			rs.Mode(), rs.IngestEndpoint(), rs.ControlEndpoint())
	}

	dbgLine := ""
	if *debugAddr != "" {
		controller.RegisterMetrics(reg, ctl, ap)
		srv, err := telemetry.Serve(*debugAddr, reg)
		if err != nil {
			log.Fatalf("netchain-controller: debug server: %v", err)
		}
		defer srv.Close()
		dbgLine = fmt.Sprintf(", metrics http://%s/metrics", srv.Addr)
	}

	addr, stop, err := transport.ServeControllerService(svc, *rpcBind)
	if err != nil {
		log.Fatalf("netchain-controller: %v", err)
	}
	fmt.Printf("netchain-controller: rpc %v, %d members, %d groups, replicas=%d%s%s%s\n",
		addr, len(memberAddrs), ctl.Ring().Groups(), *replicas, apLine, relayLine, dbgLine)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	stop()
}
