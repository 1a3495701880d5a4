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
	"slices"
	"sync"
	"syscall"
	"time"

	"netchain/internal/controller"
	"netchain/internal/health"
	"netchain/internal/packet"
	"netchain/internal/relay"
	"netchain/internal/ring"
	"netchain/internal/telemetry"
	"netchain/internal/transport"
)

func main() {
	// The agent registry is mutable at runtime: add-switch registers a
	// switch while the controller is live (replacing, and hanging up on,
	// any agent it already had), and remove-switch unregisters the drained
	// one, which later failovers then no longer program. With -autopilot
	// the health monitor watches exactly the registered switches: a
	// drained switch powering off is retirement, not a failure.
	var agentMu sync.RWMutex
	agents := map[packet.Addr]*transport.WireAgent{}
	var mon *health.Monitor
	register := func(sw packet.Addr, agentAddr string) error {
		ag, err := transport.DialAgent(agentAddr)
		if err != nil {
			return err
		}
		agentMu.Lock()
		old := agents[sw]
		agents[sw] = ag
		agentMu.Unlock()
		if old != nil {
			old.Close()
		}
		if mon != nil {
			mon.Watch(sw)
		}
		return nil
	}
	unregister := func(sw packet.Addr) {
		agentMu.Lock()
		ag := agents[sw]
		delete(agents, sw)
		agentMu.Unlock()
		if ag != nil {
			ag.Close()
		}
		if mon != nil {
			mon.Forget(sw)
		}
	}
	// -switch and -spare register each switch as they parse.
	var memberAddrs, spareAddrs []packet.Addr
	switchFlag := func(into *[]packet.Addr) func(string) error {
		return func(spec string) error {
			va, agentAddr, err := packet.ParseMapping(spec)
			if err == nil {
				err = register(va, agentAddr)
			}
			if err == nil {
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

	if len(memberAddrs) < *replicas {
		fmt.Fprintf(os.Stderr, "need at least %d -switch members\n", *replicas)
		os.Exit(2)
	}

	r, err := ring.New(ring.Config{
		VNodesPerSwitch: *vnodes, Replicas: *replicas, Seed: 0x6e63,
	}, memberAddrs)
	if err != nil {
		log.Fatalf("netchain-controller: %v", err)
	}
	cfg := controller.DefaultConfig()
	cfg.SyncPerItem = 0 // the real agent channel takes real time
	ctl, err := controller.New(cfg, r, controller.WallClock{},
		func(a packet.Addr) (controller.Agent, bool) {
			agentMu.RLock()
			defer agentMu.RUnlock()
			ag, ok := agents[a]
			return ag, ok
		},
		func(failed packet.Addr) []packet.Addr {
			// On a flat deployment every live switch is programmed as a
			// "neighbor" — a safe superset of the physical neighbor set.
			agentMu.RLock()
			defer agentMu.RUnlock()
			var out []packet.Addr
			for a := range agents {
				if a != failed {
					out = append(out, a)
				}
			}
			return out
		})
	if err != nil {
		log.Fatalf("netchain-controller: %v", err)
	}

	// Metrics plane: components register into one registry as they come
	// up; -debug-addr exposes it (plus expvar and pprof) over HTTP.
	reg := telemetry.NewRegistry()
	var ap *controller.Autopilot

	// Self-healing: health monitor (heartbeats in, probes out), φ-accrual
	// detector, and the reconcile loop that repairs convicted switches.
	svc := &transport.ControllerService{Ctl: ctl, Register: register, Unregister: unregister}
	apLine := ""
	if *autopilot {
		mv, err := packet.ParseAddr(*monitorVaddr)
		if err != nil {
			log.Fatalf("netchain-controller: -monitor-vaddr: %v", err)
		}
		det := health.NewDetector(health.Config{HeartbeatEvery: *heartbeat})
		mon, err = health.NewMonitor(*healthBind, mv, det)
		if err != nil {
			log.Fatalf("netchain-controller: %v", err)
		}
		defer mon.Close()
		// Watch every known switch up front so one that dies (or was
		// misconfigured) before its first heartbeat still accrues
		// suspicion from silence and gets repaired.
		for _, sw := range slices.Concat(memberAddrs, spareAddrs) {
			mon.Watch(sw)
		}
		mon.StartProbes()
		mon.RegisterMetrics(reg)
		ap = controller.NewAutopilot(ctl, det, controller.WallClock{}, mon.Now,
			controller.AutopilotConfig{
				Spares:       spareAddrs,
				RepairBudget: *repairBudget,
			})
		ap.Start()
		svc.Health = func() transport.HealthReport {
			return transport.HealthReport{
				Switches: det.Snapshot(mon.Now()), Repairs: ap.History(), Demoted: ap.Demoted(),
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
		addr, len(memberAddrs), r.Groups(), *replicas, apLine, relayLine, dbgLine)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	stop()
}
