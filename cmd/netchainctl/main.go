// Command netchainctl is the NetChain command-line client: it resolves
// routes from the controller, then issues queries over UDP through a
// gateway switch (the client agent of §3, as a tool). Every verb but top
// opens one connection to the controller, on the framed binary control
// wire of internal/transport, and makes all its controller calls on it.
//
// Examples:
//
//	netchainctl -controller 127.0.0.1:9200 -gateway 10.0.0.1=127.0.0.1:9001 insert cfg/x
//	netchainctl ... put cfg/x '{"timeout": 30}'
//	netchainctl ... get cfg/x
//	netchainctl ... lock  locks/a 42
//	netchainctl ... unlock locks/a 42
//	netchainctl ... del cfg/x
//
// Streaming watches (needs the controller's relay tier, see
// netchain-controller -relay-udp):
//
//	netchainctl ... -relay 127.0.0.1:9401 watch cfg/x cfg/y
//
// Elastic membership and health (no -gateway needed; controller only):
//
//	netchainctl -controller 127.0.0.1:9200 add-switch 10.0.0.5=127.0.0.1:9105
//	netchainctl -controller 127.0.0.1:9200 remove-switch 10.0.0.2
//	netchainctl -controller 127.0.0.1:9200 cluster health
//
// Live metrics dashboard (scrapes the daemons' -debug-addr endpoints):
//
//	netchainctl -interval 1s top 127.0.0.1:9901 127.0.0.1:9902 127.0.0.1:9990
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/relay"
	"netchain/internal/transport"
	"netchain/internal/watch"
)

func main() {
	ctlAddr := flag.String("controller", "127.0.0.1:9200", "controller service address (netchain-controller -rpc)")
	gateway := flag.String("gateway", "", "gateway switch: virtual=real UDP endpoint (required)")
	clientAddr := flag.String("client", "10.1.0.1", "this client's virtual address")
	bind := flag.String("bind", ":0", "local UDP bind address; switches must map the client's virtual address to it")
	relayCtl := flag.String("relay", "", "relay control endpoint host:port (for the watch verb)")
	relayMcast := flag.Bool("relay-multicast", false, "receive watch events over multicast groups instead of a unicast lease")
	topInterval := flag.Duration("interval", time.Second, "refresh interval for the top verb")
	topSamples := flag.Int("samples", 0, "render this many frames then exit (top verb; 0 = until interrupted)")
	flag.Parse()
	args := flag.Args()

	// The top verb needs neither controller nor gateway — just the
	// -debug-addr metrics endpoints of the daemons to watch.
	if len(args) >= 1 && args[0] == "top" {
		if err := topLoop(args[1:], *topInterval, *topSamples); err != nil {
			log.Fatalf("top: %v", err)
		}
		return
	}
	if len(args) >= 1 && args[0] == "metrics-check" {
		if err := metricsCheck(args[1:]); err != nil {
			log.Fatalf("metrics-check: %v", err)
		}
		return
	}

	verb := ""
	if len(args) >= 1 {
		verb = args[0]
	}
	if verb == "cluster" && len(args) >= 2 && args[1] == "health" {
		verb = "cluster health"
	}
	admin := verb == "add-switch" || verb == "remove-switch" || verb == "cluster health"
	if !admin && (*gateway == "" || len(args) < 2) {
		fmt.Fprintln(os.Stderr, "usage: netchainctl -gateway V=HOST:PORT [flags] {get|put|del|insert|lock|unlock} KEY [VALUE|OWNER]")
		fmt.Fprintln(os.Stderr, "       netchainctl -controller HOST:PORT {add-switch V=AGENTHOST:PORT | remove-switch V}")
		fmt.Fprintln(os.Stderr, "       netchainctl -controller HOST:PORT cluster health")
		fmt.Fprintln(os.Stderr, "       netchainctl [-interval 1s] [-samples N] top DEBUGADDR...")
		os.Exit(2)
	}
	ctl, err := transport.DialController(*ctlAddr)
	if err != nil {
		log.Fatalf("netchainctl: %v", err)
	}
	defer ctl.Close()

	// Membership and health verbs only need the controller; handle them
	// before the UDP client plumbing.
	if admin {
		if err := adminVerb(ctl, verb, args[1:]); err != nil {
			log.Fatalf("%s: %v", verb, err)
		}
		return
	}

	gwVirt, gwHost, err := packet.ParseMapping(*gateway)
	if err != nil {
		log.Fatalf("netchainctl: -gateway: %v", err)
	}
	gwReal, err := net.ResolveUDPAddr("udp", gwHost)
	if err != nil {
		log.Fatalf("netchainctl: %v", err)
	}
	myAddr, err := packet.ParseAddr(*clientAddr)
	if err != nil {
		log.Fatalf("netchainctl: %v", err)
	}

	book := transport.NewAddressBook()
	book.Set(gwVirt, gwReal)
	client, err := transport.NewClient(book, transport.ClientConfig{
		Addr: myAddr, Gateway: gwVirt, Bind: *bind,
	})
	if err != nil {
		log.Fatalf("netchainctl: %v", err)
	}
	defer client.Close()
	ops := &transport.Ops{Client: client, Dir: ctl.Route}

	cmd, key := args[0], kv.KeyFromString(args[1])
	switch cmd {
	case "watch":
		var keys []kv.Key
		for _, a := range args[1:] {
			keys = append(keys, kv.KeyFromString(a))
		}
		if err := watchKeys(ops, *relayCtl, *relayMcast, keys); err != nil {
			log.Fatalf("watch: %v", err)
		}
	case "get":
		v, ver, err := ops.Read(key)
		if err != nil {
			log.Fatalf("get: %v", err)
		}
		fmt.Printf("%s (version %v)\n", v, ver)
	case "put":
		if len(args) < 3 {
			log.Fatal("put needs a value")
		}
		ver, err := ops.Write(key, kv.Value(args[2]))
		if err != nil {
			log.Fatalf("put: %v", err)
		}
		fmt.Printf("ok (version %v)\n", ver)
	case "del":
		if err := ops.Delete(key); err != nil {
			log.Fatalf("del: %v", err)
		}
		fmt.Println("ok")
	case "insert":
		// Insert goes through the controller (§4.1): allocate the slot,
		// then the key is writable.
		rt, err := ctl.Insert(key)
		if err != nil {
			log.Fatalf("insert: %v", err)
		}
		fmt.Printf("ok (chain %v)\n", rt.Hops)
	case "lock", "unlock":
		if len(args) < 3 {
			log.Fatalf("%s needs an owner id", cmd)
		}
		owner, err := strconv.ParseUint(args[2], 10, 64)
		if err != nil || owner == 0 {
			log.Fatalf("%s: owner must be a non-zero integer", cmd)
		}
		var ok bool
		if cmd == "lock" {
			ok, err = ops.Acquire(key, owner)
		} else {
			ok, err = ops.Release(key, owner)
		}
		if err != nil {
			log.Fatalf("%s: %v", cmd, err)
		}
		fmt.Println(map[bool]string{true: "ok", false: "denied"}[ok])
	default:
		log.Fatalf("unknown command %q", cmd)
	}
}

// adminVerb runs a membership or health verb. add-switch takes
// "virtual=agentHost:port" (the controller dials the new switch's agent);
// remove-switch takes just the virtual address and blocks until the drain
// completes; cluster health prints the controller's detector snapshot and
// autopilot repair history (the controller must run with -autopilot).
func adminVerb(ctl *transport.ControllerClient, verb string, args []string) error {
	if verb == "cluster health" {
		text, err := ctl.ClusterHealth()
		fmt.Print(text)
		return err
	}
	if len(args) < 1 {
		return fmt.Errorf("needs a switch argument")
	}
	var n int
	if verb == "add-switch" {
		va, agentAddr, err := packet.ParseMapping(args[0])
		if err != nil {
			return err
		}
		if n, err = ctl.AddSwitch(va, agentAddr); err != nil {
			return err
		}
	} else {
		va, err := packet.ParseAddr(args[0])
		if err != nil {
			return err
		}
		if n, err = ctl.RemoveSwitch(va); err != nil {
			return err
		}
	}
	fmt.Printf("migrated %d virtual groups\nok\n", n)
	return nil
}

// watchKeys streams push events for keys to stdout until SIGINT: it
// subscribes the watched virtual groups at the relay, resynchronizes on
// stream gaps with linearizable reads, and runs a slow anti-entropy sweep
// to bound the staleness of a lost final event.
func watchKeys(ops *transport.Ops, relayCtl string, mcast bool, keys []kv.Key) error {
	if relayCtl == "" {
		return fmt.Errorf("the watch verb needs -relay (the controller prints the control endpoint)")
	}
	ctlEp, err := net.ResolveUDPAddr("udp", relayCtl)
	if err != nil {
		return err
	}
	sub := watch.NewSub(keys, func(k kv.Key) uint16 {
		rt, derr := ops.Dir(k)
		if derr != nil {
			return 0
		}
		return rt.Group
	}, 256)
	f := watch.NewFollower(sub, event.NewWall(1), watch.Serial(ops.Read))
	mode := relay.ModeUnicast
	if mcast {
		mode = relay.ModeMulticast
	}
	conn, err := relay.Subscribe(mode, ctlEp, sub.Groups(), f.Deliver)
	if err != nil {
		sub.Close()
		return err
	}
	defer conn.Close()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	f.Start(context.Background(), 200*time.Millisecond, 10*time.Second, nil)
	context.AfterFunc(ctx, f.Close)
	for ev := range sub.Events() { // closes once the follower stops
		switch ev.Type {
		case watch.Deleted:
			fmt.Printf("%-8s %s (version %v)\n", "DELETED", ev.Key, ev.Version)
		case watch.Created:
			fmt.Printf("%-8s %s = %s (version %v)\n", "CREATED", ev.Key, ev.Value, ev.Version)
		default:
			fmt.Printf("%-8s %s = %s (version %v)\n", "UPDATED", ev.Key, ev.Value, ev.Version)
		}
	}
	return nil
}
