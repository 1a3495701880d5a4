package transport

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"netchain/internal/controller"
	"netchain/internal/core"
	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/ring"
	"netchain/internal/swsim"
)

// deployment spins a real-UDP NetChain on loopback: 4 switch nodes with
// RPC agents, a controller, and a client behind the S0 gateway.
type deployment struct {
	book    *AddressBook
	nodes   map[packet.Addr]*SwitchNode
	addrs   [4]packet.Addr
	agentAt [4]string // each switch's agent endpoint
	agents  *controller.Agents
	ring    *ring.Ring
	ctl     *controller.Controller
	ops     *Ops
}

func pipeCfg() swsim.Config {
	return swsim.Config{Stages: 8, SlotBytes: 16, SlotsPerStage: 4096, PPS: 1e9}
}

func newDeployment(t *testing.T) *deployment {
	t.Helper()
	d := &deployment{book: NewAddressBook(), nodes: map[packet.Addr]*SwitchNode{}, agents: &controller.Agents{}}
	for i := 0; i < 4; i++ {
		d.addrs[i] = packet.AddrFrom4(10, 0, 0, byte(i+1))
		sw, err := core.NewSwitch(d.addrs[i], pipeCfg())
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewSwitchNode(sw, d.book, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		d.nodes[d.addrs[i]] = node

		rpcAddr, stop, err := ServeAgent(sw, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { stop() })
		d.agentAt[i] = rpcAddr.String()
		agent, err := DialAgent(d.agentAt[i])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { agent.Close() })
		d.agents.Set(d.addrs[i], agent)
	}

	r, err := ring.New(ring.Config{VNodesPerSwitch: 4, Replicas: 3, Seed: 7},
		d.addrs[:3])
	if err != nil {
		t.Fatal(err)
	}
	d.ring = r

	cfg := controller.DefaultConfig()
	cfg.RuleDelay = time.Millisecond
	cfg.SyncPerItem = 0 // real RPC takes real time
	ctl, err := controller.New(cfg, r, event.NewWall(1), d.agents.Get, d.agents.Neighbors)
	if err != nil {
		t.Fatal(err)
	}
	d.ctl = ctl

	client, err := NewClient(d.book, ClientConfig{
		Addr:    packet.AddrFrom4(10, 1, 0, 1),
		Gateway: d.addrs[0],
		Bind:    "127.0.0.1:0",
		Timeout: 100 * time.Millisecond,
		Retries: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })

	d.ops = &Ops{Client: client, Dir: func(k kv.Key) (query.Route, error) {
		rt := ctl.Route(k)
		return query.Route{Group: rt.Group, Hops: rt.Hops}, nil
	}}
	return d
}

func TestRealUDPReadWriteDelete(t *testing.T) {
	d := newDeployment(t)
	k := kv.KeyFromString("cfg/real")
	if _, err := d.ctl.Insert(k); err != nil {
		t.Fatal(err)
	}
	ver, err := d.ops.Write(k, kv.Value("over-the-wire"))
	if err != nil {
		t.Fatal(err)
	}
	if ver.Seq != 1 {
		t.Fatalf("version = %v", ver)
	}
	v, rver, err := d.ops.Read(k)
	if err != nil || string(v) != "over-the-wire" || rver != ver {
		t.Fatalf("read = %q %v %v", v, rver, err)
	}
	if err := d.ops.Delete(k); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.ops.Read(k); err != kv.ErrNotFound {
		t.Fatalf("read after delete = %v", err)
	}
}

func TestRealUDPReadMissingKey(t *testing.T) {
	d := newDeployment(t)
	k := kv.KeyFromString("ghost")
	d.ctl.Insert(k)
	if _, _, err := d.ops.Read(k); err != kv.ErrNotFound {
		t.Fatalf("err = %v, want not found", err)
	}
}

func TestRealUDPLocks(t *testing.T) {
	d := newDeployment(t)
	lk := kv.KeyFromString("lock/udp")
	d.ctl.Insert(lk)
	ok, err := d.ops.Acquire(lk, 42)
	if err != nil || !ok {
		t.Fatalf("acquire: %v %v", ok, err)
	}
	// Idempotent retry.
	if ok, err = d.ops.Acquire(lk, 42); err != nil || !ok {
		t.Fatalf("re-acquire: %v %v", ok, err)
	}
	// Contender fails.
	if ok, _ = d.ops.Acquire(lk, 43); ok {
		t.Fatal("contender must not acquire")
	}
	if ok, _ = d.ops.Release(lk, 43); ok {
		t.Fatal("non-owner release must fail")
	}
	if ok, err = d.ops.Release(lk, 42); err != nil || !ok {
		t.Fatalf("release: %v %v", ok, err)
	}
	if ok, _ = d.ops.Acquire(lk, 43); !ok {
		t.Fatal("acquire after release must work")
	}
}

func TestRealUDPConcurrentClients(t *testing.T) {
	d := newDeployment(t)
	keys := make([]kv.Key, 8)
	for i := range keys {
		keys[i] = kv.KeyFromUint64(uint64(i))
		if _, err := d.ctl.Insert(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := keys[w]
			for i := 0; i < 8; i++ {
				want := fmt.Sprintf("w%d-%d", w, i)
				if _, err := d.ops.Write(k, kv.Value(want)); err != nil {
					errs <- fmt.Errorf("write %s: %w", want, err)
					return
				}
				got, _, err := d.ops.Read(k)
				if err != nil {
					errs <- fmt.Errorf("read %s: %w", want, err)
					return
				}
				if string(got) != want {
					errs <- fmt.Errorf("read %q, want %q", got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestRealUDPFailoverAndRecovery(t *testing.T) {
	d := newDeployment(t)
	keys := make([]kv.Key, 12)
	for i := range keys {
		keys[i] = kv.KeyFromUint64(uint64(100 + i))
		if _, err := d.ctl.Insert(keys[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ops.Write(keys[i], kv.Value(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Kill S1 (fail-stop: its socket goes away).
	s1 := d.addrs[1]
	if err := d.nodes[s1].Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	if err := d.ctl.HandleFailure(s1, func() { close(done) }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("failover did not complete")
	}

	// All keys must stay readable and writable (client retries bridge the
	// window; routes refresh per attempt).
	for i, k := range keys {
		if _, err := d.ops.Write(k, kv.Value(fmt.Sprintf("post-fail-%d", i))); err != nil {
			t.Fatalf("write %d after failover: %v", i, err)
		}
		v, _, err := d.ops.Read(k)
		if err != nil || string(v) != fmt.Sprintf("post-fail-%d", i) {
			t.Fatalf("read %d after failover: %q %v", i, v, err)
		}
	}

	// Recover onto S3.
	recovered := make(chan struct{})
	if err := d.ctl.Recover(s1, []packet.Addr{d.addrs[3]}, func() { close(recovered) }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-recovered:
	case <-time.After(10 * time.Second):
		t.Fatal("recovery did not complete")
	}

	// Chains are full strength again and avoid S1.
	for g, rt := range d.ctl.Routes() {
		if len(rt.Hops) != 3 {
			t.Fatalf("group %d not restored: %v", g, rt.Hops)
		}
		for _, h := range rt.Hops {
			if h == s1 {
				t.Fatalf("group %d still routes to dead switch", g)
			}
		}
	}
	// Data survives; writes keep flowing through the recovered chains.
	for i, k := range keys {
		v, _, err := d.ops.Read(k)
		if err != nil || string(v) != fmt.Sprintf("post-fail-%d", i) {
			t.Fatalf("read %d after recovery: %q %v", i, v, err)
		}
		if _, err := d.ops.Write(k, kv.Value("final")); err != nil {
			t.Fatalf("write %d after recovery: %v", i, err)
		}
	}
	// The replacement switch serves its share.
	if d.nodes[d.addrs[3]].Switch().ItemCount() == 0 {
		t.Fatal("replacement switch holds no state")
	}
}

// TestRealUDPScaleOutAndIn live-migrates a TCP-agent deployment onto a
// fourth switch, drains an original member, then fails another and
// readmits it, reading every key back through the UDP client after each
// step. With the failover test above it drives every agent verb over the
// framed wire from a real controller flow.
func TestRealUDPScaleOutAndIn(t *testing.T) {
	d := newDeployment(t)
	keys := make([]kv.Key, 64)
	want := func(i int) string { return fmt.Sprintf("v%d", i) }
	for i := range keys {
		keys[i] = kv.KeyFromUint64(uint64(500 + i))
		if _, err := d.ctl.Insert(keys[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ops.Write(keys[i], kv.Value(want(i))); err != nil {
			t.Fatal(err)
		}
	}
	readAll := func(when string) {
		t.Helper()
		for i, k := range keys {
			v, _, err := d.ops.Read(k)
			if err != nil || string(v) != want(i) {
				t.Fatalf("read %d %s: %q %v", i, when, v, err)
			}
		}
	}
	await := func(what string, run func(done func()) error) {
		t.Helper()
		done := make(chan struct{})
		if err := run(func() { close(done) }); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not complete", what)
		}
	}

	added := d.addrs[3]
	await("scale-out", func(done func()) error { _, err := d.ctl.AddSwitch(added, done); return err })
	if d.nodes[added].Switch().ItemCount() == 0 {
		t.Fatal("the added switch took over no keys")
	}
	readAll("after scale-out")

	drained := d.addrs[1]
	await("scale-in", func(done func()) error { _, err := d.ctl.RemoveSwitch(drained, done); return err })
	if n := d.nodes[drained].Switch().ItemCount(); n != 0 {
		t.Fatalf("the drained switch still holds %d items", n)
	}
	// Nothing may still route through the drained switch.
	if err := d.nodes[drained].Close(); err != nil {
		t.Fatal(err)
	}
	readAll("after scale-in")

	// Readmission: a member fails and the drained switch, booted again,
	// replaces it; then the failed one comes back with its stale replicas
	// and is added again. The controller scrubs what it still holds (Keys,
	// RemoveKeys) and lifts its neighbors' failover rules (RemoveRule)
	// before migrating groups onto it.
	reboot := func(a packet.Addr) {
		t.Helper()
		node, err := NewSwitchNode(d.nodes[a].Switch(), d.book, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		d.nodes[a] = node
	}
	back := d.addrs[2]
	if err := d.nodes[back].Close(); err != nil {
		t.Fatal(err)
	}
	await("failover", func(done func()) error { return d.ctl.HandleFailure(back, done) })
	reboot(drained)
	await("recovery", func(done func()) error { return d.ctl.Recover(back, []packet.Addr{drained}, done) })
	readAll("after recovery")
	reboot(back)
	await("readmission", func(done func()) error { _, err := d.ctl.AddSwitch(back, done); return err })
	readAll("after readmission")
	if n := d.ctl.AgentErrors(); n != 0 {
		t.Fatalf("%d agent calls failed", n)
	}
}

func TestAddressBook(t *testing.T) {
	b := NewAddressBook()
	if _, ok := b.Get(1); ok {
		t.Fatal("empty book must miss")
	}
	ep, _ := net.ResolveUDPAddr("udp", "127.0.0.1:1234")
	b.Set(1, ep)
	got, ok := b.Get(1)
	if !ok || got.Port != 1234 {
		t.Fatal("book round trip failed")
	}
}

func TestClientValidation(t *testing.T) {
	b := NewAddressBook()
	if _, err := NewClient(b, ClientConfig{Bind: "127.0.0.1:0"}); err == nil {
		t.Fatal("zero client addr must be rejected")
	}
}
