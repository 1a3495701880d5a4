package localcluster

import (
	"fmt"
	"testing"
	"time"

	"netchain/internal/faultconn"
	"netchain/internal/kv"
	"netchain/internal/netsim"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/transport"
)

// TestUnwatchedClusterPublishesNothing holds the publish rule: a tail
// publishes once its deployment has a watch plane. 1 000 writes on a
// cluster nobody watches send no event; after the first Subscribe, a write
// arrives as one.
func TestUnwatchedClusterPublishesNothing(t *testing.T) {
	cl, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ops, err := cl.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Client.Close()
	k := kv.KeyFromString("watched")
	if err := cl.Insert(k); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := ops.Write(k, kv.Value{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if st := cl.RelayStats(); st.EventsIn != 0 {
		t.Errorf("relay ingested %d events with no watch open", st.EventsIn)
	}
	for i := 0; i < cl.Switches(); i++ {
		n, _ := cl.node(i)
		if p := n.Stats().EventsPublished; p != 0 {
			t.Errorf("switch %d published %d events with no watch open", i, p)
		}
	}

	events := make(chan query.Event, 16)
	sub, err := cl.Subscribe(packet.AddrFrom4(10, 3, 0, 1), []uint16{cl.Controller().Route(k).Group},
		func(ev query.Event) { events <- ev })
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ver, err := ops.Write(k, kv.Value("after"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		if ev.Key != k || ev.Version != ver || string(ev.Value) != "after" {
			t.Errorf("event %+v, want key %v at %v holding \"after\"", ev, k, ver)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a write after Subscribe arrived as no event")
	}
}

// TestGatewayLedgerUnderKnownNemesis accounts for every frame a gateway
// took in. The client attaches through the spare switch, so every frame
// that switch receives came from the client; the nemesis drops and
// duplicates only on the client → gateway link, and blocking calls put one
// frame in each datagram. The gateway's frames-in must move by exactly the
// client's sends, less the injector's drops, plus its duplicates, and
// after Close the node law holds on every switch.
func TestGatewayLedgerUnderKnownNemesis(t *testing.T) {
	inj := faultconn.New(7)
	defer inj.Stop()
	cl, err := Start(Config{Faults: inj, ClientTimeout: 10 * time.Millisecond, ClientRetries: 20})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			cl.Close()
		}
	}()
	const spare = 3
	gw, err := cl.node(spare)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := cl.NewClient(spare)
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Client.Close()
	keys := make([]kv.Key, 8)
	for i := range keys {
		keys[i] = kv.KeyFromUint64(uint64(i))
		if err := cl.Insert(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	link := netsim.LinkChaos{A: packet.AddrFrom4(10, 1, 0, 1), B: gw.Switch().Addr(),
		F: netsim.LinkFault{Drop: 0.1, Dup: 0.1}}
	if err := inj.InjectFault(link); err != nil {
		t.Fatal(err)
	}
	in0 := gw.Switch().Stats().FramesIn
	for i := 0; i < 300; i++ {
		k := keys[i/2%len(keys)] // each read follows a write of its key
		var err error
		if i%2 == 0 {
			_, err = ops.Write(k, kv.Value{byte(i)})
		} else {
			_, _, err = ops.Read(k)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	sent, fs := ops.Client.Stats().Sent, inj.Stats()
	if fs.ChaosDrops == 0 || fs.DupCopies == 0 {
		t.Fatalf("the nemesis neither dropped nor duplicated: %+v", fs)
	}
	want := sent - fs.ChaosDrops + fs.DupCopies
	var got uint64
	// A duplicate trails its original; wait for the last one to land.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if got = gw.Switch().Stats().FramesIn - in0; got == want || time.Now().After(deadline) {
			break
		}
	}
	if got != want {
		t.Errorf("gateway took in %d frames, want sent %d - dropped %d + duplicated %d = %d",
			got, sent, fs.ChaosDrops, fs.DupCopies, want)
	}
	closed = true
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Ledgers(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleRouteWriteReachesJoiner: a write whose first attempt was built
// on the route of before a recovery, and reaches the head after the flip
// thawed it, is acknowledged by the old chain's tail, which the switch
// that joined as tail never saw. The client takes that ack for no answer
// (query.MissedJoiner) and sends the write again along the current chain,
// so the joiner holds it before the call returns and a read served by it
// is not stale. Without the rule the read returned "v1".
func TestStaleRouteWriteReachesJoiner(t *testing.T) {
	cl, err := Start(Config{ClientTimeout: 20 * time.Millisecond, ClientRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ops, err := cl.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Client.Close()
	victim, _ := cl.SwitchAddr(2)
	var k kv.Key
	for i := 0; ; i++ {
		k = kv.KeyFromString(fmt.Sprint("k", i))
		if rt := cl.Controller().Route(k); rt.Hops[len(rt.Hops)-1] == victim {
			break
		}
	}
	if err := cl.Insert(k); err != nil {
		t.Fatal(err)
	}
	if _, err := ops.Write(k, kv.Value("v1")); err != nil {
		t.Fatal(err)
	}
	if err := cl.FailSwitch(2); err != nil {
		t.Fatal(err)
	}
	stale := cl.Controller().Route(k)
	if err := cl.Recover(2, 3); err != nil {
		t.Fatal(err)
	}
	attempts := 0
	late := &transport.Ops{Client: ops.Client, Dir: func(k kv.Key) (query.Route, error) {
		if attempts++; attempts == 1 {
			return stale, nil
		}
		return cl.Controller().Route(k), nil
	}}
	if _, err := late.Write(k, kv.Value("v2")); err != nil {
		t.Fatalf("write on the route of before the recovery: %v", err)
	}
	if v, _, err := ops.Read(k); err != nil || string(v) != "v2" {
		t.Fatalf("read %q, %v after v2 was acknowledged", v, err)
	}
}
