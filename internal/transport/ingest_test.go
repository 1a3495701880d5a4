package transport

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"netchain/internal/core"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/telemetry"
)

// singleNode boots one switch behind a UDP node with the given number of
// ingest sockets and a direct (chainless) route to itself, plus a
// windowed client.
func singleNode(t *testing.T, sockets, window int, opts ...NodeOption) (*SwitchNode, *Ops) {
	t.Helper()
	book := NewAddressBook()
	addr := packet.AddrFrom4(10, 0, 0, 1)
	sw, err := core.NewSwitch(addr, pipeCfg())
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewSwitchNode(sw, book, "127.0.0.1:0", append(opts, WithIngestSockets(sockets))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	return node, nodeClient(t, node, 1, window)
}

// nodeClient attaches one more windowed client, 10.1.0.host, to a
// singleNode switch.
func nodeClient(t *testing.T, node *SwitchNode, host byte, window int) *Ops {
	t.Helper()
	addr := node.sw.Addr()
	cl, err := NewClient(node.book, ClientConfig{
		Addr:    packet.AddrFrom4(10, 1, 0, host),
		Gateway: addr,
		Bind:    "127.0.0.1:0",
		Window:  window,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	rt := query.Route{Group: 0, Hops: []packet.Addr{addr}}
	return &Ops{Client: cl, Dir: func(kv.Key) (query.Route, error) { return rt, nil }}
}

// TestIngestPerKeyOrderingAcrossSockets floods a four-socket node with
// pipelined writes to a handful of keys from two clients, whose flows the
// kernel may hash onto different ingest sockets: every write is handled on
// the goroutine that read it, under the node's mutation lock, so each
// key's version must count exactly the writes made to it (none lost or
// stamped twice) and every write must be acknowledged.
func TestIngestPerKeyOrderingAcrossSockets(t *testing.T) {
	node, first := singleNode(t, 4, 32)
	clients := []*Ops{first, nodeClient(t, node, 2, 32)}
	const keys = 8
	const writesPerKey = 60 // per client
	for k := 0; k < keys; k++ {
		key := kv.KeyFromString(fmt.Sprintf("ordered-%d", k))
		if err := node.Switch().InstallKey(key); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(clients)*keys*writesPerKey)
	for c, ops := range clients {
		wg.Add(1)
		go func(c int, ops *Ops) {
			defer wg.Done()
			var inflight sync.WaitGroup
			for k := 0; k < keys; k++ {
				key := kv.KeyFromString(fmt.Sprintf("ordered-%d", k))
				for i := 1; i <= writesPerKey; i++ {
					inflight.Add(1)
					val := kv.Value(fmt.Sprintf("v-%d-%d-%d", c, k, i))
					ops.WriteAsync(key, val, func(_ kv.Version, err error) {
						if err != nil {
							errs <- err
						}
						inflight.Done()
					})
				}
			}
			inflight.Wait()
		}(c, ops)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		key := kv.KeyFromString(fmt.Sprintf("ordered-%d", k))
		val, ver, err := first.Read(key)
		if err != nil {
			t.Fatal(err)
		}
		// The clients pipeline writes to the same key, so the switch may
		// stamp them in any arrival order — but exactly one version per
		// write must have been applied, and the stored value must be the
		// one stamped last.
		if want := uint64(len(clients) * writesPerKey); ver.Seq != want {
			t.Fatalf("key %d: final seq %d, want %d (lost or duplicated writes)", k, ver.Seq, want)
		}
		if len(val) == 0 {
			t.Fatalf("key %d: empty final value", k)
		}
	}
}

// TestIngestSingleSocketSerialWrites pins the one-socket node (the
// benchmark's configuration and the only one without SO_REUSEPORT):
// blocking writes apply in issue order and the last one is what reads see.
func TestIngestSingleSocketSerialWrites(t *testing.T) {
	node, ops := singleNode(t, 1, 0)
	key := kv.KeyFromString("solo")
	if err := node.Switch().InstallKey(key); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		if _, err := ops.Write(key, kv.Value(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	val, ver, err := ops.Read(key)
	if err != nil {
		t.Fatal(err)
	}
	if ver.Seq != 20 || string(val) != "v20" {
		t.Fatalf("got %q @ %v, want v20 @ seq 20", val, ver)
	}
}

// TestNodeMetricsReportWhatTheSwitchStores: the two storage gauges come
// straight from the switch — items is the match-table count, register
// bytes is the paged register file's resident size, which moves with the
// keys installed, not with the configured slot count.
func TestNodeMetricsReportWhatTheSwitchStores(t *testing.T) {
	node, _ := singleNode(t, 1, 1)
	reg := telemetry.NewRegistry()
	node.RegisterMetrics(reg)
	scrape := func() (items, regBytes float64) {
		t.Helper()
		got := map[string]telemetry.Sample{}
		for _, s := range reg.Snapshot() {
			got[s.Name] = s
		}
		for _, name := range []string{telemetry.SwitchItems, telemetry.SwitchRegisterBytes} {
			if s, ok := got[name]; !ok || s.Kind != telemetry.KindGauge {
				t.Fatalf("%s: present=%v kind=%v, want a gauge", name, ok, s.Kind)
			}
		}
		return got[telemetry.SwitchItems].Value, got[telemetry.SwitchRegisterBytes].Value
	}
	items, idle := scrape()
	if items != 0 || idle != float64(node.Switch().ResidentBytes()) {
		t.Fatalf("idle node: items=%v register_bytes=%v, switch says 0 and %d", items, idle, node.Switch().ResidentBytes())
	}
	for i := 0; i < 10; i++ {
		if err := node.Switch().InstallKey(kv.KeyFromUint64(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	items, stored := scrape()
	if items != 10 || stored <= idle || stored != float64(node.Switch().ResidentBytes()) {
		t.Fatalf("10 keys: items=%v register_bytes=%v (idle %v), switch says %d B", items, stored, idle, node.Switch().ResidentBytes())
	}
}

// TestNodeCountsUnroutableReplies: a read from a source the address book
// does not know is served, but its reply has nowhere to go; the node
// counts the drop as NoRoute instead of dropping it without a trace.
func TestNodeCountsUnroutableReplies(t *testing.T) {
	node, _ := singleNode(t, 1, 1)
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	stranger := query.Endpoint{Addr: packet.AddrFrom4(10, 9, 9, 9), Port: packet.Port}
	f, err := query.NewRead(stranger, 1, query.Route{Hops: []packet.Addr{node.sw.Addr()}}, kv.KeyFromString("k"))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := f.Serialize(nil)
	packet.PutFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if st := node.Stats(); st.NoRoute != 0 {
		t.Fatalf("NoRoute = %d before any traffic", st.NoRoute)
	}
	if _, err := conn.WriteToUDP(buf, node.Endpoint()); err != nil {
		t.Fatal(err)
	}
	waitForStat(t, func() uint64 { return node.Stats().NoRoute }, 1)
	if st := node.Stats(); st.NoRoute != 1 || st.Processed != 1 || st.EncodeErrors != 0 {
		t.Fatalf("noRoute=%d processed=%d encodeErrors=%d, want 1, 1 and 0", st.NoRoute, st.Processed, st.EncodeErrors)
	}
}
