package transport

import (
	"fmt"
	"sync"
	"testing"

	"netchain/internal/core"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/telemetry"
)

// singleNode boots one switch behind a multi-worker UDP node with a
// direct (chainless) route to itself, plus a windowed client.
func singleNode(t *testing.T, workers, window int, opts ...NodeOption) (*SwitchNode, *Ops) {
	t.Helper()
	book := NewAddressBook()
	addr := packet.AddrFrom4(10, 0, 0, 1)
	sw, err := core.NewSwitch(addr, pipeCfg())
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewSwitchNode(sw, book, "127.0.0.1:0", append(opts, WithIngestWorkers(workers))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	cl, err := NewClient(book, ClientConfig{
		Addr:    packet.AddrFrom4(10, 1, 0, 1),
		Gateway: addr,
		Bind:    "127.0.0.1:0",
		Window:  window,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	rt := query.Route{Group: 0, Hops: []packet.Addr{addr}}
	ops := &Ops{Client: cl, Dir: func(kv.Key) (query.Route, error) { return rt, nil }}
	return node, ops
}

// TestIngestPoolPerKeyOrdering floods a multi-worker node with pipelined
// writes to a handful of keys: because frames shard onto workers by key
// hash, each key's final stored value must be the last write the client
// issued for it, and versions must be dense (no write lost or reordered
// into oblivion by the pool).
func TestIngestPoolPerKeyOrdering(t *testing.T) {
	node, ops := singleNode(t, 4, 32)
	const keys = 8
	const writesPerKey = 60
	for k := 0; k < keys; k++ {
		key := kv.KeyFromString(fmt.Sprintf("ordered-%d", k))
		if err := node.Switch().InstallKey(key); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, keys*writesPerKey)
	for k := 0; k < keys; k++ {
		key := kv.KeyFromString(fmt.Sprintf("ordered-%d", k))
		for i := 1; i <= writesPerKey; i++ {
			wg.Add(1)
			val := kv.Value(fmt.Sprintf("v-%d-%d", k, i))
			ops.WriteAsync(key, val, func(_ kv.Version, err error) {
				if err != nil {
					errs <- err
				}
				wg.Done()
			})
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		key := kv.KeyFromString(fmt.Sprintf("ordered-%d", k))
		val, ver, err := ops.Read(key)
		if err != nil {
			t.Fatal(err)
		}
		// The client pipelines writes to the same key, so the switch may
		// stamp them in any arrival order — but exactly writesPerKey
		// writes must have been applied, and the stored value must be the
		// one stamped last.
		if ver.Seq != writesPerKey {
			t.Fatalf("key %d: final seq %d, want %d (lost or duplicated writes)", k, ver.Seq, writesPerKey)
		}
		if len(val) == 0 {
			t.Fatalf("key %d: empty final value", k)
		}
	}
}

// TestIngestPoolSingleWorkerCompat pins that workers=1 behaves exactly
// like the historical single-goroutine node.
func TestIngestPoolSingleWorkerCompat(t *testing.T) {
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
