package netchain

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCrossSocketWritesKeepStampOrder pins the switch node's mutation
// invariant: a mutation's output is queued before that of any mutation
// stamped after it, and leaves in queue order. With several SO_REUSEPORT
// sockets per node, writes to one key from different clients are handled
// on different ingest goroutines; the node-wide mutation lock, held from
// the stamp to the enqueue on the one shared mutation egress, is what
// makes them reach the next chain hop in the order the head stamped them.
// Without it, the replica applies the newer write, drops the older as
// stale, and its client sits out a retry timeout — so the test demands
// that every write is acknowledged without a single retry and that each
// key's sequence number counts exactly the writes made to it.
func TestCrossSocketWritesKeepStampOrder(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("needs SO_REUSEPORT ingest sockets")
	}
	if testing.Short() {
		t.Skip("live-UDP cluster run")
	}
	const clients, writesPerClient = 4, 20000
	cluster, err := StartLocalCluster(ClusterConfig{
		Switches: 4, Replicas: 3, ClientWindow: 32, IngestSockets: 4,
		ClientTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	keys := [2]Key{KeyFromString("order-a"), KeyFromString("order-b")}
	for _, k := range keys {
		if err := cluster.Insert(k); err != nil {
			t.Fatal(err)
		}
	}

	var acked, failed atomic.Int64
	var wg sync.WaitGroup
	cls := make([]*Client, clients)
	for i := range cls {
		// Gateways differ so that, whichever switch heads a key's chain,
		// its writes come in both straight from client sockets and relayed
		// by other switches.
		if cls[i], err = cluster.NewClient(i % 3); err != nil {
			t.Fatal(err)
		}
		defer cls[i].Close()
	}
	for i, cl := range cls {
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			var inflight sync.WaitGroup
			for n := 0; n < writesPerClient; n++ {
				inflight.Add(1)
				cl.WriteAsync(keys[n%2], Value(fmt.Sprintf("c%d-%d", i, n)), func(_ Version, err error) {
					if err != nil {
						failed.Add(1)
					} else {
						acked.Add(1)
					}
					inflight.Done()
				})
			}
			inflight.Wait()
		}(i, cl)
	}
	wg.Wait()

	if got := acked.Load(); got != clients*writesPerClient || failed.Load() != 0 {
		t.Fatalf("%d writes acknowledged, %d failed, want %d and 0", got, failed.Load(), clients*writesPerClient)
	}
	var retries, timeouts uint64
	for _, cl := range cls {
		st := cl.TransportStats()
		retries += st.Retries
		timeouts += st.Timeouts
	}
	if retries != 0 || timeouts != 0 {
		t.Fatalf("%d retries, %d timeouts: same-key writes left a switch out of stamp order", retries, timeouts)
	}
	for _, k := range keys {
		_, ver, err := cls[0].Read(k)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(clients * writesPerClient / 2); ver.Seq != want {
			t.Errorf("key %v ended at seq %d, want %d (one per write)", k, ver.Seq, want)
		}
	}
}
