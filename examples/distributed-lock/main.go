// Distributed-lock: the fast-locking use case of §1 — in-memory
// transaction systems need to take and release locks at microsecond
// timescales. Workers contend for one exclusive lock through NetChain
// compare-and-swap queries, and the example reports the lock-op latency.
// Every holder runs a critical section that a second, simultaneous holder
// would corrupt, so the run also checks mutual exclusion. The comparison
// with a ZooKeeper-style server-based lock service is the Fig. 11 row
// (go run ./cmd/benchrunner -exp fig11, backed by internal/zab).
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netchain"
)

func main() {
	if err := run(os.Stdout, 4, 200); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer, workers, opsPerWorker int) error {
	fmt.Fprintln(out, "== NetChain CAS locks (software chain over UDP) ==")
	granted, counter, lat, err := runNetChain(workers, opsPerWorker)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "lock/unlock round trips: %d, mean latency %v\n", workers*opsPerWorker, lat)
	fmt.Fprintf(out, "granted acquires: %d, critical-section counter: %d (must be equal)\n", granted, counter)
	if granted == 0 {
		return fmt.Errorf("no acquire was granted")
	}
	if counter != granted {
		return fmt.Errorf("mutual exclusion violated: %d granted acquires left the counter at %d", granted, counter)
	}
	return nil
}

// runNetChain contends workers on one lock via CAS. Each holder increments
// a shared counter as a non-atomic read-yield-write, so two overlapping
// holders lose an increment. It returns the granted acquires, the final
// counter and the mean acquire latency.
func runNetChain(workers, opsPerWorker int) (granted, counter int64, mean time.Duration, err error) {
	cluster, err := netchain.StartLocalCluster(netchain.ClusterConfig{})
	if err != nil {
		return 0, 0, 0, err
	}
	defer cluster.Close()
	lock := netchain.KeyFromString("locks/hot")
	if err := cluster.Insert(lock); err != nil {
		return 0, 0, 0, err
	}

	var grants, shared atomic.Int64
	var total atomic.Int64 // nanoseconds across acquires
	var wg sync.WaitGroup
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(owner uint64) {
			defer wg.Done()
			client, err := cluster.NewClient(0)
			if err != nil {
				log.Print(err)
				return
			}
			defer client.Close()
			for i := 0; i < opsPerWorker; i++ {
				start := time.Now()
				ok, err := client.Acquire(lock, owner)
				total.Add(int64(time.Since(start)))
				if err != nil || !ok {
					continue // contended: try again
				}
				grants.Add(1)
				v := shared.Load()
				runtime.Gosched()
				shared.Store(v + 1)
				if _, err := client.Release(lock, owner); err != nil {
					log.Print(err)
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	return grants.Load(), shared.Load(), time.Duration(total.Load() / int64(workers*opsPerWorker)), nil
}
