package experiments

import (
	"fmt"
	"time"

	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/lock"
	"netchain/internal/simclient"
	"netchain/internal/workload"
	"netchain/internal/zab"
)

// Fig11Opts parameterizes the §8.5 distributed-transactions experiment:
// two-phase locking, ten locks per transaction (one hot), contention
// index sweeping the hot-set size.
type Fig11Opts struct {
	ContentionIndexes []float64     // default {0.001, 0.01, 0.1, 1}
	Clients           []int         // default {1, 10, 100}
	ColdKeys          int           // default 2000
	NetChainWindow    time.Duration // default 30 ms simulated
	ZKWindow          time.Duration // default 2 s simulated
}

func (o *Fig11Opts) defaults() {
	if len(o.ContentionIndexes) == 0 {
		o.ContentionIndexes = []float64{0.001, 0.01, 0.1, 1}
	}
	if len(o.Clients) == 0 {
		o.Clients = []int{1, 10, 100}
	}
	if o.ColdKeys == 0 {
		o.ColdKeys = 2000
	}
	if o.NetChainWindow == 0 {
		o.NetChainWindow = 30 * time.Millisecond
	}
	if o.ZKWindow == 0 {
		o.ZKWindow = 2 * time.Second
	}
}

// Fig11 reproduces the transaction throughput comparison: NetChain CAS
// locks vs baseline ephemeral-node locks, across contention indexes and
// client counts. Shape targets: orders-of-magnitude gap between the
// systems; throughput falls as contention rises; the 100-client line
// converges toward (or below) the 1-client line at contention index 1.
func Fig11(o Fig11Opts) (*Figure, error) {
	o.defaults()
	f := &Figure{
		ID: "fig11", Title: "Transaction throughput vs contention index",
		XLabel: "contention", YLabel: "txn/s",
		PaperNote: "NetChain ~10⁴ (1 client) to ~10⁶ (100 clients, low contention); " +
			"ZooKeeper orders of magnitude lower; both fall as contention rises",
	}
	for _, ci := range o.ContentionIndexes {
		for _, clients := range o.Clients {
			nc, err := fig11NetChain(o, ci, clients)
			if err != nil {
				return nil, err
			}
			f.Add(fmt.Sprintf("NetChain (%d clients)", clients), ci, nc)
			zk, err := fig11ZK(o, ci, clients)
			if err != nil {
				return nil, err
			}
			f.Add(fmt.Sprintf("ZooKeeper (%d clients)", clients), ci, zk)
		}
	}
	return f, nil
}

func fig11NetChain(o Fig11Opts, ci float64, clients int) (float64, error) {
	d, err := NewDeployment(FabricOpts{Scale: 1}) // true rates: lock latency matters
	if err != nil {
		return 0, err
	}
	dir := d.Directory()
	return fig11Txns(d.Sim, o.NetChainWindow, ci, clients, o.ColdKeys,
		func(k kv.Key) error {
			_, err := d.Ctl.Insert(k)
			return err
		},
		func(i int) (lock.Service, error) {
			cl, err := d.Muxes[i%len(d.Muxes)].NewClient(simclient.DefaultConfig(), dir)
			return lock.NetChainLocks{Client: cl}, err
		})
}

func fig11ZK(o Fig11Opts, ci float64, clients int) (float64, error) {
	sim := event.New()
	cfg := zab.DefaultConfig()
	cfg.Seed = figSeed
	cl, err := zab.NewCluster(sim, cfg)
	if err != nil {
		return 0, err
	}
	return fig11Txns(sim, o.ZKWindow, ci, clients, o.ColdKeys,
		func(kv.Key) error { return nil },
		func(int) (lock.Service, error) { return lock.ZabLocks{Cluster: cl}, nil })
}

// fig11Txns runs clients two-phase-locking executors for window over one
// system: insert makes each lock key exist, locks gives client i its lock
// service. It returns committed transactions per second.
func fig11Txns(sim *event.Sim, window time.Duration, ci float64, clients, coldKeys int,
	insert func(kv.Key) error, locks func(i int) (lock.Service, error)) (float64, error) {
	wl0, err := workload.NewTxnWorkload(ci, coldKeys, figSeed)
	if err != nil {
		return 0, err
	}
	keys := make([]kv.Key, wl0.TotalKeys())
	for i := range keys {
		keys[i] = kv.KeyFromUint64(uint64(i))
		if err := insert(keys[i]); err != nil {
			return 0, err
		}
	}
	execs := make([]*lock.Executor, clients)
	for i := range execs {
		l, err := locks(i)
		if err != nil {
			return 0, err
		}
		wl, err := workload.NewTxnWorkload(ci, coldKeys, figSeed+int64(i))
		if err != nil {
			return 0, err
		}
		cfg := lock.DefaultExecutorConfig() // §6's 100 µs in-memory transactions
		cfg.Seed = int64(i)
		execs[i] = lock.NewExecutor(sim, l, wl, keys, uint64(i+1), cfg)
		execs[i].Start()
	}
	sim.After(event.Duration(window), func() {
		for _, ex := range execs {
			ex.Stop()
		}
	})
	sim.Run()
	var committed uint64
	for _, ex := range execs {
		committed += ex.Committed
	}
	return float64(committed) / window.Seconds(), nil
}
