package experiments

import (
	"math/rand"

	"netchain/internal/core"
	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/netsim"
	"netchain/internal/packet"
	"netchain/internal/ring"
)

// Fig9fOpts parameterizes the §8.3 scalability simulation.
type Fig9fOpts struct {
	Leaves  []int // leaf counts; spines = leaves/2 (default 4..64)
	Samples int   // (host, key) samples per size (default 4000)
}

func (o *Fig9fOpts) defaults() {
	if len(o.Leaves) == 0 {
		o.Leaves = []int{4, 8, 16, 32, 64}
	}
	if o.Samples == 0 {
		o.Samples = 4000
	}
}

// spineLeaf builds the §8.3 fabric at true rates — leaves leaf switches
// under leaves/2 spines, two hosts per leaf, unmetered — and a ring over
// every switch.
func spineLeaf(leaves int) (*event.Sim, *netsim.Fabric, *ring.Ring, error) {
	sim := event.New()
	sl, err := netsim.NewFabric(sim, netsim.PaperProfile(1), figSeed,
		netsim.TopoSpec{Kind: "spine-leaf", S: leaves / 2, L: leaves}, 2, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	r, err := ring.New(ring.Config{VNodesPerSwitch: 8, Replicas: 3, Seed: figSeed}, sl.Net.Switches())
	return sim, sl, r, err
}

// Fig9f reproduces the paper's scalability simulation: spine-leaf fabrics
// from 6 to 96 switches, reporting the maximum read-only and write-only
// throughput. The method is the paper's own (§8.3): the fabric saturates
// when aggregate switch packet budget is exhausted, so max QPS = total
// budget / average switch traversals per query. Writes traverse more
// switches (head→mid→tail) so their curve sits below reads; both grow
// linearly because the two-layer fabric keeps hop counts constant.
func Fig9f(o Fig9fOpts) (*Figure, error) {
	o.defaults()
	f := &Figure{
		ID: "fig9f", Title: "Scalability (spine-leaf simulation)",
		XLabel: "switches", YLabel: "QPS",
		PaperNote: "read and write BQPS grow linearly 6→96 switches; write < read",
	}
	for _, leaves := range o.Leaves {
		_, sl, r, err := spineLeaf(leaves)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(figSeed))
		var readTrav, writeTrav float64
		for i := 0; i < o.Samples; i++ {
			host := sl.Hosts[rng.Intn(len(sl.Hosts))]
			key := kv.KeyFromUint64(rng.Uint64())
			ch := r.ChainForKey(key)
			// Read: client → tail (served there) → client.
			readTrav += float64(switchEntries(sl.Net, host, ch.Tail()) +
				switchEntries(sl.Net, ch.Tail(), host))
			// Write: client → head → ... → tail → client.
			w := switchEntries(sl.Net, host, ch.Head())
			for h := 0; h+1 < len(ch.Hops); h++ {
				w += switchEntries(sl.Net, ch.Hops[h], ch.Hops[h+1])
			}
			w += switchEntries(sl.Net, ch.Tail(), host)
			writeTrav += float64(w)
		}
		n := float64(o.Samples)
		size := float64(len(sl.Switches))
		totalBudget := size * netsim.PaperProfile(1).SwitchPPS
		f.Add("NetChain (read)", size, totalBudget/(readTrav/n))
		f.Add("NetChain (write)", size, totalBudget/(writeTrav/n))
	}
	return f, nil
}

// switchEntries counts how many switch nodes a packet enters travelling
// from `from` to `to` (including `to` when it is a switch; excluding
// `from`). Each entry consumes one slot of that switch's packet budget.
func switchEntries(net *netsim.Network, from, to packet.Addr) int {
	if from == to {
		return 0
	}
	count := 0
	cur := from
	for i := 0; i < 64; i++ {
		next, ok := net.NextHop(cur, to)
		if !ok {
			return count
		}
		if net.IsSwitch(next) {
			count++
		}
		cur = next
		if cur == to {
			return count
		}
	}
	return count
}

// Fig9fValidate cross-checks the analytic hop model against a small live
// simulation: it measures per-switch packet counts on the smallest fabric
// and confirms traversals-per-query agree within tolerance. Returns the
// analytic and measured traversal averages for reads.
func Fig9fValidate() (analytic, measured float64, err error) {
	sim, sl, r, err := spineLeaf(4)
	if err != nil {
		return 0, 0, err
	}
	// Analytic.
	rng := rand.New(rand.NewSource(figSeed))
	keys := make([]kv.Key, 256)
	for i := range keys {
		keys[i] = kv.KeyFromUint64(uint64(i))
	}
	var trav float64
	for i := 0; i < 1000; i++ {
		host := sl.Hosts[rng.Intn(len(sl.Hosts))]
		ch := r.ChainForKey(keys[rng.Intn(len(keys))])
		trav += float64(switchEntries(sl.Net, host, ch.Tail()) +
			switchEntries(sl.Net, ch.Tail(), host))
	}
	analytic = trav / 1000

	// Live: install keys, fire reads from random hosts, count switch work.
	for _, k := range keys {
		ch := r.ChainForKey(k)
		for _, hop := range ch.Hops {
			sw, _ := sl.Net.Switch(hop)
			if err := sw.InstallKey(k); err != nil {
				return 0, 0, err
			}
			sw.WriteItem(core.Item{Key: k, Value: kv.Value("v"), Version: kv.Version{Seq: 1}})
		}
	}
	sent := 0
	for i := 0; i < 2000; i++ {
		host := sl.Hosts[rng.Intn(len(sl.Hosts))]
		k := keys[rng.Intn(len(keys))]
		ch := r.ChainForKey(k)
		nc := &packet.NetChain{Op: kv.OpRead, Key: k, QueryID: uint64(i)}
		fr := packet.NewQuery(host, ch.Tail(), 4000, nc)
		sl.Net.Inject(host, fr)
		sent++
	}
	sim.Run()
	var work uint64
	for _, sa := range sl.Net.Switches() {
		sw, _ := sl.Net.Switch(sa)
		st := sw.Stats()
		work += st.Processed + st.Transits
	}
	measured = float64(work) / float64(sent)
	return analytic, measured, nil
}
