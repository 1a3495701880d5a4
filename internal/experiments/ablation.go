package experiments

import (
	"fmt"
	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
)

// PointResult is one throughput measurement with the derived chain
// maximum (for the recirculation ablation, §6).
type PointResult struct {
	QPS    float64
	MaxQPS float64
}

// Fig9aPoint measures a single throughput point with the given options
// and client-server count.
func Fig9aPoint(o ThroughputOpts, servers int) (PointResult, error) {
	o.defaults()
	qps, maxQPS, err := netchainThroughput(o, servers, 0)
	return PointResult{QPS: qps, MaxQPS: maxQPS}, err
}

// ChainMessagesPerWrite counts the messages one write costs on the
// testbed chain: the paper's CR argument (§2.2) — n+1 messages for a
// chain of n replicas versus 2n for classical primary-backup. It counts the
// run's node-to-node sends: every frame a switch processed (client→head,
// head→mid, mid→tail) plus every reply delivered (tail→client). Underlay
// transits don't count as protocol messages — they exist in both designs.
func ChainMessagesPerWrite() (float64, error) {
	c, err := chainWrite()
	return float64(c.processed + c.replies), err
}

// writeCount tallies one write's frames across the testbed.
type writeCount struct{ processed, transits, replies uint64 }

// chainWrite sends one write from the first host and counts its frames.
func chainWrite() (writeCount, error) {
	var c writeCount
	d, err := NewDeployment(FabricOpts{Scale: 1})
	if err != nil {
		return c, err
	}
	k := kv.KeyFromUint64(1)
	rt, err := d.Ctl.Insert(k)
	if err != nil {
		return c, err
	}
	h0 := d.Fab.Hosts[0]
	ep := query.Endpoint{Addr: h0, Port: 4000}
	f, err := query.NewWrite(ep, 1, rt, k, kv.Value("x"))
	if err != nil {
		return c, err
	}
	d.Net.HostRecv(h0, func(*packet.Frame) { c.replies++ })
	d.Net.Inject(h0, f)
	d.Sim.RunFor(event.Duration(1e9))
	for _, sa := range d.SwitchAddrs() {
		sw, _ := d.Net.Switch(sa)
		st := sw.Stats()
		c.processed += st.Processed
		c.transits += st.Transits
	}
	if c.replies != 1 {
		return c, fmt.Errorf("experiments: write produced %d replies, want 1", c.replies)
	}
	return c, nil
}
