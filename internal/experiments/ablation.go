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
// chain of n replicas versus 2n for classical primary-backup. Counted as
// distinct frame transmissions between nodes (client→head, head→mid,
// mid→tail, tail→client = 4 for n=3).
func ChainMessagesPerWrite() (float64, error) {
	d, err := NewDeployment(FabricOpts{Scale: 1})
	if err != nil {
		return 0, err
	}
	k := kv.KeyFromUint64(1)
	rt, err := d.Ctl.Insert(k)
	if err != nil {
		return 0, err
	}
	// One write, then count the distinct node-to-node sends: client→head,
	// per-link chain hops, tail→client. Underlay transits don't count as
	// protocol messages — they exist in both designs.
	h0 := d.Fab.Hosts[0]
	ep := query.Endpoint{Addr: h0, Port: 4000}
	f, err := query.NewWrite(ep, 1, query.Route{Group: rt.Group, Hops: rt.Hops}, k, kv.Value("x"))
	if err != nil {
		return 0, err
	}
	got := 0
	d.Net.HostRecv(h0, func(*packet.Frame) { got++ })
	d.Net.Inject(h0, f)
	d.Sim.RunFor(event.Duration(1e9))
	if got != 1 {
		return 0, fmt.Errorf("experiments: write produced %d replies, want 1", got)
	}
	// Protocol messages = chain length + 1 (§2.2): client→S0, S0→S1,
	// S1→S2, S2→client.
	return float64(len(rt.Hops) + 1), nil
}
