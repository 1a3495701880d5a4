package simclient

import (
	"errors"
	"testing"

	"netchain/internal/controller"
	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/netsim"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/ring"
)

// rig is a full simulated NetChain deployment: testbed + ring + controller
// + one client mux on H0.
type rig struct {
	sim *event.Sim
	tb  *netsim.Fabric
	ctl *controller.Controller
	mux *Mux
}

func newRig(t *testing.T) *rig {
	t.Helper()
	sim := event.New()
	tb, err := netsim.NewFabric(sim, netsim.PaperProfile(1), 1, netsim.TopoSpec{Kind: "ring"}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ring.New(ring.Config{VNodesPerSwitch: 4, Replicas: 3, Seed: 5},
		[]packet.Addr{tb.Switches[0], tb.Switches[1], tb.Switches[2]})
	if err != nil {
		t.Fatal(err)
	}
	agent := func(a packet.Addr) (controller.Agent, bool) {
		sw, ok := tb.Net.Switch(a)
		if !ok {
			return nil, false
		}
		return controller.LocalAgent{Switch: sw}, true
	}
	ctl, err := controller.New(controller.DefaultConfig(), r,
		controller.SimScheduler{Sim: sim}, agent, tb.Net.SwitchNeighbors)
	if err != nil {
		t.Fatal(err)
	}
	mux, err := NewMux(sim, tb.Net, tb.Hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	return &rig{sim: sim, tb: tb, ctl: ctl, mux: mux}
}

func (r *rig) dir() Directory {
	return func(k kv.Key) query.Route {
		rt := r.ctl.Route(k)
		return query.Route{Group: rt.Group, Hops: rt.Hops}
	}
}

func TestClientReadWriteDelete(t *testing.T) {
	r := newRig(t)
	c, err := r.mux.NewClient(DefaultConfig(), r.dir())
	if err != nil {
		t.Fatal(err)
	}
	k := kv.KeyFromString("cfg/param")
	if _, err := r.ctl.Insert(k); err != nil {
		t.Fatal(err)
	}

	var results []Result
	c.Write(k, kv.Value("v1"), func(res Result) {
		results = append(results, res)
		c.Read(k, func(res Result) {
			results = append(results, res)
			c.Delete(k, func(res Result) {
				results = append(results, res)
				c.Read(k, func(res Result) { results = append(results, res) })
			})
		})
	})
	r.sim.Run()

	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Err != nil || results[0].Status != kv.StatusOK {
		t.Fatalf("write: %+v", results[0])
	}
	if string(results[1].Value) != "v1" || results[1].Version.Seq != 1 {
		t.Fatalf("read: %+v", results[1])
	}
	if results[2].Status != kv.StatusOK {
		t.Fatalf("delete: %+v", results[2])
	}
	if results[3].Status != kv.StatusNotFound {
		t.Fatalf("read-after-delete: %+v", results[3])
	}
	if c.Outstanding() != 0 {
		t.Fatal("queries leaked")
	}
}

func TestClientLatencyNearPaper(t *testing.T) {
	r := newRig(t)
	c, _ := r.mux.NewClient(DefaultConfig(), r.dir())
	k := kv.KeyFromString("lat")
	r.ctl.Insert(k)
	var lat event.Time
	c.Write(k, kv.Value("x"), func(res Result) { lat = res.Latency })
	r.sim.Run()
	us := float64(lat) / 1000
	// Paper: 9.7 µs including both host stacks.
	if us < 7 || us > 13 {
		t.Fatalf("query latency = %.2f µs, want ~9.7", us)
	}
}

func TestClientCASLockCycle(t *testing.T) {
	r := newRig(t)
	c, _ := r.mux.NewClient(DefaultConfig(), r.dir())
	lock := kv.KeyFromString("lock/a")
	r.ctl.Insert(lock)

	var trace []kv.Status
	c.CAS(lock, 0, query.OwnerValue(7, nil), func(res Result) {
		trace = append(trace, res.Status)
		c.CAS(lock, 0, query.OwnerValue(8, nil), func(res Result) {
			trace = append(trace, res.Status) // held: fail
			c.CAS(lock, 7, query.OwnerValue(0, nil), func(res Result) {
				trace = append(trace, res.Status) // release by owner
				c.CAS(lock, 0, query.OwnerValue(8, nil), func(res Result) {
					trace = append(trace, res.Status) // now free
				})
			})
		})
	})
	r.sim.Run()
	want := []kv.Status{kv.StatusOK, kv.StatusCASFail, kv.StatusOK, kv.StatusOK}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace[%d] = %v, want %v", i, trace[i], want[i])
		}
	}
}

func TestClientRetriesThroughFailover(t *testing.T) {
	r := newRig(t)
	cfg := DefaultConfig()
	cfg.Timeout = event.Duration(2e6) // 2 ms retry timer
	c, _ := r.mux.NewClient(cfg, r.dir())
	k := kv.KeyFromString("ha")
	rt, _ := r.ctl.Insert(k)

	// Make sure the key's chain includes S1 so the failure matters.
	s1 := rt.Hops[1]
	var res Result
	gotReply := false
	c.Write(k, kv.Value("v1"), func(Result) {
		// Fail the middle switch, then write again: the first attempts are
		// lost (rules not yet installed), and a retry completes after the
		// controller reacts.
		r.tb.Net.FailSwitch(s1)
		// Controller reacts 5 ms after the failure.
		r.sim.After(event.Duration(5e6), func() {
			r.ctl.HandleFailure(s1, nil)
		})
		c.Write(k, kv.Value("v2"), func(rr Result) { res = rr; gotReply = true })
	})
	r.sim.Run()

	if !gotReply {
		t.Fatal("no reply after failover")
	}
	if res.Err != nil || res.Status != kv.StatusOK {
		t.Fatalf("failover write: %+v", res)
	}
	if res.Retries == 0 {
		t.Fatal("expected at least one retry during the failover window")
	}
	// Value visible to reads.
	var v kv.Value
	c.Read(k, func(rr Result) { v = rr.Value })
	r.sim.Run()
	if string(v) != "v2" {
		t.Fatalf("read after failover = %q", v)
	}
}

func TestClientTimeoutExhaustion(t *testing.T) {
	r := newRig(t)
	cfg := DefaultConfig()
	cfg.Timeout = event.Duration(1e6)
	cfg.MaxRetries = 2
	c, _ := r.mux.NewClient(cfg, r.dir())
	k := kv.KeyFromString("dead")
	rt, _ := r.ctl.Insert(k)

	// Fail the whole chain; never run the controller: queries must die.
	for _, hop := range rt.Hops {
		r.tb.Net.FailSwitch(hop)
	}
	var res Result
	c.Write(k, kv.Value("x"), func(rr Result) { res = rr })
	r.sim.Run()
	if !errors.Is(res.Err, kv.ErrTimeout) {
		t.Fatalf("err = %v, want timeout", res.Err)
	}
	if st := c.Stats(); res.Retries != 2 || st != (query.Stats{Sent: 3, Retries: 2, Timeouts: 1}) {
		t.Fatalf("retries=%d stats=%+v", res.Retries, st)
	}
}

func TestGeneratorThroughput(t *testing.T) {
	r := newRig(t)
	c, _ := r.mux.NewClient(DefaultConfig(), r.dir())
	keys := make([]kv.Key, 16)
	for i := range keys {
		keys[i] = kv.KeyFromUint64(uint64(100 + i))
		if _, err := r.ctl.Insert(keys[i]); err != nil {
			t.Fatal(err)
		}
		c.Write(keys[i], kv.Value("init"), func(Result) {})
	}
	r.sim.Run() // settle the pre-writes
	dir := r.dir()
	g := r.mux.NewGenerator(DefaultConfig(), dir, func(n uint64) (kv.Op, kv.Key, kv.Value) {
		k := keys[n%uint64(len(keys))]
		if n%100 == 0 {
			return kv.OpWrite, k, kv.Value("w")
		}
		return kv.OpRead, k, nil
	})

	g.Start(1e6) // 1 MQPS for 2 ms -> ~2000 queries
	r.sim.After(event.Duration(2e6), g.Stop)
	r.sim.Run()

	if g.Sent < 1900 || g.Sent > 2100 {
		t.Fatalf("sent = %d, want ~2000", g.Sent)
	}
	ok := g.OKCount()
	if float64(ok) < 0.95*float64(g.Sent) {
		t.Fatalf("ok = %d of %d", ok, g.Sent)
	}
	if g.Latency.Count() == 0 {
		t.Fatal("no latency samples")
	}
	p50 := g.Latency.P50() / 1000
	if p50 < 7 || p50 > 14 {
		t.Fatalf("generator p50 = %.1f µs", p50)
	}
}

func TestGeneratorLossySuccessRate(t *testing.T) {
	r := newRig(t)
	k := kv.KeyFromUint64(42)
	r.ctl.Insert(k)
	for _, s := range r.tb.Switches {
		r.tb.Net.LossRateSet(s, 0.10)
	}
	g := r.mux.NewGenerator(DefaultConfig(), r.dir(), func(n uint64) (kv.Op, kv.Key, kv.Value) {
		return kv.OpWrite, k, kv.Value("x")
	})
	g.Start(1e6)
	r.sim.After(event.Duration(5e6), g.Stop)
	r.sim.Run()
	rate := float64(g.OKCount()) / float64(g.Sent)
	// Write path H0-S0-S1-S2 + reply transits: ~6 switch traversals at 10%
	// loss each -> ~0.53 success.
	if rate < 0.40 || rate > 0.68 {
		t.Fatalf("success rate = %.2f, want ~0.53", rate)
	}
}
