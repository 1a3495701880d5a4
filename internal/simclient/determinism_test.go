package simclient_test

import (
	"testing"
	"time"

	"netchain/internal/event"
	"netchain/internal/experiments"
	"netchain/internal/kv"
	"netchain/internal/simclient"
	"netchain/internal/workload"
)

// traceRun builds a fresh deployment with the given seed, drives one
// open-loop generator for a fixed simulated window, and returns the exact
// (op, key-index) stream it emitted plus its counters.
func traceRun(t *testing.T, seed int64) (trace []uint64, sent, ok uint64, latency string) {
	t.Helper()
	d, err := experiments.NewDeployment(experiments.FabricOpts{Scale: 20000, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := d.LoadStore(64, 32)
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.NewMix(0.4, workload.NewUniform(len(keys), seed+77), seed+178)
	val := workload.Value(32, 5)
	src := func(n uint64) (kv.Op, kv.Key, kv.Value) {
		op, idx := mix.Next()
		trace = append(trace, uint64(op)<<32|uint64(idx))
		if op == kv.OpWrite {
			return op, keys[idx], val
		}
		return op, keys[idx], nil
	}
	gen := d.Muxes[0].NewGenerator(simclient.DefaultConfig(), d.Directory(), src)
	gen.Start(d.Profile.HostRate / d.Profile.Scale)
	d.Sim.After(event.Duration(200*time.Millisecond), gen.Stop)
	d.Sim.Run()
	return trace, gen.Sent, gen.OKCount(), gen.Latency.Summary()
}

// TestGeneratorSameSeedSameStream: identical seeds must replay the
// identical query stream AND land on identical delivery counts and latency
// digests — the property that makes bench trajectories comparable across
// PRs.
func TestGeneratorSameSeedSameStream(t *testing.T) {
	traceA, sentA, okA, latA := traceRun(t, 9)
	traceB, sentB, okB, latB := traceRun(t, 9)
	if len(traceA) == 0 {
		t.Fatal("empty trace")
	}
	if len(traceA) != len(traceB) {
		t.Fatalf("trace lengths differ: %d vs %d", len(traceA), len(traceB))
	}
	for i := range traceA {
		if traceA[i] != traceB[i] {
			t.Fatalf("trace diverges at %d: %x vs %x", i, traceA[i], traceB[i])
		}
	}
	if sentA != sentB || okA != okB {
		t.Fatalf("counters differ: sent %d/%d ok %d/%d", sentA, sentB, okA, okB)
	}
	if latA != latB {
		t.Fatalf("latency digests differ:\n%s\n%s", latA, latB)
	}
}

// TestGeneratorSeedActuallyMatters guards against a hardcoded seed
// swallowing the knob.
func TestGeneratorSeedActuallyMatters(t *testing.T) {
	traceA, _, _, _ := traceRun(t, 9)
	traceB, _, _, _ := traceRun(t, 10)
	n := len(traceA)
	if len(traceB) < n {
		n = len(traceB)
	}
	for i := 0; i < n; i++ {
		if traceA[i] != traceB[i] {
			return // diverged, as desired
		}
	}
	t.Fatal("different seeds replayed the same stream")
}

// TestTrackedClientDeterministic runs the retry-tracking client (not just
// the open-loop generator) twice over the same schedule and requires
// byte-identical results.
func TestTrackedClientDeterministic(t *testing.T) {
	run := func() []string {
		d, err := experiments.NewDeployment(experiments.FabricOpts{Scale: 20000, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		keys, err := d.LoadStore(8, 16)
		if err != nil {
			t.Fatal(err)
		}
		c, err := d.Muxes[0].NewClient(simclient.DefaultConfig(), d.Directory())
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for i, k := range keys {
			k := k
			i := i
			d.Sim.After(event.Time(i)*50_000, func() {
				c.Read(k, func(res simclient.Result) {
					out = append(out, res.Status.String()+string(res.Value))
				})
			})
		}
		d.Sim.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("result counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}
