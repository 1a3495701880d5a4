package lincheck_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"netchain/internal/controller"
	"netchain/internal/event"
	"netchain/internal/experiments"
	"netchain/internal/kv"
	"netchain/internal/lincheck"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/simclient"
)

func ownerBytes(owner uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, owner)
	return b
}

// recorder turns simclient results into lincheck ops under simulated time.
type recorder struct {
	sim     *event.Sim
	history []lincheck.Op
}

// TestLinearizableThroughResizeAndFailover records a concurrent
// read/write/CAS history from three client hosts while the cluster (a)
// live-migrates onto the spare S3, (b) loses S1 to a fail-stop with
// controller failover, and (c) recovers S1's groups onto the pool — then
// verifies the whole history against a sequential per-key register model.
// This is the acceptance check for the migration engine: route flips,
// session bumps and state copies must never manufacture a stale read, a
// lost update, or a double lock grant.
func TestLinearizableThroughResizeAndFailover(t *testing.T) {
	d, err := experiments.NewDeployment(experiments.FabricOpts{Scale: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ccfg := controller.DefaultConfig()
	ccfg.RuleDelay = time.Millisecond
	ccfg.SyncPerItem = 0
	if err := d.NewController(ccfg); err != nil {
		t.Fatal(err)
	}

	// Preload: eight register keys plus one lock, all at version (0,1).
	names := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7", "lock"}
	initial := map[string]string{}
	for _, name := range names {
		k := kv.KeyFromString(name)
		val := []byte("init-" + name)
		if name == "lock" {
			val = ownerBytes(0)
		}
		if err := d.Preload(k, val); err != nil {
			t.Fatal(err)
		}
		initial[name] = string(val)
	}

	rec := &recorder{sim: d.Sim}
	cfg := simclient.DefaultConfig()
	cfg.MaxRetries = 400 // ride through failover windows instead of timing out

	const opsPerClient = 150
	const pause = event.Time(500_000) // 500 µs between a client's ops

	for c := 0; c < 3; c++ {
		client, err := d.Muxes[c].NewClient(cfg, d.Directory())
		if err != nil {
			t.Fatal(err)
		}
		cid := c
		rng := rand.New(rand.NewSource(int64(100 + c)))
		holding := false
		var step func(n int)
		record := func(op lincheck.Op, res simclient.Result, invoke event.Time) bool {
			op.Client = cid
			op.Invoke = int64(invoke)
			op.Return = int64(d.Sim.Now())
			if res.Err == kv.ErrTimeout {
				op.Return = lincheck.Infinity
				op.Unknown = true
				rec.history = append(rec.history, op)
				return false
			}
			switch res.Status {
			case kv.StatusOK:
				if op.Kind == lincheck.Read {
					op.Found = true
					op.Output = string(res.Value)
				}
				op.OK = true
			case kv.StatusNotFound:
				if op.Kind != lincheck.Read {
					return false // failed write: no effect, no observation
				}
				op.Found = false
			case kv.StatusCASFail:
				op.OK = false
				op.Output = string(res.Value)
			case kv.StatusUnavailable:
				// Refused before taking effect (migration freeze or dead
				// chain): constrains nothing.
				return false
			default:
				t.Errorf("client %d: unexpected status %v", cid, res.Status)
				return false
			}
			rec.history = append(rec.history, op)
			return op.Kind == lincheck.CAS && op.OK
		}
		step = func(n int) {
			if n >= opsPerClient {
				return
			}
			next := func(simclient.Result) {}
			invoke := d.Sim.Now()
			schedule := func(res simclient.Result) {
				next(res)
				d.Sim.After(pause, func() { step(n + 1) })
			}
			switch r := rng.Float64(); {
			case r < 0.5: // read a random register
				name := names[rng.Intn(8)]
				next = func(res simclient.Result) {
					record(lincheck.Op{Kind: lincheck.Read, Key: name}, res, invoke)
				}
				client.Do(query.Call{Op: kv.OpRead, Key: kv.KeyFromString(name)}, schedule)
			case r < 0.88: // write a random register
				name := names[rng.Intn(8)]
				val := fmt.Sprintf("c%d-n%d", cid, n)
				next = func(res simclient.Result) {
					record(lincheck.Op{Kind: lincheck.Write, Key: name, Input: val}, res, invoke)
				}
				client.Do(query.Call{Op: kv.OpWrite, Key: kv.KeyFromString(name), Value: kv.Value(val)}, schedule)
			default: // fight over the lock with CAS
				owner := uint64(cid + 1)
				expect, newOwner := uint64(0), owner
				if holding {
					expect, newOwner = owner, 0
				}
				input := string(ownerBytes(newOwner))
				next = func(res simclient.Result) {
					applied := record(lincheck.Op{
						Kind: lincheck.CAS, Key: "lock", Expect: expect, Input: input,
					}, res, invoke)
					if applied {
						holding = !holding
					}
				}
				client.Do(query.Call{Op: kv.OpCAS, Key: kv.KeyFromString("lock"), Expect: expect, Value: kv.Value(input)}, schedule)
			}
		}
		d.Sim.After(event.Time(c)*1000, func() { step(0) })
	}

	// Churn mid-history: resize at 3 ms, then failover of S1 right after
	// the resize lands, then recovery of its groups onto the pool.
	s1, s3 := d.Fab.Switches[1], d.Fab.Switches[3]
	milestones := map[string]event.Time{}
	d.Sim.After(event.Duration(3*time.Millisecond), func() {
		_, err := d.Ctl.AddSwitch(s3, func() {
			milestones["resize"] = d.Sim.Now()
			d.Sim.After(event.Duration(time.Millisecond), func() {
				d.Net.FailSwitch(s1)
				if err := d.Ctl.HandleFailure(s1, func() {
					milestones["failover"] = d.Sim.Now()
				}); err != nil {
					t.Errorf("failover: %v", err)
				}
				d.Sim.After(event.Duration(3*time.Millisecond), func() {
					if err := d.Ctl.Recover(s1, []packet.Addr{s3}, func() {
						milestones["recovery"] = d.Sim.Now()
					}); err != nil {
						t.Errorf("recover: %v", err)
					}
				})
			})
		})
		if err != nil {
			t.Errorf("resize: %v", err)
		}
	})

	d.Sim.Run()

	for _, m := range []string{"resize", "failover", "recovery"} {
		if milestones[m] == 0 {
			t.Fatalf("%s did not complete", m)
		}
	}
	historyEnd := event.Time(0)
	for _, op := range rec.history {
		if op.Return != lincheck.Infinity && event.Time(op.Return) > historyEnd {
			historyEnd = event.Time(op.Return)
		}
	}
	if historyEnd < milestones["recovery"] {
		t.Fatalf("history ended at %v, before recovery at %v — churn not mid-history",
			historyEnd, milestones["recovery"])
	}
	if len(rec.history) < 250 {
		t.Fatalf("history too thin: %d ops", len(rec.history))
	}

	res := lincheck.Check(rec.history, initial)
	if !res.OK {
		t.Fatalf("history not linearizable (key %s): %s", res.Key, res.Reason)
	}
	t.Logf("linearized %d ops across %d keys; resize@%v failover@%v recovery@%v",
		res.OpsChecked, len(names), milestones["resize"], milestones["failover"], milestones["recovery"])
}
