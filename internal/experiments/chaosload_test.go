package experiments

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/lincheck"
	"netchain/internal/query"
)

// TestChaosRecorderSameOnBothEntries feeds one scripted sequence of
// outcomes through the workload's one entry on both of its clocks: the
// simulator's, answering each call as an event, and the wall's, answering
// each on its own goroutine as the wire does. The ops drawn, the lock
// bookkeeping and the recorded history must be identical apart from
// timestamps.
func TestChaosRecorderSameOnBothEntries(t *testing.T) {
	const ops = 60
	// What the substrate answers to the n-th call, covering every branch of
	// the recorder: reads found and absent, writes acked/refused/timed out,
	// CAS swapped, lost to a foreign owner, bounced off our own id, and a
	// failed release.
	script := func(n int, call query.Call) (query.Outcome, error) {
		switch call.Op {
		case kv.OpRead:
			if n%5 == 0 {
				return query.Outcome{}, kv.ErrNotFound
			}
			return query.Outcome{Value: kv.Value("seen")}, nil
		case kv.OpWrite:
			switch n % 7 {
			case 0:
				return query.Outcome{}, kv.ErrTimeout
			case 1:
				return query.Outcome{}, kv.ErrUnavailable
			case 2:
				return query.Outcome{}, kv.ErrNotFound
			}
			return query.Outcome{}, nil
		}
		rep := query.Reply{Status: kv.StatusCASFail, Value: query.OwnerValue(99, nil)}
		switch n % 4 {
		case 0:
			rep = query.Reply{Status: kv.StatusOK, Value: call.Value}
		case 1:
			if call.Expect == 0 {
				rep.Value = call.Value // the stored owner is the one proposed
			}
		case 2:
			return query.Outcome{}, kv.ErrTimeout
		}
		return call.Outcome(rep)
	}

	run := func(entry func(c *chaosClient, answer func(query.Call) (query.Outcome, error))) ([]lincheck.Op, map[string]bool) {
		load := newChaosLoad(4, ops)
		if err := load.preload(func(kv.Key, kv.Value) error { return nil }); err != nil {
			t.Fatal(err)
		}
		c := load.client(7, 1)
		n := 0
		entry(c, func(call query.Call) (query.Outcome, error) {
			n++
			return script(n, call)
		})
		var rep ChaosResult
		if err := load.check(&rep); err != nil {
			t.Fatal(err)
		}
		for i := range rep.History {
			op := &rep.History[i]
			if op.Return != lincheck.Infinity {
				op.Return = 0
			}
			op.Invoke = 0
		}
		return rep.History, c.holding
	}

	simHist, simHolding := run(func(c *chaosClient, answer func(query.Call) (query.Outcome, error)) {
		sim := event.New()
		c.drive(func(call query.Call, done func(query.Outcome, error)) {
			sim.After(1, func() { done(answer(call)) })
		}, sim.Clock(), time.Microsecond)
		sim.Run()
	})
	wireHist, wireHolding := run(func(c *chaosClient, answer func(query.Call) (query.Outcome, error)) {
		var wg sync.WaitGroup
		wg.Add(ops)
		c.drive(func(call query.Call, done func(query.Outcome, error)) {
			go func() {
				done(answer(call))
				wg.Done()
			}()
		}, event.NewWall(1), 0)
		wg.Wait()
	})

	if len(simHist) == 0 || len(simHist) >= ops {
		t.Fatalf("script should record some ops and drop the refused ones: %d of %d", len(simHist), ops)
	}
	if !reflect.DeepEqual(simHist, wireHist) {
		t.Fatalf("histories differ:\nsim  %+v\nwire %+v", simHist, wireHist)
	}
	if !reflect.DeepEqual(simHolding, wireHolding) {
		t.Fatalf("lock bookkeeping differs: sim %v wire %v", simHolding, wireHolding)
	}
	kinds := map[string]bool{}
	for _, op := range simHist {
		switch {
		case op.Unknown && op.Return == lincheck.Infinity:
			kinds["timeout"] = true
		case op.Unknown:
			kinds["unknown"] = true
		case op.Kind == lincheck.CAS && op.OK:
			kinds["swapped"] = true
		case op.Kind == lincheck.CAS:
			kinds["lost"] = true
		case op.Kind == lincheck.Read && !op.Found:
			kinds["absent"] = true
		}
	}
	for _, k := range []string{"timeout", "unknown", "swapped", "lost", "absent"} {
		if !kinds[k] {
			t.Errorf("script never produced a %q op", k)
		}
	}

	// An error the protocol does not explain is a harness failure on either
	// entry, not a history entry.
	load := newChaosLoad(2, 1)
	load.client(1, 0).drive(func(_ query.Call, done func(query.Outcome, error)) {
		done(query.Outcome{}, errors.New("socket on fire"))
	}, event.New().Clock(), 0)
	if err := load.check(&ChaosResult{}); err == nil {
		t.Error("unexplained error was not reported as a harness failure")
	}
}
