package netchain

import (
	"context"
	"fmt"
	"testing"
	"time"

	"netchain/internal/experiments"
)

// drainWatch empties the channel without blocking, folding events into
// the per-key last-seen view and counting version regressions.
func drainWatch(ch <-chan WatchEvent, last map[Key]WatchEvent, regressions *int) {
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if prev, seen := last[ev.Key]; seen && ev.Version.Less(prev.Version) {
				*regressions++
			}
			last[ev.Key] = ev
		default:
			return
		}
	}
}

// TestSimWatchCancelImmediate: cancelling before any traffic closes the
// stream and leaves the simulator reusable.
func TestSimWatchCancelImmediate(t *testing.T) {
	c, err := NewSimCluster(SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ob, err := c.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyFromString("sim/cancel")
	if err := c.Insert(k); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := ob.Watch(ctx, []Key{k}, WithResyncInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	c.RunFor(20 * time.Millisecond)
	select {
	case _, open := <-ch:
		if open {
			t.Fatal("expected closed channel")
		}
	default:
		t.Fatal("channel neither closed nor readable after cancel")
	}
}

// TestWatchConvergesUnderNemesis is the watch-plane chaos suite: under
// each named nemesis schedule (duplication+reordering, an asymmetric
// partition, a gray tail, and everything at once plus a fail-stop with
// failover and recovery), a push-watch subscriber must deliver
// version-monotonic events and converge to the store's final state —
// gaps in the relay stream trigger linearizable re-reads, and the
// anti-entropy sweep bounds the staleness of a lost final event.
func TestWatchConvergesUnderNemesis(t *testing.T) {
	for _, name := range experiments.ChaosScheduleNames() {
		t.Run(name, func(t *testing.T) {
			c, err := NewSimCluster(SimConfig{})
			if err != nil {
				t.Fatal(err)
			}
			wr, err := c.NewClient(0)
			if err != nil {
				t.Fatal(err)
			}
			ob, err := c.NewClient(1)
			if err != nil {
				t.Fatal(err)
			}
			var keys []Key
			for i := 0; i < 6; i++ {
				// Each subtest owns a fresh cluster, so short names cannot
				// collide across schedules (keys truncate at 16 bytes).
				k := KeyFromString(fmt.Sprintf("chaos/%d", i))
				if err := c.Insert(k); err != nil {
					t.Fatal(err)
				}
				keys = append(keys, k)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ch, err := ob.Watch(ctx, keys,
				WithWatchBuffer(1024),
				WithResyncInterval(time.Millisecond),
				WithAntiEntropy(4*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.RunNamedNemesis(name); err != nil {
				t.Fatal(err)
			}

			last := map[Key]WatchEvent{}
			regressions := 0
			// Write rounds riding through the fault windows (the schedules
			// span ~0–25 ms of simulated time). Timeouts are the nemesis
			// doing its job; the watcher must still converge.
			for round := 1; round <= 8; round++ {
				for i, k := range keys {
					_, _ = wr.Write(k, Value(fmt.Sprintf("r%02d-%d", round, i)))
				}
				c.RunFor(3 * time.Millisecond)
				drainWatch(ch, last, &regressions)
			}
			if name == "full-nemesis" {
				// The acceptance scenario: S1 fail-stops, failover runs,
				// then its groups recover onto the spare S3 — the watch
				// stream must ride across the session bump.
				if err := c.FailSwitch(1); err != nil {
					t.Fatal(err)
				}
				if err := c.Recover(1, 3); err != nil {
					t.Fatal(err)
				}
				for i, k := range keys {
					_, _ = wr.Write(k, Value(fmt.Sprintf("post-recover-%d", i)))
				}
			}

			// Faults expire; let anti-entropy close any remaining holes,
			// then require exact convergence on every key.
			deadline := 200
			converged := func() (bool, string) {
				for _, k := range keys {
					val, ver, err := wr.Read(k)
					if err != nil {
						return false, fmt.Sprintf("read %v: %v", k, err)
					}
					ev, ok := last[k]
					if !ok || ev.Version != ver || string(ev.Value) != string(val) {
						return false, fmt.Sprintf("key %v: watch=%+v store=(%q,%v)", k, ev, val, ver)
					}
				}
				return true, ""
			}
			var why string
			for i := 0; i < deadline; i++ {
				c.RunFor(2 * time.Millisecond)
				drainWatch(ch, last, &regressions)
				var ok bool
				if ok, why = converged(); ok {
					break
				}
			}
			if ok, _ := converged(); !ok {
				t.Fatalf("watcher never converged under %s: %s", name, why)
			}
			if regressions != 0 {
				t.Fatalf("%d version regressions under %s", regressions, name)
			}
		})
	}
}
