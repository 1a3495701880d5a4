package query

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netchain/internal/kv"
)

// pendingRun is one call driven through a Pending in virtual time: now
// advances one unit per step, so every deadline is observed exactly.
type pendingRun struct {
	sends   []time.Duration // now of every attempt, the first included
	qids    []uint64        // the id each attempt carried
	replied bool            // OnReply claimed the call
	err     error           // what OnTick failed it with
	late    int             // OnReply calls that matched nothing
	stats   Stats
}

// drivePending submits one call at t=0 and loses every attempt before the
// answered-th (0-based; negative loses them all). The reply, if any, lands
// rtt after its attempt, dups extra copies follow it, and after the call
// has resolved one more copy arrives if lateCopy is set.
func drivePending(seed int64, timeout time.Duration, retries, answered int, rtt time.Duration, dups int, lateCopy bool) pendingRun {
	p := NewPending[string](timeout, retries, seed)
	var r pendingRun
	qid, _ := p.Submit("call", 0)
	r.sends, r.qids = append(r.sends, 0), append(r.qids, qid)
	replyAt := time.Duration(-1)
	if answered == 0 {
		replyAt = rtt
	}
	reply := func() {
		if e, ok := p.OnReply(qid); ok {
			r.replied = e.Call == "call"
		} else {
			r.late++
		}
	}
	for now := time.Duration(1); p.InFlight() > 0; now++ {
		if now == replyAt {
			for i := 0; i <= dups; i++ {
				reply()
			}
			break
		}
		for _, d := range p.OnTick(now) {
			if d.Err != nil {
				r.err = d.Err
				continue
			}
			r.sends, r.qids = append(r.sends, now), append(r.qids, d.QID)
			if d.Retries == answered {
				replyAt = now + rtt
			}
		}
	}
	if lateCopy {
		reply()
	}
	r.stats = p.Stats()
	return r
}

// TestPendingSchedule pins the one retry rule both substrates run, in
// virtual time: how many attempts a call gets, when, under which id, how it
// ends, and what the counters say.
func TestPendingSchedule(t *testing.T) {
	const timeout = 1000 * time.Nanosecond
	const retries = 5
	cases := []struct {
		name     string
		answered int // attempt that gets its reply; -1: none
		dups     int
		lateCopy bool
		attempts int
		timedOut bool
		stats    Stats
	}{
		{name: "answered at once", answered: 0, attempts: 1, stats: Stats{Sent: 1}},
		{name: "first two attempts lost", answered: 2, attempts: 3, stats: Stats{Sent: 3, Retries: 2}},
		{name: "only the last retry answered", answered: retries, attempts: retries + 1,
			stats: Stats{Sent: retries + 1, Retries: retries}},
		{name: "reply duplicated twice", answered: 0, dups: 2, attempts: 1, stats: Stats{Sent: 1, Late: 2}},
		{name: "every attempt lost", answered: -1, attempts: retries + 1, timedOut: true,
			stats: Stats{Sent: retries + 1, Retries: retries, Timeouts: 1}},
		{name: "reply after give-up", answered: -1, lateCopy: true, attempts: retries + 1, timedOut: true,
			stats: Stats{Sent: retries + 1, Retries: retries, Timeouts: 1, Late: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := drivePending(7, timeout, retries, tc.answered, 10, tc.dups, tc.lateCopy)
			if len(r.sends) != tc.attempts {
				t.Fatalf("attempts = %d at %v, want %d", len(r.sends), r.sends, tc.attempts)
			}
			// The PR 9 regression: a retransmit is the same query.
			for _, q := range r.qids {
				if q != r.qids[0] {
					t.Fatalf("attempts carried ids %v, want one id throughout", r.qids)
				}
			}
			// The PR 15 regression: giving up must match kv.ErrTimeout.
			if tc.timedOut != errors.Is(r.err, kv.ErrTimeout) || r.replied == tc.timedOut {
				t.Fatalf("outcome: replied=%v err=%v, want timed out = %v", r.replied, r.err, tc.timedOut)
			}
			if r.stats != tc.stats {
				t.Fatalf("stats = %+v, want %+v", r.stats, tc.stats)
			}
			if late := int(tc.stats.Late); r.late != late {
				t.Fatalf("%d replies matched nothing, want %d", r.late, late)
			}
			// The first wait is exactly Timeout; retry k then waits
			// min(2^k, 4) timeouts, give or take 20 %.
			for k := 1; k < len(r.sends); k++ {
				wait := r.sends[k] - r.sends[k-1]
				base := min(timeout<<(k-1), backoffCap*timeout)
				lo, hi := base, base
				if k > 1 {
					lo, hi = base*8/10, base*12/10
				}
				if wait < lo || wait > hi {
					t.Fatalf("attempt %d came %v after the previous one, want [%v, %v]", k, wait, lo, hi)
				}
			}
		})
	}
}

// TestPendingJitterIsSeeded: the same seed replays the same retransmit
// schedule, another seed does not, and jitter really spreads the waits.
func TestPendingJitterIsSeeded(t *testing.T) {
	lost := func(seed int64) []time.Duration {
		return drivePending(seed, time.Microsecond, 8, -1, 0, 0, false).sends
	}
	a, b, c := lost(1), lost(1), lost(2)
	if !slices.Equal(a, b) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", a, b)
	}
	if slices.Equal(a, c) {
		t.Fatalf("seeds 1 and 2 drew the same schedule %v", a)
	}
	waits := map[time.Duration]bool{}
	for k := 4; k < len(a); k++ { // all at the cap: only jitter tells them apart
		waits[a[k]-a[k-1]] = true
	}
	if len(waits) < 4 {
		t.Fatalf("capped waits %v are not spread", waits)
	}
}

// TestPendingCompletesExactlyOnce races replies, ticks, cancels and a Drain
// over the same calls (run under -race): whoever removes a call completes
// it, so every submitted call must be handed back exactly once.
func TestPendingCompletesExactlyOnce(t *testing.T) {
	const calls = 4000
	p := NewPending[int](time.Nanosecond, 1, 3)
	done := make([]atomic.Int32, calls)
	qids := make(chan uint64, calls)
	var now atomic.Int64
	var submitters, rest sync.WaitGroup
	var refused atomic.Int32

	claim := func(e Entry[int], ok bool) {
		if ok {
			done[e.Call].Add(1)
		}
	}
	for w := 0; w < 4; w++ {
		submitters.Add(1)
		go func(w int) {
			defer submitters.Done()
			for i := w; i < calls; i += 4 {
				if i == calls/2 { // shutdown lands in the middle of everything
					for _, e := range p.Drain(errors.New("closed")) {
						claim(e, true)
					}
				}
				qid, err := p.Submit(i, time.Duration(now.Add(1)))
				if err != nil {
					refused.Add(1)
					done[i].Add(1) // refused at the door: the submitter completes it
					continue
				}
				qids <- qid
			}
		}(w)
	}
	rest.Add(2)
	go func() { // replies, some of them twice, and the odd cancel
		defer rest.Done()
		for qid := range qids {
			switch qid % 3 {
			case 0:
				claim(p.OnReply(qid))
				claim(p.OnReply(qid))
			case 1:
				claim(p.Cancel(qid))
			}
		}
	}()
	stop := make(chan struct{})
	go func() { // the tick: one retransmit each, then failure
		defer rest.Done()
		for {
			for _, d := range p.OnTick(time.Duration(now.Add(1))) {
				claim(d.Entry, d.Err != nil)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	submitters.Wait()
	close(qids)
	close(stop)
	rest.Wait()
	for i := range done {
		if n := done[i].Load(); n != 1 {
			t.Fatalf("call %d completed %d times", i, n)
		}
	}
	if refused.Load() == 0 {
		t.Fatal("no Submit was refused after Drain")
	}
}
