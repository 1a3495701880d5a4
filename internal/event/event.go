// Package event is a deterministic discrete-event simulation engine with
// nanosecond resolution. Events scheduled for the same instant fire in
// scheduling order, so runs are exactly reproducible — a property the
// failure-handling and model-checking experiments rely on.
//
// Code that runs on both substrates — the controller's timed procedures,
// the nemesis schedule, the watch follower, the chaos clients — keeps time
// through a Clock: the simulator's (Sim.Clock) or the wall's (Wall).
package event

import (
	"fmt"
	"sync"
	"time"
)

// Clock is one timeline: Now is the time since it started, and After runs
// fn d later.
type Clock interface {
	Now() time.Duration
	After(d time.Duration, fn func())
}

// Time is simulated time in nanoseconds since simulation start.
type Time int64

// Duration converts a wall-clock duration into simulated time units.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds renders t as fractional seconds (for reports).
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

func (t Time) String() string { return time.Duration(t).String() }

type item struct {
	at  Time
	seq uint64
	fn  func()
}

// before orders events by (at, seq); seq is unique, so it is a total order
// and every run pops in one order.
func (a *item) before(b *item) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// eventHeap is a binary min-heap of items, typed so that push and pop box
// nothing.
type eventHeap []item

func (h *eventHeap) push(it item) {
	*h = append(*h, it)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *eventHeap) pop() item {
	q := *h
	top, n := q[0], len(q)-1
	q[0] = q[n]
	q[n] = item{} // drop the fired closure
	q = q[:n]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < n && q[l].before(&q[m]) {
			m = l
		}
		if r < n && q[r].before(&q[m]) {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

// Sim is the event loop. The zero value is not usable; call New.
type Sim struct {
	now    Time
	next   uint64
	events eventHeap
	fired  uint64
}

// New returns an empty simulator at time zero.
func New() *Sim { return &Sim{} }

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Clock returns s as a Clock; its callbacks run during stepping.
func (s *Sim) Clock() Clock { return simClock{s} }

type simClock struct{ s *Sim }

func (c simClock) Now() time.Duration               { return time.Duration(c.s.now) }
func (c simClock) After(d time.Duration, fn func()) { c.s.After(Duration(d), fn) }

// Fired returns how many events have executed (a cost metric for tests).
func (s *Sim) Fired() uint64 { return s.fired }

// Pending returns the number of scheduled-but-unfired events.
func (s *Sim) Pending() int { return len(s.events) }

// At schedules fn to run at absolute time t (>= Now).
func (s *Sim) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("event: schedule at %v before now %v", t, s.now))
	}
	s.events.push(item{at: t, seq: s.next, fn: fn})
	s.next++
}

// After schedules fn to run d nanoseconds from now.
func (s *Sim) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("event: negative delay %v", d))
	}
	s.At(s.now+d, fn)
}

// Step fires the earliest event. It reports false when none remain.
func (s *Sim) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	it := s.events.pop()
	s.now = it.at
	s.fired++
	it.fn()
	return true
}

// Run fires events until none remain.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled beyond it stay pending.
func (s *Sim) RunUntil(deadline Time) {
	for len(s.events) > 0 && s.events[0].at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor runs for d simulated nanoseconds from the current time.
func (s *Sim) RunFor(d Time) { s.RunUntil(s.now + d) }

// Ticker invokes fn every period until it returns false. The first firing
// happens one period from now.
func (s *Sim) Ticker(period Time, fn func() bool) {
	if period <= 0 {
		panic("event: non-positive ticker period")
	}
	var tick func()
	tick = func() {
		if fn() {
			s.After(period, tick)
		}
	}
	s.After(period, tick)
}

// Wall is the Clock on real time, optionally slowed down: Now is the real
// time since the clock started (or was last Reset) divided by its scale,
// and After(d) runs fn on its own goroutine Real(d) later, unless Stop
// came first.
type Wall struct {
	scale float64 // real seconds per clock second

	mu    sync.Mutex
	start time.Time

	gate    sync.RWMutex // running callbacks hold it shared; Stop takes it whole
	stopped bool
}

// NewWall starts a wall clock running scale times slower than real time;
// 1 is real time.
func NewWall(scale float64) *Wall { return &Wall{scale: scale, start: time.Now()} }

// Now returns the clock time since the start.
func (w *Wall) Now() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return time.Duration(float64(time.Since(w.start)) / w.scale)
}

// Real converts a span of clock time into the real time it lasts.
func (w *Wall) Real(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(float64(d) * w.scale)
}

// After runs fn Real(d) from now, unless the clock is stopped by then.
func (w *Wall) After(d time.Duration, fn func()) {
	time.AfterFunc(w.Real(d), func() {
		w.gate.RLock()
		defer w.gate.RUnlock()
		if !w.stopped {
			fn()
		}
	})
}

// Reset restarts the clock at zero.
func (w *Wall) Reset() {
	w.mu.Lock()
	w.start = time.Now()
	w.mu.Unlock()
}

// Stop waits for the callbacks already running; no other ever runs.
func (w *Wall) Stop() {
	w.gate.Lock()
	w.stopped = true
	w.gate.Unlock()
}
