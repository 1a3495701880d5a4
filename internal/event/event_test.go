package event

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

func TestOrderingByTime(t *testing.T) {
	s := New()
	var got []int
	s.After(30, func() { got = append(got, 3) })
	s.After(10, func() { got = append(got, 1) })
	s.After(20, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if s.Now() != 30 {
		t.Fatalf("now = %v, want 30", s.Now())
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	if !sort.IntsAreSorted(got) {
		t.Fatal("same-instant events must fire in scheduling order")
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var trace []Time
	s.After(10, func() {
		trace = append(trace, s.Now())
		s.After(5, func() { trace = append(trace, s.Now()) })
	})
	s.Run()
	if len(trace) != 2 || trace[0] != 10 || trace[1] != 15 {
		t.Fatalf("trace = %v", trace)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	fired := 0
	s.After(10, func() { fired++ })
	s.After(20, func() { fired++ })
	s.After(30, func() { fired++ })
	s.RunUntil(20)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if s.Now() != 20 {
		t.Fatalf("now = %v, want 20", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	s.RunFor(10)
	if fired != 3 || s.Now() != 30 {
		t.Fatalf("fired=%d now=%v", fired, s.Now())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(100)
	if s.Now() != 100 {
		t.Fatalf("now = %v, want 100", s.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.After(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past must panic")
		}
	}()
	s.At(5, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay must panic")
		}
	}()
	s.After(-1, func() {})
}

func TestTicker(t *testing.T) {
	s := New()
	count := 0
	s.Ticker(10, func() bool {
		count++
		return count < 5
	})
	s.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if s.Now() != 50 {
		t.Fatalf("now = %v, want 50", s.Now())
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("zero ticker period must panic")
		}
	}()
	s.Ticker(0, func() bool { return false })
}

func TestDeterminismUnderRandomLoad(t *testing.T) {
	run := func(seed int64) []Time {
		s := New()
		rng := rand.New(rand.NewSource(seed))
		var trace []Time
		var add func(depth int)
		add = func(depth int) {
			if depth > 3 {
				return
			}
			s.After(Time(rng.Intn(100)), func() {
				trace = append(trace, s.Now())
				if rng.Intn(2) == 0 {
					add(depth + 1)
				}
			})
		}
		for i := 0; i < 50; i++ {
			add(0)
		}
		s.Run()
		return trace
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDurationAndSeconds(t *testing.T) {
	if Duration(time.Microsecond) != 1000 {
		t.Fatal("Duration conversion wrong")
	}
	if (Time(1500000000)).Seconds() != 1.5 {
		t.Fatal("Seconds conversion wrong")
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(Time(i%64), func() {})
		s.Step()
	}
}

// TestScheduleAndFireAllocatesNothing: once the heap has grown, scheduling
// an event and firing it allocate nothing (the closure is static).
func TestScheduleAndFireAllocatesNothing(t *testing.T) {
	s := New()
	for i := 0; i < 64; i++ {
		s.After(Time(i), func() {})
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		i++
		s.After(Time(i%64), func() {})
		s.Step()
	}); n != 0 {
		t.Errorf("schedule+fire allocates %v times, want 0", n)
	}
}

// TestPopOrderIsTotal: events pop by time, and events due at one instant
// in scheduling order, however they were pushed.
func TestPopOrderIsTotal(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(1))
	type key struct {
		at  Time
		seq int
	}
	var got []key
	for i := 0; i < 2000; i++ {
		k := key{Time(rng.Intn(50)), i}
		s.At(k.at, func() { got = append(got, k) })
	}
	s.Run()
	if !slices.IsSortedFunc(got, func(a, b key) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	}) || len(got) != 2000 {
		t.Fatalf("events popped out of (time, seq) order")
	}
}

// TestWallStop: Stop waits for a callback already running, and a callback
// due later never runs.
func TestWallStop(t *testing.T) {
	w := NewWall(1)
	started, release := make(chan struct{}), make(chan struct{})
	var ran atomic.Int32
	w.After(0, func() {
		close(started)
		<-release
		ran.Add(1)
	})
	<-started
	w.After(time.Millisecond, func() { ran.Add(10) })
	stopped := make(chan struct{})
	go func() {
		w.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a callback was running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-stopped
	time.Sleep(5 * time.Millisecond)
	if got := ran.Load(); got != 1 {
		t.Fatalf("callbacks ran %d, want only the one running at Stop (1)", got)
	}
}

// TestWallScale: a scaled wall clock stretches its spans onto real time
// and reads real time back shrunk.
func TestWallScale(t *testing.T) {
	w := NewWall(20)
	if got := w.Real(time.Millisecond); got != 20*time.Millisecond {
		t.Fatalf("Real(1ms) = %v, want 20ms", got)
	}
	if got := w.Real(-time.Millisecond); got != 0 {
		t.Fatalf("Real(-1ms) = %v, want 0", got)
	}
	time.Sleep(20 * time.Millisecond)
	if now := w.Now(); now < time.Millisecond || now > 10*time.Millisecond {
		t.Fatalf("Now after 20ms of real time at scale 20 = %v, want about 1ms", now)
	}
	w.Reset()
	if now := w.Now(); now >= time.Millisecond {
		t.Fatalf("Now right after Reset = %v", now)
	}
}
