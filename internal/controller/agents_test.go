package controller

import (
	"errors"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"netchain/internal/packet"
)

// closingAgent is an agent whose Close is counted.
type closingAgent struct {
	LocalAgent
	closed atomic.Int32
}

func (a *closingAgent) Close() error {
	a.closed.Add(1)
	return nil
}

// recordingFollower logs Watch and Forget calls in order.
type recordingFollower struct {
	mu    sync.Mutex
	calls []string
}

func (f *recordingFollower) Watch(sw packet.Addr)  { f.add("watch " + sw.String()) }
func (f *recordingFollower) Forget(sw packet.Addr) { f.add("forget " + sw.String()) }

func (f *recordingFollower) add(c string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, c)
}

func (f *recordingFollower) log() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.calls)
}

func sortedNeighbors(r *Agents, failed packet.Addr) []packet.Addr {
	nb := r.Neighbors(failed)
	slices.Sort(nb)
	return nb
}

// TestAgentsRegistry: Set replaces and closes the replaced agent, Delete
// forgets and closes, Neighbors is the registered set minus the failed
// switch, a refused Admit leaves everything as it was, and the follower
// mirrors exactly the accepted changes.
func TestAgentsRegistry(t *testing.T) {
	s1, s2, s3 := packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(10, 0, 0, 2), packet.AddrFrom4(10, 0, 0, 3)
	var r Agents
	if _, ok := r.Get(s1); ok || r.Neighbors(s1) != nil {
		t.Fatal("the zero registry is not empty")
	}
	a1, a2, b1 := &closingAgent{}, &closingAgent{}, &closingAgent{}
	r.Set(s1, a1)
	f := &recordingFollower{}
	r.Follow(f) // watches the switch already registered
	r.Set(s2, a2)
	r.Set(s1, b1)
	if a1.closed.Load() != 1 || b1.closed.Load() != 0 {
		t.Fatalf("replaced agent closed %d times, its replacement %d", a1.closed.Load(), b1.closed.Load())
	}
	if got, _ := r.Get(s1); got != b1 {
		t.Fatal("Get does not return the replacing agent")
	}
	if got := sortedNeighbors(&r, s1); !reflect.DeepEqual(got, []packet.Addr{s2}) {
		t.Fatalf("Neighbors(s1) = %v", got)
	}
	if got := sortedNeighbors(&r, s3); !reflect.DeepEqual(got, []packet.Addr{s1, s2}) {
		t.Fatalf("Neighbors(unregistered) = %v", got)
	}

	refused := errors.New("refused")
	c1, c3 := &closingAgent{}, &closingAgent{}
	for sw, a := range map[packet.Addr]*closingAgent{s1: c1, s3: c3} {
		var during Agent
		if err := r.Admit(sw, a, func() error { during, _ = r.Get(sw); return refused }); err != refused {
			t.Fatalf("Admit(%v) = %v", sw, err)
		}
		if during != a {
			t.Fatalf("Admit(%v): the agent was not registered while admit ran", sw)
		}
		if a.closed.Load() != 1 {
			t.Fatalf("refused agent for %v closed %d times", sw, a.closed.Load())
		}
	}
	if got, _ := r.Get(s1); got != b1 || b1.closed.Load() != 0 {
		t.Fatal("a refused Admit did not restore the agent it displaced")
	}
	if _, ok := r.Get(s3); ok {
		t.Fatal("a refused Admit left a new switch registered")
	}

	r.Delete(s2)
	if _, ok := r.Get(s2); ok || a2.closed.Load() != 1 {
		t.Fatalf("Delete: still registered %v, closed %d times", ok, a2.closed.Load())
	}
	if got := sortedNeighbors(&r, s3); !reflect.DeepEqual(got, []packet.Addr{s1}) {
		t.Fatalf("Neighbors after Delete = %v", got)
	}
	want := []string{"watch 10.0.0.1", "watch 10.0.0.2", "watch 10.0.0.1", "forget 10.0.0.2"}
	if got := f.log(); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower saw %v, want %v", got, want)
	}
}

// TestAgentsConcurrent runs the controller's lookups against membership
// changes; run it under -race.
func TestAgentsConcurrent(t *testing.T) {
	var r Agents
	r.Follow(&recordingFollower{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, sw := range r.Neighbors(packet.AddrFrom4(10, 0, 0, 1)) {
					r.Get(sw)
				}
			}
		}()
	}
	for i := range 2000 {
		sw := packet.AddrFrom4(10, 0, 0, byte(i%8+1))
		if i%3 == 2 {
			r.Delete(sw)
		} else {
			r.Set(sw, &closingAgent{})
		}
	}
	close(stop)
	wg.Wait()
}
