package controller

import (
	"io"
	"maps"
	"slices"
	"sync"

	"netchain/internal/packet"
)

// Follower mirrors a registry's membership; transport.Monitor is one.
type Follower interface {
	Watch(sw packet.Addr)
	Forget(sw packet.Addr)
}

// Agents is a live deployment's agent registry, one agent per switch the
// controller can program, safe for concurrent use. The zero value is empty.
type Agents struct {
	mu     sync.RWMutex
	m      map[packet.Addr]Agent
	follow Follower
}

// Get is the controller's agent lookup.
func (r *Agents) Get(sw packet.Addr) (Agent, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.m[sw]
	return a, ok
}

// Neighbors lists every registered switch but failed: with no topology to
// consult, failover rules go to a safe superset of the physical neighbours.
func (r *Agents) Neighbors(failed packet.Addr) []packet.Addr {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []packet.Addr
	for sw := range r.m {
		if sw != failed {
			out = append(out, sw)
		}
	}
	return out
}

// Set registers a as sw's agent, closing the agent it replaces.
func (r *Agents) Set(sw packet.Addr, a Agent) { r.Admit(sw, a, nil) }

// Admit registers a as sw's agent while admit runs, so the controller can
// program sw from inside it, and keeps it only if admit succeeds. A refusal
// puts back the agent a displaced, closes a and skips the follower.
func (r *Agents) Admit(sw packet.Addr, a Agent, admit func() error) error {
	old, f := r.put(sw, a)
	if admit != nil {
		if err := admit(); err != nil {
			r.put(sw, old)
			closeAgent(a)
			return err
		}
	}
	closeAgent(old)
	if f != nil {
		f.Watch(sw)
	}
	return nil
}

// Delete forgets sw's agent and closes it; the follower forgets sw.
func (r *Agents) Delete(sw packet.Addr) {
	old, f := r.put(sw, nil)
	closeAgent(old)
	if f != nil {
		f.Forget(sw)
	}
}

// put makes a sw's agent, or unregisters sw if a is nil, and returns the
// agent it replaced (nil if none) and the follower.
func (r *Agents) put(sw packet.Addr, a Agent) (Agent, Follower) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.m[sw]
	if a == nil {
		delete(r.m, sw)
	} else if r.m == nil {
		r.m = map[packet.Addr]Agent{sw: a}
	} else {
		r.m[sw] = a
	}
	return old, r.follow
}

// Follow has f mirror the registry, starting with a Watch of every switch.
func (r *Agents) Follow(f Follower) {
	r.mu.Lock()
	r.follow = f
	sws := slices.Collect(maps.Keys(r.m))
	r.mu.Unlock()
	for _, sw := range sws {
		f.Watch(sw)
	}
}

func closeAgent(a Agent) {
	if c, ok := a.(io.Closer); ok {
		c.Close()
	}
}
