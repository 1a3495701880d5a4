package netchain

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"netchain/internal/packet"
)

// client is the agent API both substrates' clients offer (§3, §7).
type client interface {
	Read(k Key) (Value, Version, error)
	Write(k Key, v Value) (Version, error)
	Delete(k Key) error
	CAS(k Key, expect uint64, v Value) (bool, Value, error)
	Acquire(lock Key, owner uint64) (bool, error)
	Release(lock Key, owner uint64) (bool, error)
	Watch(ctx context.Context, keys []Key, opts ...WatchOption) (<-chan WatchEvent, error)
}

// cluster is the verbs Cluster and SimCluster share. Only this suite is
// generic over the substrate, so the interface stays here, unexported.
type cluster[C client] interface {
	Insert(k Key) error
	NewClient(i int) (C, error)
	FailSwitch(i int) error
	Recover(i, spare int) error
	AddSwitch() (int, error)
	RemoveSwitch(i int) error
	SwitchAddr(i int) (packet.Addr, error)
	Close() error
}

var (
	_ cluster[*Client]    = (*Cluster)(nil)
	_ cluster[*SimClient] = (*SimCluster)(nil)
)

// rig is one booted substrate as the case bodies see it. pass is the one
// per-substrate hook: it lets a millisecond go by (RunFor on the sim, a
// sleep on the wire).
type rig[C client] struct {
	cluster[C]
	pass func()
}

// client attaches a client at index i; a wire client's socket closes with
// the test.
func (r rig[C]) client(t *testing.T, i int) C {
	t.Helper()
	c, err := r.NewClient(i)
	if err != nil {
		t.Fatal(err)
	}
	if cl, ok := any(c).(io.Closer); ok {
		t.Cleanup(func() { cl.Close() })
	}
	return c
}

// seed inserts keys and writes prefix+i under key i through c.
func (r rig[C]) seed(t *testing.T, c C, keys []Key, prefix string) {
	t.Helper()
	for _, k := range keys {
		if err := r.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	writeAll(t, c, keys, prefix)
}

func writeAll[C client](t *testing.T, c C, keys []Key, prefix string) {
	t.Helper()
	for i, k := range keys {
		if _, err := c.Write(k, Value(fmt.Sprintf("%s%d", prefix, i))); err != nil {
			t.Fatalf("write %d (%s): %v", i, prefix, err)
		}
	}
}

func readAll[C client](t *testing.T, c C, keys []Key, prefix, when string) {
	t.Helper()
	for i, k := range keys {
		if v, _, err := c.Read(k); err != nil || string(v) != fmt.Sprintf("%s%d", prefix, i) {
			t.Fatalf("read %d %s: %q %v", i, when, v, err)
		}
	}
}

// recv waits for ch's next event or its close, letting time pass between
// polls.
func (r rig[C]) recv(t *testing.T, ch <-chan WatchEvent) (WatchEvent, bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		select {
		case ev, open := <-ch:
			return ev, open
		default:
			r.pass()
		}
	}
	t.Fatal("watch stream idle")
	return WatchEvent{}, false
}

// expect requires ch's next event to carry want's type and value.
func (r rig[C]) expect(t *testing.T, ch <-chan WatchEvent, want WatchEvent) WatchEvent {
	t.Helper()
	ev, open := r.recv(t, ch)
	if !open || ev.Type != want.Type || string(ev.Value) != string(want.Value) {
		t.Fatalf("event = %+v (open %v), want %v %q", ev, open, want.Type, want.Value)
	}
	return ev
}

func keyRange(base, n int) []Key {
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = KeyFromUint64(uint64(base + i))
	}
	return keys
}

var (
	kvKey       = KeyFromString("app/config")
	elasticKeys = keyRange(7000, 8)
)

func putGetDelete[C client](t *testing.T, r rig[C]) {
	c := r.client(t, 0)
	if err := r.Insert(kvKey); err != nil {
		t.Fatal(err)
	}
	ver, err := c.Write(kvKey, Value(`{"timeout": 30}`))
	if err != nil || ver.Seq != 1 {
		t.Fatalf("write: %v %v", ver, err)
	}
	v, rv, err := c.Read(kvKey)
	if err != nil || string(v) != `{"timeout": 30}` || rv != ver {
		t.Fatalf("read: %q %v %v", v, rv, err)
	}
	if err := c.Delete(kvKey); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Read(kvKey); err != ErrNotFound {
		t.Fatalf("read after delete: %v", err)
	}
}

func casAndLocks[C client](t *testing.T, r rig[C]) {
	c := r.client(t, 0)
	lk := KeyFromString("lock/api")
	if err := r.Insert(lk); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.Acquire(lk, 7); err != nil || !ok {
		t.Fatalf("acquire: %v %v", ok, err)
	}
	if ok, err := c.Acquire(lk, 8); err != nil || ok {
		t.Fatalf("contender acquired a held lock: %v %v", ok, err)
	}
	for _, expect := range []uint64{999, 0} {
		swapped, stored, err := c.CAS(lk, expect, LockValue(1, nil))
		if err != nil || swapped || LockOwner(stored) != 7 {
			t.Fatalf("CAS expecting %d = %v, owner %d, %v; want refused, owner 7", expect, swapped, LockOwner(stored), err)
		}
	}
	if ok, err := c.Release(lk, 7); err != nil || !ok {
		t.Fatalf("owner release: %v %v", ok, err)
	}
	if ok, _, err := c.CAS(lk, 0, LockValue(5, nil)); err != nil || !ok {
		t.Fatalf("CAS on the released lock: %v %v", ok, err)
	}
}

// watchLifecycle: Created → Updated → Deleted through the push path, then
// cancel closes the channel.
func watchLifecycle[C client](t *testing.T, r rig[C]) {
	writer, observer := r.client(t, 0), r.client(t, 1)
	k := KeyFromString("push/cfg")
	if err := r.Insert(k); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := observer.Watch(ctx, []Key{k}, WithResyncInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	r.pass() // the initial fetch finds the key absent: no event
	if _, err := writer.Write(k, Value("v1")); err != nil {
		t.Fatal(err)
	}
	r.expect(t, ch, WatchEvent{Type: WatchCreated, Value: Value("v1")})
	if _, err := writer.Write(k, Value("v2")); err != nil {
		t.Fatal(err)
	}
	if ev := r.expect(t, ch, WatchEvent{Type: WatchUpdated, Value: Value("v2")}); ev.Version.Seq != 2 {
		t.Fatalf("update carries %v, want seq 2", ev.Version)
	}
	if err := writer.Delete(k); err != nil {
		t.Fatal(err)
	}
	r.expect(t, ch, WatchEvent{Type: WatchDeleted})
	cancel()
	if ev, open := r.recv(t, ch); open {
		t.Fatalf("event after cancel: %+v", ev)
	}
}

// watchSurvivesFailSwitch: the stream keeps delivering after a chain
// switch fail-stops and the controller rewires the chain — the new tail's
// commits keep feeding the relay.
func watchSurvivesFailSwitch[C client](t *testing.T, r rig[C]) {
	c := r.client(t, 0)
	k := KeyFromString("push/ha")
	r.seed(t, c, []Key{k}, "v")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := c.Watch(ctx, []Key{k}, WithResyncInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	r.expect(t, ch, WatchEvent{Type: WatchCreated, Value: Value("v0")})
	if err := r.FailSwitch(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(k, Value("post-failover")); err != nil {
		t.Fatal(err)
	}
	r.expect(t, ch, WatchEvent{Type: WatchUpdated, Value: Value("post-failover")})
}

// failSwitchRecover: data survives failover and recovery onto the spare;
// a second FailSwitch and a Recover onto a ring member are refused and
// change nothing.
func failSwitchRecover[C client](t *testing.T, r rig[C]) {
	c := r.client(t, 0)
	keys := keyRange(0, 6)
	r.seed(t, c, keys, "v")
	if err := r.FailSwitch(1); err != nil {
		t.Fatal(err)
	}
	if err := r.FailSwitch(1); err == nil || err.Error() != "controller: 10.0.0.2 already failed over" {
		t.Fatalf("second FailSwitch(1) = %v", err)
	}
	readAll(t, c, keys, "v", "after failover")
	if err := r.Recover(1, 2); err == nil || !strings.Contains(err.Error(), "leaves 2 switches for 3-replica chains") {
		t.Fatalf("Recover(1, 2) onto a ring member = %v", err)
	}
	if err := r.Recover(1, 3); err != nil {
		t.Fatal(err)
	}
	writeAll(t, c, keys, "w")
	readAll(t, c, keys, "w", "after recovery")
}

// addRemoveSwitch: a fresh switch joins as index 4 and drains out again,
// with data intact and writable after each step.
func addRemoveSwitch[C client](t *testing.T, r rig[C]) {
	c := r.client(t, 0)
	r.seed(t, c, elasticKeys, "v")
	idx, err := r.AddSwitch()
	if err != nil || idx != 4 {
		t.Fatalf("AddSwitch() = %d, %v; want 4", idx, err)
	}
	readAll(t, c, elasticKeys, "v", "after scale-out")
	writeAll(t, c, elasticKeys, "w")
	if err := r.RemoveSwitch(idx); err != nil {
		t.Fatal(err)
	}
	readAll(t, c, elasticKeys, "w", "after scale-in")
	writeAll(t, c, elasticKeys, "final")
}

// badIndex: every verb that takes an index answers one the cluster never
// booted with an error instead of panicking.
func badIndex[C client](t *testing.T, r rig[C]) {
	for name, call := range map[string]func() error{
		"NewClient(99)":    func() error { _, err := r.NewClient(99); return err },
		"NewClient(-1)":    func() error { _, err := r.NewClient(-1); return err },
		"FailSwitch(9)":    func() error { return r.FailSwitch(9) },
		"Recover(0, 9)":    func() error { return r.Recover(0, 9) },
		"Recover(9, 3)":    func() error { return r.Recover(9, 3) },
		"RemoveSwitch(-1)": func() error { return r.RemoveSwitch(-1) },
		"SwitchAddr(4)":    func() error { _, err := r.SwitchAddr(4); return err },
		"SwitchAddr(-1)":   func() error { _, err := r.SwitchAddr(-1); return err },
	} {
		if err := call(); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s = %v, want an out-of-range error", name, err)
		}
	}
}

// TestContract runs every case of the cluster contract against the live
// loopback cluster and the simulated testbed. A substrate-only assertion
// follows the shared body in that substrate's subtest.
func TestContract(t *testing.T) {
	for _, c := range []struct {
		name     string
		wire     func(*testing.T, rig[*Client])
		sim      func(*testing.T, rig[*SimClient])
		wireThen func(*testing.T, *Cluster)
		simThen  func(*testing.T, *SimCluster)
	}{
		{name: "PutGetDelete", wire: putGetDelete[*Client], sim: putGetDelete[*SimClient],
			wireThen: func(t *testing.T, cl *Cluster) {
				if err := cl.GC(kvKey); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "CASAndLocks", wire: casAndLocks[*Client], sim: casAndLocks[*SimClient]},
		{name: "WatchLifecycle", wire: watchLifecycle[*Client], sim: watchLifecycle[*SimClient],
			wireThen: func(t *testing.T, cl *Cluster) {
				if rs := cl.RelayStats(); rs.EventsIn < 3 || rs.EgressDatagrams < 3 {
					t.Fatalf("relay stats = %+v, want ≥3 events through the tier", rs)
				}
			}},
		{name: "WatchSurvivesFailSwitch", wire: watchSurvivesFailSwitch[*Client], sim: watchSurvivesFailSwitch[*SimClient]},
		{name: "FailSwitchRecover", wire: failSwitchRecover[*Client], sim: failSwitchRecover[*SimClient],
			simThen: func(t *testing.T, s *SimCluster) {
				if s.Now() == 0 {
					t.Fatal("simulated clock did not advance")
				}
			}},
		{name: "AddRemoveSwitch", wire: addRemoveSwitch[*Client], sim: addRemoveSwitch[*SimClient],
			wireThen: func(t *testing.T, cl *Cluster) {
				drained, err := cl.SwitchAddr(4)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range elasticKeys {
					for _, h := range cl.Controller().Route(k).Hops {
						if h == drained {
							t.Fatalf("key still routed through drained switch %v", drained)
						}
					}
				}
			}},
		{name: "BadIndex", wire: badIndex[*Client], sim: badIndex[*SimClient]},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Run("wire", func(t *testing.T) {
				cl, err := StartLocalCluster(ClusterConfig{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { cl.Close() })
				c.wire(t, rig[*Client]{cl, func() { time.Sleep(time.Millisecond) }})
				if c.wireThen != nil {
					c.wireThen(t, cl)
				}
			})
			t.Run("sim", func(t *testing.T) {
				s, err := NewSimCluster(SimConfig{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				c.sim(t, rig[*SimClient]{s, func() { s.RunFor(time.Millisecond) }})
				if c.simThen != nil {
					c.simThen(t, s)
				}
			})
		})
	}
}
