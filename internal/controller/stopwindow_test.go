package controller

import (
	"errors"
	"slices"
	"testing"

	"netchain/internal/core"
	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/ring"
)

// The stop window (freeze → drain → copy → flip → hold → collect → thaw)
// is the migration engine's, whatever started the migration. These tests
// pin its two safety rules on every planned kind: the freeze outlives the
// flip by one rule delay on the members that stay (StopWindowHold), and
// nothing is copied or flipped before the writes stamped ahead of the
// freeze have reached every replica (StopWindowDrain).

func windowConfig() Config {
	cfg := DefaultConfig()
	cfg.SyncPerItem = 0 // the stop window is exactly one rule delay
	return cfg
}

// resizeKey finds a key whose chain keeps its group, head and middle and
// swaps its tail for S3 when S3 joins the ring — looked up on a scratch
// fixture, so the caller can stamp a write before its own AddSwitch.
func resizeKey(t *testing.T) kv.Key {
	t.Helper()
	f := newFixture(t, windowConfig(), 8)
	s3 := f.tb.Switches[3]
	before := make([]ring.Chain, 64)
	for i := range before {
		before[i] = f.ring.ChainForKey(kv.KeyFromUint64(uint64(i)))
	}
	if _, err := f.ctl.AddSwitch(s3, nil); err != nil {
		t.Fatal(err)
	}
	for i, was := range before {
		now := f.ring.ChainForKey(kv.KeyFromUint64(uint64(i)))
		if now.Group == was.Group && len(now.Hops) == 3 && now.Tail() == s3 &&
			slices.Equal(now.Hops[:2], was.Hops[:2]) {
			return kv.KeyFromUint64(uint64(i))
		}
	}
	t.Fatal("no key keeps its head and gains S3 as tail")
	return kv.Key{}
}

// windowKinds starts one migration of k's group per planned kind; each
// returns the chain the group ends up on. old is the route k was inserted
// on; prepare (optional) runs to completion before the test stamps its
// write. held is the hop of old the drain test holds its stamped write in
// front of: the middle for a chain that swaps its tail, the tail when the
// migration is about the order of the last two.
var windowKinds = []struct {
	name    string
	held    int
	key     func(t *testing.T, f *fixture) kv.Key
	prepare func(t *testing.T, f *fixture, old Route)
	start   func(t *testing.T, f *fixture, old Route) []packet.Addr
}{
	{
		name: "resize",
		held: 1,
		key:  func(t *testing.T, _ *fixture) kv.Key { return resizeKey(t) },
		start: func(t *testing.T, f *fixture, old Route) []packet.Addr {
			if _, err := f.ctl.AddSwitch(f.tb.Switches[3], nil); err != nil {
				t.Fatal(err)
			}
			return []packet.Addr{old.Hops[0], old.Hops[1], f.tb.Switches[3]}
		},
	},
	{
		name: "rehome",
		held: 1,
		key:  func(*testing.T, *fixture) kv.Key { return kv.KeyFromString("window/rehome") },
		start: func(t *testing.T, f *fixture, old Route) []packet.Addr {
			s3 := f.tb.Switches[3]
			if err := f.ctl.Ring().AddMember(s3); err != nil {
				t.Fatal(err)
			}
			next := []packet.Addr{old.Hops[0], old.Hops[1], s3}
			if err := f.ctl.Rehome(map[ring.GroupID][]packet.Addr{ring.GroupID(old.Group): next}, nil); err != nil {
				t.Fatal(err)
			}
			return next
		},
	},
	{
		name: "reorder",
		held: 2,
		key:  func(*testing.T, *fixture) kv.Key { return kv.KeyFromString("window/reorder") },
		start: func(t *testing.T, f *fixture, old Route) []packet.Addr {
			if n, err := f.ctl.Demote(old.Hops[2], nil); err != nil || n == 0 {
				t.Fatalf("demote of the tail: %d groups, %v", n, err)
			}
			return []packet.Addr{old.Hops[0], old.Hops[2], old.Hops[1]}
		},
	},
	{
		// The tail is already demoted and a write routed on the pre-demote
		// order is on its way to it: head and tail of the serving order
		// both hold the write, the member between them does not.
		name: "restore",
		held: 2,
		key:  func(*testing.T, *fixture) kv.Key { return kv.KeyFromString("window/restore") },
		prepare: func(t *testing.T, f *fixture, old Route) {
			if n, err := f.ctl.Demote(old.Hops[2], nil); err != nil || n == 0 {
				t.Fatalf("demote of the tail: %d groups, %v", n, err)
			}
			f.sim.Run()
		},
		start: func(t *testing.T, f *fixture, old Route) []packet.Addr {
			if n, err := f.ctl.Restore(old.Hops[2], nil); err != nil || n == 0 {
				t.Fatalf("restore of the demoted tail: %d groups, %v", n, err)
			}
			return old.Hops
		},
	},
}

// TestStopWindowHold (H1): a write that resolved the old route just before
// the flip reaches a head that stays in the chain. A head thawed AT the
// flip stamps it and the old tail acknowledges it — on a chain the state
// copy has already left, so the new tail never sees an acknowledged write.
func TestStopWindowHold(t *testing.T) {
	for _, kind := range windowKinds[:2] { // a reorder has no member the state copy could leave behind
		t.Run(kind.name, func(t *testing.T) {
			cfg := windowConfig()
			f := newFixture(t, cfg, 8)
			k := kind.key(t, f)
			old, err := f.ctl.Insert(k)
			if err != nil {
				t.Fatal(err)
			}
			if rep, ok := f.writeVia(t, 0, old, k, "v1"); !ok || rep.Status != kv.StatusOK {
				t.Fatalf("setup write: %+v ok=%v", rep, ok)
			}
			next := kind.start(t, f, old)

			const staleQID = 7777
			f.sim.Ticker(event.Duration(cfg.RuleDelay/8), func() bool {
				if slices.Equal(f.ctl.Route(k).Hops, old.Hops) {
					return f.ctl.Resizing()
				}
				fr, err := query.NewWrite(f.ep(0), staleQID, query.Route{Group: old.Group, Hops: old.Hops}, k, kv.Value("stale"))
				if err != nil {
					t.Error(err)
					return false
				}
				f.tb.Net.Inject(f.tb.Hosts[0], fr)
				return false
			})
			f.sim.Run()

			if rt := f.ctl.Route(k); !slices.Equal(rt.Hops, next) {
				t.Fatalf("route after the migration = %v, want %v", rt.Hops, next)
			}
			rep, ok := f.replies[staleQID]
			if !ok || rep.Status != kv.StatusUnavailable {
				t.Fatalf("write on the pre-flip route, sent as the route flipped: %+v ok=%v, want StatusUnavailable", rep, ok)
			}
			if rep, ok := f.write(t, 0, k, "fresh"); !ok || rep.Status != kv.StatusOK {
				t.Fatalf("write on the fresh route: %+v ok=%v", rep, ok)
			}
			if rep, ok := f.read(t, 0, k); !ok || string(rep.Value) != "fresh" {
				t.Fatalf("read on the fresh route: %+v ok=%v", rep, ok)
			}
		})
	}
}

// TestStopWindowDrain (H2): a write the head stamped before the migration
// is still on the wire 1.5 rule delays after the head froze — past the
// stop window. The chain it was routed on goes on to acknowledge it, so
// the engine must neither copy nor flip before it has landed: at delivery
// the route still names the serving chain, and afterwards every member of
// the new chain holds the write at its stamped version.
func TestStopWindowDrain(t *testing.T) {
	for _, kind := range windowKinds {
		t.Run(kind.name, func(t *testing.T) {
			cfg := windowConfig()
			f := newFixture(t, cfg, 8)
			k := kind.key(t, f)
			old, err := f.ctl.Insert(k)
			if err != nil {
				t.Fatal(err)
			}
			if rep, ok := f.writeVia(t, 0, old, k, "v1"); !ok || rep.Status != kv.StatusOK {
				t.Fatalf("setup write: %+v ok=%v", rep, ok)
			}
			if kind.prepare != nil {
				kind.prepare(t, f, old)
			}
			serving := f.ctl.Route(k)
			sw := make([]*core.Switch, len(old.Hops))
			for i, h := range old.Hops {
				sw[i], _ = f.tb.Net.Switch(h)
			}
			fr, err := query.NewWrite(f.ep(0), 9999, query.Route{Group: old.Group, Hops: old.Hops}, k, kv.Value("v2"))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < kind.held; i++ {
				if d, _ := sw[i].ProcessLocal(fr); d != core.Forward || fr.IP.Dst != old.Hops[i+1] {
					t.Fatalf("hop %d did not forward the write down the chain: %v, dst %v", i, d, fr.IP.Dst)
				}
			}
			stamped, _ := sw[0].ReadItem(k)

			next := kind.start(t, f, old)
			delivered := false
			ticks := 0
			f.sim.Ticker(event.Duration(cfg.RuleDelay/8), func() bool {
				if ticks++; !sw[0].WriteFrozen(old.Group) {
					return ticks < 1000
				}
				f.sim.After(event.Duration(cfg.RuleDelay*3/2), func() {
					if rt := f.ctl.Route(k); !slices.Equal(rt.Hops, serving.Hops) {
						t.Errorf("route flipped from %v to %v with a stamped write still in flight on %v",
							serving.Hops, rt.Hops, old.Hops)
					}
					for i := kind.held; i < len(sw); i++ {
						sw[i].ProcessLocal(fr)
					}
					delivered = true
				})
				return false
			})
			f.sim.Run()

			if !delivered {
				t.Fatal("the head never froze")
			}
			if rt := f.ctl.Route(k); !slices.Equal(rt.Hops, next) {
				t.Fatalf("route after the migration = %v, want %v", rt.Hops, next)
			}
			for _, h := range next {
				member, _ := f.tb.Net.Switch(h)
				got, err := member.ReadItem(k)
				if err != nil {
					t.Fatalf("%v holds no slot for the key: %v", h, err)
				}
				if string(got.Value) != "v2" || got.Version != stamped.Version {
					t.Fatalf("%v holds %q %v, want the in-flight write %q %v",
						h, got.Value, got.Version, "v2", stamped.Version)
				}
			}
		})
	}
}

// TestDrainBarrierComparesEveryMember: head and tail agree, the member
// between them is one version behind — a write routed on another order of
// the same members is still on its way to it. Not drained.
func TestDrainBarrierComparesEveryMember(t *testing.T) {
	f := newFixture(t, windowConfig(), 8)
	k := kv.KeyFromString("window/barrier")
	rt, err := f.ctl.Insert(k)
	if err != nil {
		t.Fatal(err)
	}
	if rep, ok := f.writeVia(t, 0, rt, k, "v1"); !ok || rep.Status != kv.StatusOK {
		t.Fatalf("setup write: %+v ok=%v", rep, ok)
	}
	ch := ring.Chain{Group: ring.GroupID(rt.Group), Hops: rt.Hops}
	keys := []kv.Key{k}
	if !f.ctl.chainAgrees(ch, keys) {
		t.Fatal("a quiescent chain does not agree")
	}
	head, _ := f.tb.Net.Switch(rt.Hops[0])
	mid, _ := f.tb.Net.Switch(rt.Hops[1])
	tail, _ := f.tb.Net.Switch(rt.Hops[2])
	it, _ := head.ReadItem(k)
	it.Value, it.Version.Seq = kv.Value("v2"), it.Version.Seq+1
	for _, sw := range []*core.Switch{head, tail} {
		if err := sw.WriteItem(it); err != nil {
			t.Fatal(err)
		}
	}
	if f.ctl.chainAgrees(ch, keys) {
		t.Fatal("drained although the middle member is one version behind head and tail")
	}
	if err := mid.WriteItem(it); err != nil {
		t.Fatal(err)
	}
	if !f.ctl.chainAgrees(ch, keys) {
		t.Fatal("not drained although every member holds the same version")
	}
}

// TestFlipHandsSessionToAReplicaThatBecomesHead: only the serving head is
// ever told a group's session, so a flip that moves an existing replica up
// to head must bump — a head stamping under the session it last heard as a
// replica has every write dropped as stale down the chain.
func TestFlipHandsSessionToAReplicaThatBecomesHead(t *testing.T) {
	f := newFixture(t, windowConfig(), 8)
	k := f.keyWithChain(t, [3]int{1, 0, 2}) // S1 is head
	rt, err := f.ctl.Insert(k)
	if err != nil {
		t.Fatal(err)
	}
	g := ring.GroupID(rt.Group)
	// Two head changes (failover, recovery) put the group at session 2,
	// known to the recovered head alone.
	s1, s3 := f.tb.Switches[1], f.tb.Switches[3]
	f.tb.Net.FailSwitch(s1)
	f.ctl.HandleFailure(s1, nil)
	f.sim.Run()
	f.ctl.Recover(s1, []packet.Addr{s3}, nil)
	f.sim.Run()
	if rep, ok := f.write(t, 0, k, "a"); !ok || rep.Status != kv.StatusOK {
		t.Fatalf("write before the rehome: %+v ok=%v", rep, ok)
	}
	rt = f.ctl.Route(k)
	next := []packet.Addr{rt.Hops[1], rt.Hops[2], rt.Hops[0]} // the middle replica moves up
	if err := f.ctl.Rehome(map[ring.GroupID][]packet.Addr{g: next}, nil); err != nil {
		t.Fatal(err)
	}
	f.sim.Run()
	head, _ := f.tb.Net.Switch(next[0])
	if got, want := head.Session(uint16(g)), f.ctl.Session(g); got != want {
		t.Fatalf("new head stamps session %d while the group is at %d", got, want)
	}
	if rep, ok := f.write(t, 0, k, "b"); !ok || rep.Status != kv.StatusOK {
		t.Fatalf("write through the moved head: %+v ok=%v", rep, ok)
	}
	if rep, ok := f.read(t, 0, k); !ok || string(rep.Value) != "b" {
		t.Fatalf("read after the moved head's write: %+v ok=%v", rep, ok)
	}
}

// failingAgent fails the calls its hooks name and passes the rest through.
type failingAgent struct {
	Agent
	freeze  func() error
	install func(keys []kv.Key) error
}

func (a failingAgent) FreezeWrites(g uint16, frozen bool) error {
	if a.freeze != nil {
		if err := a.freeze(); err != nil {
			return err
		}
	}
	return a.Agent.FreezeWrites(g, frozen)
}

func (a failingAgent) InstallKeys(keys []kv.Key) error {
	if a.install != nil {
		if err := a.install(keys); err != nil {
			return err
		}
	}
	return a.Agent.InstallKeys(keys)
}

// TestAgentErrorsCounted: a best-effort agent call that fails is counted,
// not dropped, and the migration carries on.
func TestAgentErrorsCounted(t *testing.T) {
	f := newFixture(t, windowConfig(), 8)
	k := kv.KeyFromString("window/errors")
	rt, err := f.ctl.Insert(k)
	if err != nil {
		t.Fatal(err)
	}
	failed := false
	f.wrap = func(_ packet.Addr, a Agent) Agent {
		return failingAgent{Agent: a, freeze: func() error {
			if failed {
				return nil
			}
			failed = true
			return errors.New("agent unreachable")
		}}
	}
	if got := f.ctl.AgentErrors(); got != 0 {
		t.Fatalf("AgentErrors = %d before anything failed", got)
	}
	done := false
	if _, err := f.ctl.Demote(rt.Hops[2], func() { done = true }); err != nil {
		t.Fatal(err)
	}
	f.sim.Run()
	if !done {
		t.Fatal("the demotion did not finish past the failed freeze")
	}
	if got := f.ctl.AgentErrors(); got != 1 {
		t.Fatalf("AgentErrors = %d, want 1", got)
	}
}

// TestInsertInstallsTailFirst: a switch that holds a key's slot always has
// every successor holding it — while an insert runs and while it rolls
// back — so a write racing the insert finds no slot at the first hop it
// needs one and nothing is applied.
func TestInsertInstallsTailFirst(t *testing.T) {
	t.Run("rollback", func(t *testing.T) {
		f := newFixture(t, DefaultConfig(), 8)
		k := kv.KeyFromString("insert/rollback")
		hops := f.ctl.Route(k).Hops
		f.wrap = func(sw packet.Addr, a Agent) Agent {
			if sw != hops[1] {
				return a
			}
			return failingAgent{Agent: a, install: func([]kv.Key) error { return errors.New("table full") }}
		}
		if _, err := f.ctl.Insert(k); err == nil {
			t.Fatal("insert succeeded past a failing middle hop")
		}
		for _, h := range hops {
			if sw, _ := f.tb.Net.Switch(h); sw.HasKey(k) {
				t.Fatalf("failed insert left a slot on %v", h)
			}
		}
		if n := f.ctl.KeyCount(f.ring.GroupForKey(k)); n != 0 {
			t.Fatalf("failed insert left %d keys tracked", n)
		}
	})
	t.Run("racing write", func(t *testing.T) {
		f := newFixture(t, DefaultConfig(), 8)
		k := kv.KeyFromString("insert/race")
		rt := f.ctl.Route(k)
		const qid = 4242
		installs := 0
		f.wrap = func(_ packet.Addr, a Agent) Agent {
			return failingAgent{Agent: a, install: func([]kv.Key) error {
				if installs++; installs != 2 {
					return nil
				}
				// One switch holds the slot, the second is about to.
				fr, err := query.NewWrite(f.ep(0), qid, query.Route{Group: rt.Group, Hops: rt.Hops}, k, kv.Value("early"))
				if err != nil {
					t.Fatal(err)
				}
				f.tb.Net.Inject(f.tb.Hosts[0], fr)
				f.sim.Run()
				return nil
			}}
		}
		if _, err := f.ctl.Insert(k); err != nil {
			t.Fatal(err)
		}
		if rep, ok := f.replies[qid]; !ok || rep.Status != kv.StatusNotFound {
			t.Fatalf("write racing the insert: %+v ok=%v, want StatusNotFound", rep, ok)
		}
		for _, h := range rt.Hops {
			sw, _ := f.tb.Net.Switch(h)
			if st := sw.Stats(); st.WritesHead != 0 || st.WritesApply != 0 {
				t.Fatalf("%v applied the racing write (%d stamped, %d applied)", h, st.WritesHead, st.WritesApply)
			}
			if it, err := sw.ReadItem(k); err != nil || !it.Version.IsZero() {
				t.Fatalf("%v after the insert: %+v, %v", h, it, err)
			}
		}
	})
}

// TestRouteDoesNotAllocate: Route hands out the published chain.
func TestRouteDoesNotAllocate(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 8)
	k := kv.KeyFromString("route/allocs")
	if _, err := f.ctl.Insert(k); err != nil {
		t.Fatal(err)
	}
	var hops int
	if n := testing.AllocsPerRun(100, func() { hops += len(f.ctl.Route(k).Hops) }); n != 0 {
		t.Fatalf("Route allocates %v times per call", n)
	}
	if hops == 0 {
		t.Fatal("empty route")
	}
}
