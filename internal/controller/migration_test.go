package controller

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"netchain/internal/core"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/ring"
)

// recordingAgent logs every agent call the controller makes as one line:
// simulated time, switch, verb and what the verb names (group, rule or key
// count).
type recordingAgent struct {
	Agent
	sw  packet.Addr
	log func(sw packet.Addr, verb string, args ...any)
}

func (a recordingAgent) InstallKeys(keys []kv.Key) error {
	a.log(a.sw, "InstallKeys", len(keys))
	return a.Agent.InstallKeys(keys)
}

func (a recordingAgent) RemoveKeys(keys []kv.Key) error {
	a.log(a.sw, "RemoveKeys", len(keys))
	return a.Agent.RemoveKeys(keys)
}

func (a recordingAgent) SetSession(g uint16, s uint32) error {
	a.log(a.sw, "SetSession", g, s)
	return a.Agent.SetSession(g, s)
}

func (a recordingAgent) FreezeWrites(g uint16, frozen bool) error {
	a.log(a.sw, "FreezeWrites", g, frozen)
	return a.Agent.FreezeWrites(g, frozen)
}

func (a recordingAgent) InstallRule(dst packet.Addr, g int, r core.Rule) error {
	a.log(a.sw, "InstallRule", dst, g, r.Action, r.To)
	return a.Agent.InstallRule(dst, g, r)
}

func (a recordingAgent) RemoveRule(dst packet.Addr, g int) error {
	a.log(a.sw, "RemoveRule", dst, g)
	return a.Agent.RemoveRule(dst, g)
}

func (a recordingAgent) ReadItems(keys []kv.Key) ([]core.Item, []kv.Key, error) {
	a.log(a.sw, "ReadItems", len(keys))
	return a.Agent.ReadItems(keys)
}

func (a recordingAgent) WriteItems(items []core.Item) error {
	a.log(a.sw, "WriteItems", len(items))
	return a.Agent.WriteItems(items)
}

func (a recordingAgent) Keys() ([]kv.Key, error) {
	a.log(a.sw, "Keys")
	return a.Agent.Keys()
}

// transcript starts logging every agent call of f with the simulated time
// and the simulator event it is made in, so a call that moves to another
// event at the same instant moves the digest too. Its result digests the
// calls so far: calls made in one event are sorted, since HandleFailure
// and Resize range over maps.
func (f *fixture) transcript() func() (digest string, calls int) {
	var lines, at []string
	f.wrap = func(sw packet.Addr, a Agent) Agent {
		return recordingAgent{Agent: a, sw: sw, log: func(sw packet.Addr, verb string, args ...any) {
			at = append(at, fmt.Sprintf("%d/%d", f.sim.Now(), f.sim.Fired()))
			lines = append(lines, strings.TrimSpace(fmt.Sprintln(append([]any{sw, verb}, args...)...)))
		}}
	}
	return func() (string, int) {
		out := slices.Clone(lines)
		for i := 0; i < len(out); {
			j := i
			for j < len(out) && at[j] == at[i] {
				j++
			}
			slices.Sort(out[i:j])
			for x := i; x < j; x++ {
				out[x] = at[x] + " " + out[x]
			}
			i = j
		}
		sum := sha256.Sum256([]byte(strings.Join(out, "\n")))
		return hex.EncodeToString(sum[:]), len(out)
	}
}

// failAndRecover fails S1 over and recovers it onto S3.
func failAndRecover(t *testing.T, f *fixture) {
	s1, s3 := f.tb.Switches[1], f.tb.Switches[3]
	f.tb.Net.FailSwitch(s1)
	if err := f.ctl.HandleFailure(s1, nil); err != nil {
		t.Fatal(err)
	}
	f.sim.Run()
	if err := f.ctl.Recover(s1, []packet.Addr{s3}, nil); err != nil {
		t.Fatal(err)
	}
}

// migrationCases start one migration of every kind on a fixture loaded
// with 40 keys; the caller runs the simulator to quiescence. prepare
// (optional) runs to completion before anything is recorded.
var migrationCases = []struct {
	name    string
	cfg     func(*Config)
	prepare func(t *testing.T, f *fixture)
	start   func(t *testing.T, f *fixture)
}{
	{name: "recover", start: failAndRecover},
	{
		name: "presync",
		cfg: func(c *Config) {
			c.PreSync = true
			c.SyncPerItem = time.Millisecond
		},
		start: failAndRecover,
	},
	{
		name: "add",
		start: func(t *testing.T, f *fixture) {
			if _, err := f.ctl.AddSwitch(f.tb.Switches[3], nil); err != nil {
				t.Fatal(err)
			}
		},
	},
	{
		name: "remove",
		prepare: func(t *testing.T, f *fixture) {
			if _, err := f.ctl.AddSwitch(f.tb.Switches[3], nil); err != nil {
				t.Fatal(err)
			}
		},
		start: func(t *testing.T, f *fixture) {
			if _, err := f.ctl.RemoveSwitch(f.tb.Switches[1], nil); err != nil {
				t.Fatal(err)
			}
		},
	},
	{
		name: "rehome",
		start: func(t *testing.T, f *fixture) {
			s3 := f.tb.Switches[3]
			if err := f.ctl.Ring().AddMember(s3); err != nil {
				t.Fatal(err)
			}
			rt := f.ctl.Route(kv.KeyFromUint64(5000))
			next := []packet.Addr{rt.Hops[0], rt.Hops[1], s3}
			if err := f.ctl.Rehome(map[ring.GroupID][]packet.Addr{ring.GroupID(rt.Group): next}, nil); err != nil {
				t.Fatal(err)
			}
		},
	},
	{
		name: "demote",
		start: func(t *testing.T, f *fixture) {
			if n, err := f.ctl.Demote(f.tb.Switches[2], nil); err != nil || n == 0 {
				t.Fatalf("demote: %d groups, %v", n, err)
			}
		},
	},
	{
		name: "restore",
		prepare: func(t *testing.T, f *fixture) {
			if n, err := f.ctl.Demote(f.tb.Switches[2], nil); err != nil || n == 0 {
				t.Fatalf("demote: %d groups, %v", n, err)
			}
		},
		start: func(t *testing.T, f *fixture) {
			if n, err := f.ctl.Restore(f.tb.Switches[2], nil); err != nil || n == 0 {
				t.Fatalf("restore: %d groups, %v", n, err)
			}
		},
	},
}

// TestMigrationAgentCallsPinned pins, per kind of migration, every agent
// call the controller makes and the simulated instant it makes it at: a
// change to how the engine sequences a migration moves a digest.
func TestMigrationAgentCallsPinned(t *testing.T) {
	want := map[string]string{
		"recover": "81f6ef1b21aa899a6863a13d833c63f55c57db3a4c66547dfa0df50e9240ac87",
		"presync": "307c08c3d18f6c3a0316b036c355d2b4870a8b077648c0df2d468222cd3f7088",
		"add":     "6bfd50e70ff60d5daf316fa31fb8f48b5028b24e2bd5f7f8c953357cc37702de",
		"remove":  "cb4878a47ebf517afd517f8a3c5e2e10193de8a4b6bceb1d2a70559da7987b9a",
		"rehome":  "2e3dc4bd5258d3893c52f2b83f64fb9811387a3a582ada6a8eb9ecf19b17d9f8",
		"demote":  "c50f1772b88afc61d56119d2f8f5615a9c7c07468cfe0ef30579ff616a194d0a",
		"restore": "a6a07ac18ceb917d66705abd6f4f2a3ce2adde49fd7aea43012bd667a98a934f",
	}
	for _, c := range migrationCases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			if c.cfg != nil {
				c.cfg(&cfg)
			}
			f := newFixture(t, cfg, 8)
			f.loadKeys(t, 40)
			if c.prepare != nil {
				c.prepare(t, f)
				f.sim.Run()
			}
			digest := f.transcript()
			c.start(t, f)
			f.sim.Run()
			got, n := digest()
			if got != want[c.name] {
				t.Errorf("%s: %d agent calls, digest %s, want %s", c.name, n, got, want[c.name])
			}
		})
	}
}

// gcOnRead runs hook inside the ReadItems calls that name k, before the
// switch is read.
type gcOnRead struct {
	Agent
	k    kv.Key
	hook func()
}

func (a gcOnRead) ReadItems(keys []kv.Key) ([]core.Item, []kv.Key, error) {
	if slices.Contains(keys, a.k) {
		a.hook()
	}
	return a.Agent.ReadItems(keys)
}

// TestGCRacingRecoveryCopyStaysDeleted: a GC that lands between a
// recovery copy's key snapshot and the reference switch's read makes the
// reference report the key missing, so the copy installs an empty slot on
// the replacement. The flip must scrub it: a slot left there makes every
// later Insert of the key fail on the replacement ("already installed").
func TestGCRacingRecoveryCopyStaysDeleted(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 8)
	k := f.keyWithChain(t, [3]int{0, 1, 2})
	if _, err := f.ctl.Insert(k); err != nil {
		t.Fatal(err)
	}
	if rep, ok := f.write(t, 0, k, "v1"); !ok || rep.Status != kv.StatusOK {
		t.Fatalf("setup write: %+v ok=%v", rep, ok)
	}
	s1, s2, s3 := f.tb.Switches[1], f.tb.Switches[2], f.tb.Switches[3]
	f.tb.Net.FailSwitch(s2)
	if err := f.ctl.HandleFailure(s2, nil); err != nil {
		t.Fatal(err)
	}
	f.sim.Run()

	// The drain barrier reads the degraded chain S0→S1 tail first; the
	// third read of k is the copy's, on its reference S1.
	reads, collected := 0, false
	f.wrap = func(sw packet.Addr, a Agent) Agent {
		return gcOnRead{Agent: a, k: k, hook: func() {
			if reads++; reads != 3 {
				return
			}
			if sw != s1 {
				t.Errorf("third read of the key on %v, want the reference %v", sw, s1)
			}
			if err := f.ctl.GC(k); err != nil {
				t.Error(err)
			}
			collected = true
		}}
	}
	if err := f.ctl.Recover(s2, []packet.Addr{s3}, nil); err != nil {
		t.Fatal(err)
	}
	f.sim.Run()
	f.wrap = nil
	if !collected {
		t.Fatalf("the key was read %d times, the copy never read it", reads)
	}

	rt := f.ctl.Route(k)
	if !slices.Equal(rt.Hops, []packet.Addr{f.tb.Switches[0], s1, s3}) {
		t.Fatalf("route after recovery = %v", rt.Hops)
	}
	for _, h := range rt.Hops {
		if sw, _ := f.tb.Net.Switch(h); sw.HasKey(k) {
			t.Fatalf("deleted key holds a slot on %v after the recovery", h)
		}
	}
	if _, err := f.ctl.Insert(k); err != nil {
		t.Fatalf("insert of the deleted key after the recovery: %v", err)
	}
	if rep, ok := f.write(t, 0, k, "v2"); !ok || rep.Status != kv.StatusOK {
		t.Fatalf("write after the re-insert: %+v ok=%v", rep, ok)
	}
	if rep, ok := f.read(t, 0, k); !ok || string(rep.Value) != "v2" {
		t.Fatalf("read after the re-insert: %+v ok=%v", rep, ok)
	}
}

var phaseNames = [...]string{"planned", "presync", "freeze", "drain", "flip", "hold", "done"}

// TestMigrationPhasesPinned pins the phase sequence of the first group
// holding keys that each kind of migration moves, with the simulated time (since the
// operation started) at which it enters each phase. A wait sits in
// presync, drain and hold only; every other phase passes at once.
func TestMigrationPhasesPinned(t *testing.T) {
	// Recover's first group holds 3 keys, copied at 7 ms an item (1 ms with
	// PreSync). The window is one rule delay (10 ms) plus the copy time, or
	// plus 50 ms when PreSync copied ahead; the hold is one rule delay.
	want := map[string][]string{
		"recover": {
			"20ms freeze polls=0",
			"20ms drain polls=0",
			"51ms flip polls=0",
			"51ms hold polls=0",
			"61ms done polls=0",
		},
		"presync": {
			"70ms presync polls=0",
			"73ms freeze polls=0",
			"73ms drain polls=0",
			"133ms flip polls=0",
			"133ms hold polls=0",
			"143ms done polls=0",
		},
		"add": {
			"20ms freeze polls=0",
			"20ms drain polls=0",
			"44ms flip polls=0",
			"44ms hold polls=0",
			"54ms done polls=0",
		},
		"rehome": {
			"0s freeze polls=0",
			"0s drain polls=0",
			"31ms flip polls=0",
			"31ms hold polls=0",
			"41ms done polls=0",
		},
	}
	for _, c := range migrationCases {
		if want[c.name] == nil {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			if c.cfg != nil {
				c.cfg(&cfg)
			}
			f := newFixture(t, cfg, 8)
			f.loadKeys(t, 40)
			var start time.Duration
			var got []string
			first := ring.GroupID(-1)
			f.ctl.stepped = func(m *migration) {
				if first < 0 && f.ctl.KeyCount(m.group) > 0 {
					first = m.group
				}
				if m.group == first {
					got = append(got, fmt.Sprintf("%v %s polls=%d", time.Duration(f.sim.Now())-start, phaseNames[m.phase], m.polls))
				}
			}
			if c.name == "recover" || c.name == "presync" {
				// The failover is not a migration; time starts at Recover.
				s1 := f.tb.Switches[1]
				f.tb.Net.FailSwitch(s1)
				if err := f.ctl.HandleFailure(s1, nil); err != nil {
					t.Fatal(err)
				}
				f.sim.Run()
				start = time.Duration(f.sim.Now())
				if err := f.ctl.Recover(s1, []packet.Addr{f.tb.Switches[3]}, nil); err != nil {
					t.Fatal(err)
				}
			} else {
				start = time.Duration(f.sim.Now())
				c.start(t, f)
			}
			f.sim.Run()
			if !slices.Equal(got, want[c.name]) {
				t.Errorf("group %d phases:\n%s\nwant:\n%s", first, strings.Join(got, "\n"), strings.Join(want[c.name], "\n"))
			}
		})
	}
}

// TestReinsertDuringRecoveryKeepsSlots: a key GC'd while a recovery runs
// and inserted again before its group flips is live, so the flip's scrub
// of dropped keys must leave it alone.
func TestReinsertDuringRecoveryKeepsSlots(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 8)
	k := f.keyWithChain(t, [3]int{0, 1, 2})
	if _, err := f.ctl.Insert(k); err != nil {
		t.Fatal(err)
	}
	s2, s3 := f.tb.Switches[2], f.tb.Switches[3]
	f.tb.Net.FailSwitch(s2)
	if err := f.ctl.HandleFailure(s2, nil); err != nil {
		t.Fatal(err)
	}
	f.sim.Run()
	if err := f.ctl.Recover(s2, []packet.Addr{s3}, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.ctl.GC(k); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ctl.Insert(k); err != nil {
		t.Fatal(err)
	}
	f.sim.Run()
	rt := f.ctl.Route(k)
	for _, h := range rt.Hops {
		if sw, _ := f.tb.Net.Switch(h); !sw.HasKey(k) {
			t.Fatalf("re-inserted key has no slot on %v of %v after the recovery", h, rt.Hops)
		}
	}
	if rep, ok := f.write(t, 0, k, "v"); !ok || rep.Status != kv.StatusOK {
		t.Fatalf("write after the recovery: %+v ok=%v", rep, ok)
	}
}
