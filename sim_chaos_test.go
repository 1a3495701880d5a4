package netchain

import (
	"strings"
	"testing"
	"time"

	"netchain/internal/event"
	"netchain/internal/netsim"
)

// TestSimClusterNemesis drives the public chaos surface: a nemesis
// schedule registered through SimCluster keeps firing while clients
// operate, the fault counters land in NetStats, the cluster keeps serving
// correct values through the adversity, and the client's latency summary
// counts every call.
func TestSimClusterNemesis(t *testing.T) {
	c, err := NewSimCluster(SimConfig{Scale: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tail, err := c.SwitchAddr(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.HostAddress(9); err == nil {
		t.Fatal("host 9 must be out of range")
	}
	nm := c.RunNemesis(netsim.Schedule{
		{Name: "mangle", At: 0, Fault: netsim.ClusterChaos{F: netsim.LinkFault{
			Dup: 0.2, Reorder: 0.2, ReorderDelay: event.Duration(5 * time.Microsecond)}}},
		{Name: "gray-tail", At: 0, Fault: netsim.GraySwitch{
			Addr: tail, G: netsim.Gray{ExtraDelay: event.Duration(20 * time.Microsecond)}}},
	})
	cl, err := c.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{1}
	if err := c.Insert(key); err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 30; i++ {
		want := Value{0xAB, i}
		if _, err := cl.Write(key, want); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		got, _, err := cl.Read(key)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("read %d = %v, want %v", i, got, want)
		}
	}
	if got := cl.LatencySummary(); !strings.HasPrefix(got, "n=60 ") {
		t.Fatalf("latency summary after 60 calls: %q", got)
	}
	if err := nm.Err(); err != nil {
		t.Fatal(err)
	}
	st := c.NetStats()
	if st.DupCopies == 0 || st.Reordered == 0 {
		t.Fatalf("nemesis idle through SimCluster: %+v", st)
	}
}
