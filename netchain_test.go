package netchain

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"netchain/internal/packet"
)

func TestLocalClusterValidation(t *testing.T) {
	if _, err := StartLocalCluster(ClusterConfig{Switches: 2, Replicas: 3}); err == nil {
		t.Fatal("too few switches must be rejected")
	}
}

// TestLocalClusterRejectsBadSwitchIndex: NewClient refuses a gateway the
// cluster never booted and one FailSwitch or RemoveSwitch took down (a
// client attached there used to burn its whole retry budget on the first
// call), and a rejected attach spends no client address. TestContract
// checks the other verbs' bad-index errors on both substrates.
func TestLocalClusterRejectsBadSwitchIndex(t *testing.T) {
	cl, err := StartLocalCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	added, err := cl.AddSwitch()
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.RemoveSwitch(added); err != nil {
		t.Fatal(err)
	}
	if err := cl.FailSwitch(1); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		gateway int
		want    string
	}{
		{9, "switch 9 out of range"},
		{-1, "switch -1 out of range"},
		{1, "switch 1 (10.0.0.2) is down"},
		{added, "switch 4 (10.0.0.5) is down"},
	} {
		if _, err := cl.NewClient(c.gateway); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("NewClient(%d) = %v, want %q", c.gateway, err, c.want)
		}
	}
	c, err := cl.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if addr, _ := c.Ops.Client.Endpoint(); addr.String() != "10.1.0.1" {
		t.Fatalf("first client after rejected attaches is %v, want 10.1.0.1", addr)
	}
}

// TestLocalClusterClientAddressesNeverReused pins the client address
// range: a wrapped counter would hand the 257th client the first client's
// address and repoint the first client's replies at the newest socket.
func TestLocalClusterClientAddressesNeverReused(t *testing.T) {
	cl, err := StartLocalCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	first, err := cl.NewClient(0)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	for i := 2; i <= 255; i++ {
		c, err := cl.NewClient(0)
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		c.Close()
	}
	for i := 256; i <= 257; i++ {
		if c, err := cl.NewClient(0); err == nil {
			c.Close()
			t.Fatalf("client %d: the address range is spent, want an error", i)
		}
	}
	k := KeyFromString("first/own")
	if err := cl.Insert(k); err != nil {
		t.Fatal(err)
	}
	if _, err := first.Write(k, Value("mine")); err != nil {
		t.Fatalf("first client's write: %v", err)
	}
	if v, _, err := first.Read(k); err != nil || string(v) != "mine" {
		t.Fatalf("first client's read: %q %v", v, err)
	}
}

// TestLocalClusterDuplicateInsertOnFullSwitch: re-inserting a key answers
// "already installed" even when every slot is taken — the capacity check
// used to run first, so the operator was told to add capacity.
func TestLocalClusterDuplicateInsertOnFullSwitch(t *testing.T) {
	const slots = 8
	cl, err := StartLocalCluster(ClusterConfig{Switches: 3, Slots: slots}) // 3 replicas on 3 switches: every key on every switch
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	key := func(i int) Key { return KeyFromString(fmt.Sprintf("full/%d", i)) }
	for i := 0; i < slots; i++ {
		if err := cl.Insert(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	err = cl.Insert(key(1))
	if err == nil || strings.Contains(err.Error(), "no free slot") || !strings.Contains(err.Error(), "already installed") {
		t.Fatalf("duplicate Insert on a full cluster = %v, want \"already installed\"", err)
	}
	if err := cl.Insert(key(slots)); err == nil || !strings.Contains(err.Error(), "no free slot") {
		t.Fatalf("Insert of a new key on a full cluster = %v, want \"no free slot\"", err)
	}
}

// TestLocalClusterPromotedHeadStampsFreshSession fails a group's head
// under a running writer. The group's session has already advanced (one
// earlier fail/recover cycle), so a promoted head still stamping with the
// session it last heard has every such write dropped as stale by its
// replicas and replays that stamp for each retransmission: the call burns
// all its attempts. The controller must hand the new head its session
// before any route names it.
func TestLocalClusterPromotedHeadStampsFreshSession(t *testing.T) {
	cl, err := StartLocalCluster(ClusterConfig{
		Switches: 5, ClientTimeout: 10 * time.Millisecond, ClientRetries: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := cl.NewClient(4) // a gateway no chain ever includes
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	k := KeyFromString("session/k")
	if err := cl.Insert(k); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(k, Value("v0")); err != nil {
		t.Fatal(err)
	}
	switchAddr := func(i int) packet.Addr {
		t.Helper()
		a, err := cl.SwitchAddr(i)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	head := -1
	for i := 0; i < 3; i++ {
		if switchAddr(i) == cl.Controller().Route(k).Hops[0] {
			head = i
		}
	}
	if head < 0 {
		t.Fatalf("head %v is not a ring member", cl.Controller().Route(k).Hops[0])
	}
	// Cycle one: the replacement takes over the head position and the
	// group's session moves past what the old mid ever stamped with.
	if err := cl.FailSwitch(head); err != nil {
		t.Fatal(err)
	}
	if err := cl.Recover(head, 3); err != nil {
		t.Fatal(err)
	}
	if got, want := cl.Controller().Route(k).Hops[0], switchAddr(3); got != want {
		t.Fatalf("head after recovery = %v, want the replacement %v", got, want)
	}

	stop := make(chan struct{})
	writeErr := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				writeErr <- nil
				return
			default:
			}
			if _, err := c.Write(k, Value(fmt.Sprintf("w%d", i))); err != nil {
				writeErr <- fmt.Errorf("write %d: %w", i, err)
				return
			}
		}
	}()
	time.Sleep(5 * time.Millisecond)
	if err := cl.FailSwitch(3); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	if err := <-writeErr; err != nil {
		t.Fatal(err)
	}
	if st := c.TransportStats(); st.Timeouts != 0 {
		t.Fatalf("%d writes exhausted every attempt across the head change (stats %+v)", st.Timeouts, st)
	}
}

// TestLocalClusterCloseReleasesEverything boots and closes a cluster five
// times in one process (the benchmark does exactly that) and requires the
// goroutine and descriptor counts back where they started: the controller's
// agent connections and the agents' accepted ends used to outlive Close.
func TestLocalClusterCloseReleasesEverything(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd on this platform: %v", err)
		}
		return len(ents)
	}
	cycle := func() {
		cl, err := StartLocalCluster(ClusterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		c, err := cl.NewClient(0)
		if err != nil {
			t.Fatal(err)
		}
		k := KeyFromString("leak/k")
		if err := cl.Insert(k); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(k, Value("v")); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Earlier tests' goroutines may still be winding down, which can only
	// lower the counts: the bound is one-sided.
	cycle() // warm lazily-started runtime helpers before the baseline
	settle := func() (int, int) {
		time.Sleep(20 * time.Millisecond)
		return runtime.NumGoroutine(), fds()
	}
	g0, f0 := settle()
	for i := 0; i < 5; i++ {
		cycle()
	}
	g1, f1 := settle()
	for wait := 0; wait < 50 && (g1 > g0 || f1 > f0); wait++ {
		g1, f1 = settle()
	}
	if g1 > g0 || f1 > f0 {
		t.Fatalf("five boot/close cycles: goroutines %d -> %d, descriptors %d -> %d", g0, g1, f0, f1)
	}
}
