package netchain_test

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestEndToEndBinaries builds the three deployment binaries, boots a
// three-switch chain plus controller (with its push-watch relay tier) as
// separate processes, and drives them with netchainctl — the full
// multi-process deployment of §7 on loopback, watch stream included.
func TestEndToEndBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short mode")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"netchaind", "netchain-controller", "netchainctl"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
		bins[name] = out
	}

	// Fixed loopback ports for a deterministic address book.
	type sw struct{ virt, udp, rpc string }
	// The fourth switch boots with the others (static address books) but
	// is NOT given to the controller: the add-switch verb admits it live.
	switches := []sw{
		{"10.0.0.1", "127.0.0.1:19001", "127.0.0.1:19101"},
		{"10.0.0.2", "127.0.0.1:19002", "127.0.0.1:19102"},
		{"10.0.0.3", "127.0.0.1:19003", "127.0.0.1:19103"},
		{"10.0.0.4", "127.0.0.1:19004", "127.0.0.1:19104"},
	}
	clientVirt := "10.1.0.1"
	// The watch process is a second client with its own reply address.
	watcherVirt, watcherUDP := "10.1.0.2", "127.0.0.1:19302"
	// The controller's relay ingests on relayUDP; its control socket, where
	// subscribers lease streams, binds the next port up.
	relayVirt, relayUDP, relayCtl := "10.255.0.2", "127.0.0.1:19400", "127.0.0.1:19401"

	var procs []*exec.Cmd
	stopAll := func() {
		for _, p := range procs {
			if p.Process != nil {
				p.Process.Kill()
				p.Wait()
			}
		}
	}
	defer stopAll()

	for i, s := range switches {
		args := []string{
			"-addr", s.virt, "-udp", s.udp, "-rpc", s.rpc, "-slots", "1024",
			"-relay", relayVirt + "=" + relayUDP,
		}
		for j, p := range switches {
			if i != j {
				args = append(args, "-peer", p.virt+"="+p.udp)
			}
		}
		// Replies are addressed to the client's virtual address; every
		// switch needs its mapping in the static book (netchainctl binds
		// the matching port with -bind).
		args = append(args, "-peer", clientVirt+"=127.0.0.1:19301", "-peer", watcherVirt+"="+watcherUDP)
		cmd := exec.Command(bins["netchaind"], args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start netchaind %d: %v", i, err)
		}
		procs = append(procs, cmd)
	}

	ctl := exec.Command(bins["netchain-controller"],
		"-rpc", "127.0.0.1:19200", "-replicas", "3", "-vnodes", "4",
		"-relay-udp", relayUDP, "-relay-vaddr", relayVirt,
		"-switch", "10.0.0.1=127.0.0.1:19101",
		"-switch", "10.0.0.2=127.0.0.1:19102",
		"-switch", "10.0.0.3=127.0.0.1:19103",
	)
	ctl.Stdout = os.Stderr
	ctl.Stderr = os.Stderr
	// Give the switch agents a moment to listen.
	time.Sleep(300 * time.Millisecond)
	if err := ctl.Start(); err != nil {
		t.Fatalf("start controller: %v", err)
	}
	procs = append(procs, ctl)
	time.Sleep(300 * time.Millisecond)

	run := func(args ...string) (string, error) {
		base := []string{
			"-controller", "127.0.0.1:19200",
			"-gateway", "10.0.0.1=127.0.0.1:19001",
			"-client", clientVirt,
			"-bind", "127.0.0.1:19301",
		}
		cmd := exec.Command(bins["netchainctl"], append(base, args...)...)
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	// Control plane: allocate the key on its chain.
	out, err := run("insert", "e2e/key")
	if err != nil {
		t.Fatalf("insert: %v\n%s", err, out)
	}
	if !strings.Contains(out, "ok") {
		t.Fatalf("insert output: %q", out)
	}
	// Duplicate insert must fail through the whole RPC stack.
	if out, err := run("insert", "e2e/key"); err == nil {
		t.Fatalf("duplicate insert should fail, got %q", out)
	}

	// A controller without -autopilot refuses cluster health: the error
	// frame must reach netchainctl's exit status and stderr.
	if out, err := run("cluster", "health"); err == nil || !strings.Contains(out, "autopilot not enabled") {
		t.Fatalf("cluster health without an autopilot: %v %q", err, out)
	}

	// Data plane: write through the chain, read from the tail.
	out, err = run("put", "e2e/key", "hello-processes")
	if err != nil {
		t.Fatalf("put: %v\n%s", err, out)
	}
	out, err = run("get", "e2e/key")
	if err != nil {
		t.Fatalf("get: %v\n%s", err, out)
	}
	if !strings.Contains(out, "hello-processes") {
		t.Fatalf("get output: %q", out)
	}

	// Locks through the whole stack.
	if out, err = run("lock", "e2e/lock", "42"); err != nil || !strings.Contains(out, "ok") {
		// lock needs an insert first
		t.Logf("first lock attempt: %v %q", err, out)
	}
	if out, err = run("insert", "e2e/lock"); err != nil {
		t.Fatalf("insert lock: %v\n%s", err, out)
	}
	if out, err = run("lock", "e2e/lock", "42"); err != nil || !strings.Contains(out, "ok") {
		t.Fatalf("lock: %v %q", err, out)
	}
	if out, err = run("lock", "e2e/lock", "43"); err != nil || !strings.Contains(out, "denied") {
		t.Fatalf("contended lock: %v %q", err, out)
	}
	if out, err = run("unlock", "e2e/lock", "42"); err != nil || !strings.Contains(out, "ok") {
		t.Fatalf("unlock: %v %q", err, out)
	}
	if out, err = run("del", "e2e/key"); err != nil || !strings.Contains(out, "ok") {
		t.Fatalf("del: %v %q", err, out)
	}

	// Push watch through the relay: a netchainctl watch process prints the
	// key's state, then an UPDATED line once a put commits. The first puts
	// may race the subscription's lease, so keep writing until one shows.
	if out, err = run("insert", "e2e/watch"); err != nil {
		t.Fatalf("insert watch: %v\n%s", err, out)
	}
	if out, err = run("put", "e2e/watch", "v0"); err != nil {
		t.Fatalf("put watch: %v\n%s", err, out)
	}
	watcher := exec.Command(bins["netchainctl"],
		"-controller", "127.0.0.1:19200", "-gateway", "10.0.0.1=127.0.0.1:19001",
		"-client", watcherVirt, "-bind", watcherUDP, "-relay", relayCtl, "watch", "e2e/watch")
	watcher.Stderr = os.Stderr
	stdout, err := watcher.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := watcher.Start(); err != nil {
		t.Fatalf("start watch: %v", err)
	}
	procs = append(procs, watcher)
	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	next := func(deadline <-chan time.Time) string {
		select {
		case l, ok := <-lines:
			if !ok {
				t.Fatal("watch exited early")
			}
			return l
		case <-deadline:
			return ""
		}
	}
	if l := next(time.After(10 * time.Second)); !strings.HasPrefix(l, "CREATED") || !strings.Contains(l, "v0") {
		t.Fatalf("watch initial state: %q", l)
	}
	updated := ""
	for i := 1; i <= 10 && updated == ""; i++ {
		if out, err = run("put", "e2e/watch", fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("put watch: %v\n%s", err, out)
		}
		if l := next(time.After(time.Second)); strings.HasPrefix(l, "UPDATED") {
			updated = l
		}
	}
	if updated == "" {
		t.Fatal("watch printed no UPDATED line after 10 puts")
	}
	if err := watcher.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := watcher.Wait(); err != nil {
		t.Fatalf("watch exit after SIGINT: %v", err)
	}

	// Elastic membership through the binaries: admit the pre-cabled fourth
	// switch live, keep serving, then drain it back out.
	if out, err = run("insert", "e2e/elastic"); err != nil {
		t.Fatalf("insert elastic: %v\n%s", err, out)
	}
	if out, err = run("put", "e2e/elastic", "before-resize"); err != nil {
		t.Fatalf("put elastic: %v\n%s", err, out)
	}
	// A member named with the spare's agent is refused, and must leave the
	// member's own agent in place for every step below.
	if out, err = run("add-switch", "10.0.0.2=127.0.0.1:19104"); err == nil {
		t.Fatalf("add-switch of ring member 10.0.0.2 succeeded: %q", out)
	}
	if out, err = run("add-switch", "10.0.0.4=127.0.0.1:19104"); err != nil || !strings.Contains(out, "migrated") {
		t.Fatalf("add-switch: %v %q", err, out)
	}
	if out, err = run("get", "e2e/elastic"); err != nil || !strings.Contains(out, "before-resize") {
		t.Fatalf("get after add-switch: %v %q", err, out)
	}
	if out, err = run("put", "e2e/elastic", "after-scale-out"); err != nil {
		t.Fatalf("put after add-switch: %v\n%s", err, out)
	}
	if out, err = run("remove-switch", "10.0.0.4"); err != nil || !strings.Contains(out, "migrated") {
		t.Fatalf("remove-switch: %v %q", err, out)
	}
	if out, err = run("get", "e2e/elastic"); err != nil || !strings.Contains(out, "after-scale-out") {
		t.Fatalf("get after remove-switch: %v %q", err, out)
	}
	fmt.Println("e2e verified: insert/put/get/lock/unlock/del + watch + add-switch/remove-switch across real processes")
}
