// Command benchrunner regenerates the paper's evaluation: Table 1,
// Figures 9(a)–(f), 10(a)(b), 11, and the TLA+-style model check — each
// printed as the rows/series the paper reports, with a note of the
// published shape for comparison (EXPERIMENTS.md records both) — plus the
// resize, placement, chaos and wall-clock experiments. Each experiment is
// one row of a table: its name, quick parameters, -full parameters and
// printer.
//
// Usage:
//
//	benchrunner -exp all            # everything, quick parameters
//	benchrunner -exp fig9c -full    # one experiment at paper-scale cost
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"netchain/internal/experiments"
	"netchain/internal/mc"
)

func main() { os.Exit(realMain()) }

// realMain carries the exit code back through a normal return so the
// deferred profile writers (-cpuprofile/-memprofile) flush even when an
// experiment fails — the run where a profile is most wanted.
func realMain() (code int) {
	exp := flag.String("exp", "all", "experiment: table1|fig9a|fig9b|fig9c|fig9d|fig9e|fig9f|fig10a|fig10b|fig11|resize|pipeline|tla|trace|watch|chaos|realchaos|placement|all")
	full := flag.Bool("full", false, "use longer windows / full parameter sweeps")
	windows := flag.String("windows", "1,4,16,64", "outstanding-window sweep for -exp pipeline (comma-separated)")
	window := flag.Int("window", 0, "client outstanding-query window for the fig9 experiments (0 = unbounded open loop)")
	seed := flag.Int64("seed", 1, "deterministic seed for -exp chaos, realchaos and placement")
	schedule := flag.String("schedule", "full-nemesis", "nemesis schedule for -exp chaos ('all' runs every schedule)")
	autopilot := flag.Bool("autopilot", false, "run -exp chaos hands-free: faults are injected by the nemesis and repaired by the φ-accrual autopilot, never by manual controller calls")
	topology := flag.String("topology", "ring", "substrate for -exp chaos: ring (the Fig. 8 testbed), spine-leaf:SxL, or fattree:k")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	tQuick := experiments.ThroughputOpts{
		StoreSize: 4000, Window: 40 * time.Millisecond, ZKWindow: 250 * time.Millisecond, ClientWindow: *window,
	}
	tFull := experiments.ThroughputOpts{ClientWindow: *window}
	fig10 := show(experiments.Fig10, (*experiments.Fig10Result).Format)
	fig10Quick := func(vgroups int) experiments.Fig10Opts {
		return experiments.Fig10Opts{VGroups: vgroups, Scale: 20000, StoreSize: 2000,
			Duration: 60 * time.Second, FailAt: 10 * time.Second, RecoverAt: 20 * time.Second}
	}
	chaos := experiments.ChaosOpts{Schedule: *schedule, Seed: *seed, Autopilot: *autopilot, Topology: *topology}
	realChaos := experiments.RealChaosOpts{Schedule: *schedule, Seed: *seed}
	placement := experiments.PlacementOpts{Seed: *seed}

	// One row per experiment, in -exp all order: name, quick parameters,
	// -full parameters, printer.
	rows := []row{
		entry("table1", 400*time.Millisecond, 400*time.Millisecond, show(experiments.MeasureTable1,
			func(t *experiments.Table1) string { return t.Format() + "\n" })),
		entry("fig9a", tQuick, tFull, show(experiments.Fig9a, figText)),
		entry("fig9b", tQuick, tFull, show(experiments.Fig9b, figText)),
		entry("fig9c", tQuick, tFull, show(experiments.Fig9c, figText)),
		entry("fig9d", tQuick, tFull, show(experiments.Fig9d, figText)),
		entry("fig9e", tQuick, tFull, show(experiments.Fig9e, figText)),
		entry("fig9f", experiments.Fig9fOpts{Samples: 2000}, experiments.Fig9fOpts{}, show(experiments.Fig9f, figText)),
		entry("fig10a", fig10Quick(1), experiments.Fig10Opts{VGroups: 1}, fig10),
		entry("fig10b", fig10Quick(100), experiments.Fig10Opts{VGroups: 100}, fig10),
		entry("resize", experiments.ResizeOpts{Scale: 20000, StoreSize: 1000,
			Duration: 20 * time.Second, AddAt: 4 * time.Second, RemoveAt: 12 * time.Second},
			experiments.ResizeOpts{}, show(experiments.RunResize, (*experiments.ResizeResult).Format)),
		entry("fig11", experiments.Fig11Opts{Clients: []int{1, 10, 50}, ColdKeys: 1000,
			NetChainWindow: 15 * time.Millisecond, ZKWindow: time.Second},
			experiments.Fig11Opts{}, show(experiments.Fig11, figText)),
		entry("pipeline", tQuick, tFull, show(func(o experiments.ThroughputOpts) ([]experiments.WindowPoint, error) {
			var ws []int
			for _, s := range strings.Split(*windows, ",") {
				w, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || w < 1 {
					return nil, fmt.Errorf("bad -windows entry %q", s)
				}
				ws = append(ws, w)
			}
			return experiments.Fig9eWindows(o, ws)
		}, experiments.FormatWindows)),
		entry("watch", experiments.WatchScaleOpts{}, experiments.WatchScaleOpts{Events: 8192},
			show(experiments.WatchScale, experiments.FormatWatchScale)),
		entry("trace", experiments.TraceBenchOpts{},
			experiments.TraceBenchOpts{Duration: 2 * time.Second, ABWindows: 5},
			show(experiments.TraceBench, experiments.FormatTraceBench)),
		entry("chaos", chaos, chaos, runChaos),
		entry("realchaos", realChaos, realChaos, runRealChaos),
		entry("placement", placement, placement, show(experiments.RunPlacementScaling,
			func(r *experiments.PlacementResult) string {
				return "placement scaling (client-affine workload, metered fabric links):\n" +
					experiments.FormatPlacement(r) + "\n"
			})),
		entry("tla", mc.DefaultBounds(), mc.DefaultBounds(), runTLA),
	}
	// These run on the wall clock (live sockets), so -exp all skips them.
	byName := map[string]bool{"watch": true, "trace": true, "realchaos": true}
	ran := false
	for _, r := range rows {
		if *exp != r.name && (*exp != "all" || byName[r.name]) {
			continue
		}
		ran = true
		start := time.Now()
		if err := r.run(*full); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.name, err)
			return 1
		}
		fmt.Printf("[%s took %v]\n\n", r.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; see -exp usage\n", *exp)
		return 2
	}
	return 0
}

// row is one experiment: run prints it with its quick or -full parameters.
type row struct {
	name string
	run  func(full bool) error
}

// entry builds a row from its two parameter sets and its printer.
func entry[O any](name string, quick, full O, printer func(O) error) row {
	return row{name: name, run: func(f bool) error {
		if f {
			return printer(full)
		}
		return printer(quick)
	}}
}

// show runs an experiment and prints its result through text.
func show[O, R any](exp func(O) (R, error), text func(R) string) func(O) error {
	return func(o O) error {
		res, err := exp(o)
		if err == nil {
			fmt.Print(text(res))
		}
		return err
	}
}

func figText(f *experiments.Figure) string { return f.Format() + "\n" }

// runTLA model-checks the appendix spec from base under three
// configurations, the last the sequence-number ablation.
func runTLA(base mc.Bounds) error {
	for _, cfg := range []struct {
		name string
		mut  func(*mc.Bounds)
	}{
		{"default (drop/dup/reorder + 1 failure)", func(*mc.Bounds) {}},
		{"with recovery", func(b *mc.Bounds) { b.WithRecovery = true }},
		{"ablation: sequence numbers OFF", func(b *mc.Bounds) {
			b.DisableSeqCheck = true
			b.MaxFails = 0
		}},
	} {
		b := base
		cfg.mut(&b)
		ck, err := mc.New(b)
		if err != nil {
			return err
		}
		res := ck.Run()
		fmt.Printf("model check [%s]: %d states — ", cfg.name, res.States)
		if res.Violation == nil {
			fmt.Println("Consistency + UpdatePropagation HOLD")
		} else {
			fmt.Printf("VIOLATION: %s\n  trace: %s\n", res.Reason, res.Violation)
		}
	}
	fmt.Println()
	return nil
}

// runChaos executes nemesis schedules and fails on a non-linearizable
// history, dumping it to a file so CI can upload the repro. With
// autopilot, every repair must come from the detector — the run also
// fails if the fail-stop schedule ends with an unrepaired chain or a
// repair-free schedule suffers a false eviction.
func runChaos(o experiments.ChaosOpts) error {
	names := []string{o.Schedule}
	if o.Schedule == "all" {
		names = experiments.ChaosScheduleNames()
	}
	for _, name := range names {
		o.Schedule = name
		res, err := experiments.RunChaos(o)
		if err != nil {
			return err
		}
		fmt.Println(res.Format())
		if !res.Lin.OK {
			dump := fmt.Sprintf("chaos-failure-%s-seed%d.txt", name, o.Seed)
			if werr := os.WriteFile(dump, []byte(res.DumpHistory()), 0o644); werr != nil {
				fmt.Fprintf(os.Stderr, "could not dump history: %v\n", werr)
			} else {
				fmt.Fprintf(os.Stderr, "history dumped to %s\n", dump)
			}
			return fmt.Errorf("chaos %s seed %d: history not linearizable (key %s): %s",
				name, o.Seed, res.Lin.Key, res.Lin.Reason)
		}
		if o.Autopilot {
			if res.FailStopInjected && !res.ChainsRepaired {
				return fmt.Errorf("chaos %s seed %d: autopilot left the chain unrepaired", name, o.Seed)
			}
			if !res.FailStopInjected && res.Failovers > 0 {
				return fmt.Errorf("chaos %s seed %d: %d false fail-stop evictions", name, o.Seed, res.Failovers)
			}
		}
	}
	return nil
}

// runRealChaos executes nemesis schedules against the live-UDP cluster
// (see experiments.RunRealChaos). The run fails on a non-linearizable
// history (dumped for CI upload), an unrepaired chain after a schedule
// fail-stop, a false eviction, or a diverged push-watch stream.
func runRealChaos(o experiments.RealChaosOpts) error {
	names := []string{o.Schedule}
	if o.Schedule == "all" {
		names = experiments.ChaosScheduleNames()
	}
	for _, name := range names {
		o.Schedule = name
		res, err := experiments.RunRealChaos(o)
		if err != nil {
			return err
		}
		fmt.Println(res.Format())
		if !res.Lin.OK {
			dump := fmt.Sprintf("realchaos-failure-%s-seed%d.txt", name, o.Seed)
			if werr := os.WriteFile(dump, []byte(res.DumpHistory()), 0o644); werr != nil {
				fmt.Fprintf(os.Stderr, "could not dump history: %v\n", werr)
			} else {
				fmt.Fprintf(os.Stderr, "history dumped to %s\n", dump)
			}
			return fmt.Errorf("realchaos %s seed %d: history not linearizable (key %s): %s",
				name, o.Seed, res.Lin.Key, res.Lin.Reason)
		}
		if res.FailStopInjected && !res.ChainsRepaired {
			return fmt.Errorf("realchaos %s seed %d: autopilot left the chain unrepaired", name, o.Seed)
		}
		if res.FalseEvictions > 0 {
			return fmt.Errorf("realchaos %s seed %d: %d false fail-stop evictions", name, o.Seed, res.FalseEvictions)
		}
		if !res.WatchConverged {
			return fmt.Errorf("realchaos %s seed %d: push-watch stream did not converge", name, o.Seed)
		}
	}
	return nil
}
