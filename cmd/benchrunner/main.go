// Command benchrunner regenerates the paper's evaluation: Table 1,
// Figures 9(a)–(f), 10(a)(b), 11, and the TLA+-style model check — each
// printed as the rows/series the paper reports, with a note of the
// published shape for comparison (EXPERIMENTS.md records both).
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

	ran := false
	run := func(name string, fn func() error) {
		if code != 0 || (*exp != "all" && *exp != name) {
			return
		}
		ran = true
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			code = 1
			return
		}
		fmt.Printf("[%s took %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	// runOnly registers an experiment reachable only by name: these run on
	// the wall clock (live sockets, worker pools), so "all" (the quick sim
	// sweep) must not pay for them.
	runOnly := func(name string, fn func() error) {
		if *exp == name {
			run(name, fn)
		}
	}

	tOpts := experiments.ThroughputOpts{ClientWindow: *window}
	if !*full {
		tOpts.StoreSize = 4000
		tOpts.Window = 40 * time.Millisecond
		tOpts.ZKWindow = 250 * time.Millisecond
	}

	run("table1", func() error {
		tab, err := experiments.MeasureTable1(400 * time.Millisecond)
		if err != nil {
			return err
		}
		fmt.Println(tab.Format())
		return nil
	})
	run("fig9a", func() error { return printFig(experiments.Fig9a(tOpts)) })
	run("fig9b", func() error { return printFig(experiments.Fig9b(tOpts)) })
	run("fig9c", func() error { return printFig(experiments.Fig9c(tOpts)) })
	run("fig9d", func() error { return printFig(experiments.Fig9d(tOpts)) })
	run("fig9e", func() error { return printFig(experiments.Fig9e(tOpts)) })
	run("fig9f", func() error {
		o := experiments.Fig9fOpts{}
		if !*full {
			o.Samples = 2000
		}
		return printFig(experiments.Fig9f(o))
	})
	run("fig10a", func() error { return runFig10(1, *full) })
	run("fig10b", func() error { return runFig10(100, *full) })
	run("resize", func() error { return runResize(*full) })
	run("fig11", func() error {
		o := experiments.Fig11Opts{}
		if !*full {
			o.Clients = []int{1, 10, 50}
			o.NetChainWindow = 15 * time.Millisecond
			o.ZKWindow = time.Second
			o.ColdKeys = 1000
		}
		return printFig(experiments.Fig11(o))
	})
	run("pipeline", func() error {
		var ws []int
		for _, s := range strings.Split(*windows, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || w < 1 {
				return fmt.Errorf("bad -windows entry %q", s)
			}
			ws = append(ws, w)
		}
		pts, err := experiments.Fig9eWindows(tOpts, ws)
		if err != nil {
			return err
		}
		fmt.Println("client pipeline sweep (one client server, fixed offered load):")
		fmt.Printf("%8s %12s %10s %10s %12s\n", "window", "MQPS", "p50 µs", "p99 µs", "suppressed")
		for _, p := range pts {
			fmt.Printf("%8d %12.3f %10.2f %10.2f %12d\n", p.Window, p.QPS/1e6, p.P50us, p.P99us, p.Suppressed)
		}
		return nil
	})
	runOnly("watch", func() error {
		results, err := experiments.WatchScale(watchOpts(*full))
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatWatchScale(results))
		return nil
	})
	runOnly("trace", func() error {
		results, err := experiments.TraceBench(traceOpts(*full))
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTraceBench(results))
		return nil
	})
	run("chaos", func() error { return runChaos(*schedule, *seed, *autopilot, *topology) })
	runOnly("realchaos", func() error { return runRealChaos(*schedule, *seed) })
	run("placement", func() error {
		r, err := experiments.RunPlacementScaling(experiments.PlacementOpts{Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Println("placement scaling (client-affine workload, metered fabric links):")
		fmt.Print(experiments.FormatPlacement(r))
		fmt.Println()
		return nil
	})
	run("tla", func() error {
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
			b := mc.DefaultBounds()
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
	})
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; see -exp usage\n", *exp)
		return 2
	}
	return code
}

func printFig(f *experiments.Figure, err error) error {
	if err != nil {
		return err
	}
	fmt.Println(f.Format())
	return nil
}

func runFig10(vgroups int, full bool) error {
	o := experiments.Fig10Opts{VGroups: vgroups}
	if !full {
		o.Scale = 20000
		o.StoreSize = 2000
		o.Duration = 60 * time.Second
		o.FailAt = 10 * time.Second
		o.RecoverAt = 20 * time.Second
		o.Bucket = time.Second
	}
	res, err := experiments.Fig10(o)
	if err != nil {
		return err
	}
	fmt.Println(res.Figure.Format())
	fmt.Printf("failover done at t=%.1fs; recovery done at t=%.1fs; groups recovered: %d\n",
		res.FailoverDone.Seconds(), res.RecoveryDone.Seconds(), res.GroupsRecovered)
	fmt.Printf("baseline %.2f MQPS; minimum during recovery %.2f MQPS (%.1f%% of baseline)\n",
		res.BaselineRate/1e6, res.MinRateDuringRecovery/1e6,
		100*res.MinRateDuringRecovery/res.BaselineRate)
	return nil
}

// traceOpts sizes the latency-breakdown experiment: quick windows for
// CI, longer measurement and more A/B windows under -full.
func traceOpts(full bool) experiments.TraceBenchOpts {
	o := experiments.TraceBenchOpts{}
	if full {
		o.Duration = 2 * time.Second
		o.ABWindows = 5
	}
	return o
}

// watchOpts sizes the watch-scale sweep: the acceptance population (10⁴
// and 10⁵ subscribers) either way; -full publishes more events per point.
func watchOpts(full bool) experiments.WatchScaleOpts {
	o := experiments.WatchScaleOpts{}
	if full {
		o.Events = 8192
	}
	return o
}

// runChaos executes nemesis schedules and fails on a non-linearizable
// history, dumping it to a file so CI can upload the repro. With
// autopilot, every repair must come from the detector — the run also
// fails if the fail-stop schedule ends with an unrepaired chain or a
// repair-free schedule suffers a false eviction.
func runChaos(schedule string, seed int64, autopilot bool, topology string) error {
	names := []string{schedule}
	if schedule == "all" {
		names = experiments.ChaosScheduleNames()
	}
	for _, name := range names {
		res, err := experiments.RunChaos(experiments.ChaosOpts{
			Schedule: name, Seed: seed, Autopilot: autopilot, Topology: topology,
		})
		if err != nil {
			return err
		}
		fmt.Println(res.Format())
		if !res.Lin.OK {
			dump := fmt.Sprintf("chaos-failure-%s-seed%d.txt", name, seed)
			if werr := os.WriteFile(dump, []byte(res.DumpHistory()), 0o644); werr != nil {
				fmt.Fprintf(os.Stderr, "could not dump history: %v\n", werr)
			} else {
				fmt.Fprintf(os.Stderr, "history dumped to %s\n", dump)
			}
			return fmt.Errorf("chaos %s seed %d: history not linearizable (key %s): %s",
				name, seed, res.Lin.Key, res.Lin.Reason)
		}
		if autopilot {
			if res.FailStopInjected && !res.ChainsRepaired {
				return fmt.Errorf("chaos %s seed %d: autopilot left the chain unrepaired", name, seed)
			}
			if !res.FailStopInjected && res.Failovers > 0 {
				return fmt.Errorf("chaos %s seed %d: %d false fail-stop evictions", name, seed, res.Failovers)
			}
		}
	}
	return nil
}

// runRealChaos executes nemesis schedules against the live-UDP cluster
// (see experiments.RunRealChaos). The run fails on a non-linearizable
// history (dumped for CI upload), an unrepaired chain after a schedule
// fail-stop, a false eviction, or a diverged push-watch stream.
func runRealChaos(schedule string, seed int64) error {
	names := []string{schedule}
	if schedule == "all" {
		names = experiments.ChaosScheduleNames()
	}
	for _, name := range names {
		res, err := experiments.RunRealChaos(experiments.RealChaosOpts{
			Schedule: name, Seed: seed,
		})
		if err != nil {
			return err
		}
		fmt.Println(res.Format())
		if !res.Lin.OK {
			dump := fmt.Sprintf("realchaos-failure-%s-seed%d.txt", name, seed)
			if werr := os.WriteFile(dump, []byte(res.DumpHistory()), 0o644); werr != nil {
				fmt.Fprintf(os.Stderr, "could not dump history: %v\n", werr)
			} else {
				fmt.Fprintf(os.Stderr, "history dumped to %s\n", dump)
			}
			return fmt.Errorf("realchaos %s seed %d: history not linearizable (key %s): %s",
				name, seed, res.Lin.Key, res.Lin.Reason)
		}
		if res.FailStopInjected && !res.ChainsRepaired {
			return fmt.Errorf("realchaos %s seed %d: autopilot left the chain unrepaired", name, seed)
		}
		if res.FalseEvictions > 0 {
			return fmt.Errorf("realchaos %s seed %d: %d false fail-stop evictions", name, seed, res.FalseEvictions)
		}
		if !res.WatchConverged {
			return fmt.Errorf("realchaos %s seed %d: push-watch stream did not converge", name, seed)
		}
	}
	return nil
}

func runResize(full bool) error {
	o := experiments.ResizeOpts{}
	if !full {
		o.Scale = 20000
		o.StoreSize = 1000
		o.Duration = 20 * time.Second
		o.AddAt = 4 * time.Second
		o.RemoveAt = 12 * time.Second
	}
	res, err := experiments.RunResize(o)
	if err != nil {
		return err
	}
	fmt.Println(res.Figure.Format())
	fmt.Printf("scale-out done at t=%.1fs (%d groups); scale-in done at t=%.1fs (%d groups)\n",
		res.ScaleOutDone.Seconds(), res.GroupsMigratedOut,
		res.ScaleInDone.Seconds(), res.GroupsMigratedIn)
	fmt.Printf("reads: baseline %.2f MQPS, worst bucket during resize %.2f MQPS (%.1f%%); "+
		"read p99 %.1fµs quiet vs %.1fµs during migration\n",
		res.BaselineReadRate/1e6, res.MinReadRateDuring/1e6,
		100*res.MinReadRateDuring/res.BaselineReadRate,
		float64(res.BaselineReadP99.Nanoseconds())/1e3,
		float64(res.ResizeReadP99.Nanoseconds())/1e3)
	fmt.Printf("writes bounced by per-group migration freeze: %d\n", res.WritesUnavailable)
	return nil
}
