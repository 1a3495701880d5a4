// Command benchmark measures NetChain's real-UDP wire path through the
// public façade, one named workload per process, and in a separate traced
// pass times each module from outside so that the layers, plus an explicit
// residual, add up to the end-to-end latency. See README.md.
//
//	go run -C benchmark . -seed 1                 every workload, both passes
//	go run -C benchmark . -workload read-sat      one pass over one workload
//	go run -C benchmark . -compare a.json b.json  two result files side by side
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"text/tabwriter"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 20

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	runs     int
	outDir   string
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one pass over this workload (default: every workload, both passes, each in its own process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for key choice and op mix")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "seconds one pass measures")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
	flag.IntVar(&o.runs, "runs", 1, "without -workload: repeat everything this many times, on seeds seed, seed+1, ...")
	flag.StringVar(&o.outDir, "out", "out", "directory for result and trace files")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare parent.json change.json")
	flag.Parse()

	var err error
	switch {
	case o.compare:
		err = compareFiles(os.Stdout, flag.Args())
	case o.workload != "":
		err = runOne(os.Stdout, o)
	default:
		err = runAll(os.Stdout, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect ends a run whose measurements were taken but whose
// correctness checks failed; the violations have been printed by then.
var errIncorrect = errors.New("correctness checks failed")

func resultPath(o options, workload string, traced bool) string {
	if traced {
		return filepath.Join(o.outDir, workload+"-layers.json")
	}
	return filepath.Join(o.outDir, workload+".json")
}

// runOne runs one pass over one workload in this process, prints the table
// and, as the last line, the one-object summary a driver reads.
func runOne(out io.Writer, o options) error {
	sp, ok := findSpec(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", o.seconds)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	var (
		r   *result
		err error
	)
	if o.trace != 0 {
		r, err = runTraced(sp, o.seed, o.seconds, filepath.Join(o.outDir, "trace-"+sp.name+".json"))
	} else {
		r, err = runUntraced(sp, o.seed, o.seconds)
	}
	if err != nil {
		return err
	}
	printResult(out, r)
	if err := writeJSON(resultPath(o, sp.name, r.Trace), r); err != nil {
		return err
	}
	line, err := json.Marshal(summary(r))
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if !r.Correct {
		return errIncorrect
	}
	return nil
}

// summary is the last line of a pass's output: the metrics BENCHMARK.json
// lists for the pass, which leaves the demoted ones out.
func summary(r *result) map[string]any {
	metrics := make(map[string]any, len(r.Metrics))
	for _, m := range r.Metrics {
		if !m.Demoted {
			metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

func printResult(out io.Writer, r *result) {
	pass := "untraced pass, end-to-end metrics"
	if r.Trace {
		pass = "traced pass, per-layer metrics"
	}
	m := r.Machine
	fmt.Fprintf(out, "== %s (%s) seed %d, %d s ==\n", r.Workload, pass, r.Seed, r.Seconds)
	fmt.Fprintf(out, "%s; nproc %d, GOMAXPROCS %d, %s, kernel %s, commit %s, SO_RCVBUF clamped: %v\n",
		m.Link, m.NProc, m.GOMAXPROCS, m.Go, m.Kernel, m.Commit, m.RcvBufClamped)
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tvalue\tsamples\t")
	for _, mt := range r.Metrics {
		demoted := ""
		if mt.Demoted {
			demoted = "demoted: no bound"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4f\t%d\t%s\n", mt.Name, mt.Unit, mt.Value, mt.Samples, demoted)
	}
	tw.Flush()
	for _, n := range r.Notes {
		fmt.Fprintln(out, "note:", n)
	}
	fmt.Fprintf(out, "attempted %d, failed %d (failed_share %g); attempts resubmitted: %d refused, %d timed out\n",
		r.Attempted, r.Failed, float64(r.Failed)/float64(max(1, r.Attempted)), r.Refused, r.Resubmits)
	for _, f := range r.Findings {
		fmt.Fprintln(out, f)
	}
	if r.Correct {
		fmt.Fprintln(out, "checks passed: every reply verified, store audited")
	}
}

// runFile is what the all-workloads mode writes and -compare reads.
type runFile struct {
	Machine machine   `json:"machine"`
	Runs    []*result `json:"runs"`
}

// runAll re-executes this program once per workload and pass, so that
// set-up time and peak memory belong to one workload each, and gathers the
// children's results into one file.
func runAll(out io.Writer, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := runFile{Machine: readMachine()}
	failed := false
	for run := 0; run < o.runs; run++ {
		seed := o.seed + int64(run)
		for _, sp := range specs {
			for _, trace := range []int{0, 1} {
				cmd := exec.Command(self, "-workload", sp.name, "-trace", fmt.Sprint(trace),
					"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds), "-out", o.outDir)
				cmd.Stdout, cmd.Stderr = out, os.Stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(out, "%s (trace %d): %v\n", sp.name, trace, err)
					failed = true
					continue
				}
				var r result
				if err := readJSON(resultPath(o, sp.name, trace != 0), &r); err != nil {
					return err
				}
				file.Runs = append(file.Runs, &r)
				fmt.Fprintln(out)
			}
		}
	}
	path := filepath.Join(o.outDir, "run.json")
	if err := writeJSON(path, file); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s (%d passes)\n", path, len(file.Runs))
	if failed {
		return errIncorrect
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
