package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// contract is BENCHMARK.json at the root of the repository: the command,
// the workloads, and for each end-to-end metric the share of the parent's
// median by which it may get worse before that counts as a regression.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadContract finds BENCHMARK.json in the working directory or above it.
func loadContract() (*contract, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		path := filepath.Join(dir, "BENCHMARK.json")
		if _, err := os.Stat(path); err == nil {
			var c contract
			return &c, readJSON(path, &c)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// iqr is the distance between the quartiles.
func iqr(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	return q3 - q1
}

// series is one metric's values on one workload, one per run.
type series struct {
	name, unit string
	values     []float64
}

// collect gathers a file's values by workload, metrics in the order the
// passes emitted them.
func collect(f *runFile) map[string][]*series {
	out := make(map[string][]*series)
	for _, r := range f.Runs {
		for _, m := range r.Metrics {
			s := find(out[r.Workload], m.Name)
			if s == nil {
				s = &series{name: m.Name, unit: m.Unit}
				out[r.Workload] = append(out[r.Workload], s)
			}
			s.values = append(s.values, m.Value)
		}
	}
	return out
}

func find(ss []*series, name string) *series {
	for _, s := range ss {
		if s.name == name {
			return s
		}
	}
	return nil
}

// setupBound is the issue's bound on setup_s, in seconds. BENCHMARK.json can
// only hold a share of the parent's median, so set-up time carries the
// widest share there (0.25, which is what a driver applies); here a set-up
// time is worse only when it grew by more than half a second, as the issue
// asked: at a 0.1 s baseline a share would call the host's own 0.08 s to
// 0.15 s swings regressions.
const setupBound = 0.5

// compareFiles sets the change's runs beside the parent's, workload by
// workload and metric by metric. A metric BENCHMARK.json bounds is "worse"
// when the change's median is worse than the parent's by more than the
// bound, "unresolved" when either side's own quartiles are further apart
// than the bound (so neither verdict can be trusted), else "within". The
// other metrics, demoted and per-layer, have no bound and get no verdict.
func compareFiles(out io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare needs two files: parent.json change.json")
	}
	var parent, change runFile
	if err := readJSON(args[0], &parent); err != nil {
		return err
	}
	if err := readJSON(args[1], &change); err != nil {
		return err
	}
	pm, cm := parent.Machine, change.Machine
	pm.Commit, cm.Commit = "", "" // the commit is what a comparison varies
	if pm != cm {
		return fmt.Errorf("the files were measured on different machines, their numbers cannot be set side by side:\n  %+v\n  %+v", pm, cm)
	}
	c, err := loadContract()
	if err != nil {
		return err
	}
	bounded := make(map[string]contractMetric)
	for _, m := range c.EndToEnd {
		bounded[m.Name] = m
	}
	a, b := collect(&parent), collect(&change)
	fmt.Fprintf(out, "parent %s (commit %s) vs change %s (commit %s); %s\n",
		args[0], parent.Machine.Commit, args[1], change.Machine.Commit, parent.Machine.Link)
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median [q1, q3] n\tchange median [q1, q3] n\tchange/parent\tbound\tverdict")
	describe := func(vs []float64) string {
		q1, q3 := quartiles(vs)
		return fmt.Sprintf("%.4g [%.4g, %.4g] %d", median(vs), q1, q3, len(vs))
	}
	worse := 0
	for _, w := range c.Workloads {
		for _, p := range a[w.Name] {
			ch := find(b[w.Name], p.name)
			if ch == nil {
				continue
			}
			pmed, cmed := median(p.values), median(ch.values)
			ratio, bound, verdict := "n/a", "", ""
			if pmed != 0 {
				ratio = fmt.Sprintf("%.3f of %.4g", cmed/pmed, pmed)
			}
			if m, ok := bounded[p.name]; ok {
				// Everything in the metric's unit: the allowed loss, the
				// loss, and each side's distance between its quartiles.
				allowed := m.Bound * pmed
				bound = fmt.Sprintf("%g%%", 100*m.Bound)
				if p.name == "setup_s" {
					allowed, bound = setupBound, fmt.Sprintf("%g s", setupBound)
				}
				loss := cmed - pmed
				if m.Better == "higher" {
					loss = -loss
				}
				switch {
				case iqr(p.values) > allowed || iqr(ch.values) > allowed:
					verdict = "unresolved"
				case loss > allowed:
					verdict = "worse"
					worse++
				default:
					verdict = "within"
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n", w.Name, p.name, p.unit, describe(p.values), describe(ch.values), ratio, bound, verdict)
		}
	}
	tw.Flush()
	if worse > 0 {
		return fmt.Errorf("%d end-to-end metric(s) worse than their bound", worse)
	}
	return nil
}
