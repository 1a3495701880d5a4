package main

import (
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs both passes of every workload for one second each and
// holds what they emit to BENCHMARK.json: the same workload names, the
// same metric names in each pass's summary line, names a driver accepts,
// counts inside its limits, every correctness check passing, and the budget
// rows adding up to the p50 they explain.
func TestSmoke(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, -seconds defaults to %d", c.RunSeconds, defaultSeconds)
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(c.Workloads), len(specs))
	}
	names := func(ms []contractMetric) map[string]string {
		out := make(map[string]string)
		for _, m := range ms {
			if !name.MatchString(m.Name) {
				t.Errorf("metric name %q is not one a driver accepts", m.Name)
			}
			out[m.Name] = m.Unit
		}
		return out
	}
	endToEnd, perLayer := names(c.EndToEnd), names(c.PerLayer)
	if u, ok := endToEnd["setup_s"]; !ok || u != "s" {
		t.Error("end_to_end must hold setup_s in s")
	}

	for i, sp := range specs {
		if w := c.Workloads[i]; w.Name != sp.name || !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q (why: %q), the program %q", i, w.Name, w.Why, sp.name)
		}
		plain, err := runUntraced(sp, 1, 1)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		traced, err := runTraced(sp, 1, 1, filepath.Join(t.TempDir(), "trace.json"))
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		for _, pass := range []struct {
			r    *result
			want map[string]string
		}{{plain, endToEnd}, {traced, perLayer}} {
			r := pass.r
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed: %v", sp.name, r.Trace, r.Correct, r.Failed, r.Attempted, r.Findings)
			}
			emitted := 0
			for _, m := range r.Metrics {
				if !name.MatchString(m.Name) || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s (trace %v): metric %q is %v", sp.name, r.Trace, m.Name, m.Value)
				}
				if m.Demoted {
					continue // not in the summary line, so not in BENCHMARK.json
				}
				emitted++
				if unit, ok := pass.want[m.Name]; !ok || unit != m.Unit {
					t.Errorf("%s (trace %v): emitted %s in %s, BENCHMARK.json has unit %q (listed: %v)", sp.name, r.Trace, m.Name, m.Unit, unit, ok)
				}
				if !r.Trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", sp.name, m.Name, m.Value)
				}
			}
			if emitted != len(pass.want) {
				t.Errorf("%s (trace %v): %d metrics in the summary line, BENCHMARK.json lists %d", sp.name, r.Trace, emitted, len(pass.want))
			}
		}
		for _, op := range []string{"read", "write"} {
			got := traced.get("budget.explained_us."+op) + traced.get("budget.residual_us."+op)
			if want := traced.get("netchain." + op + "_p50_us"); want != 0 && math.Abs(got-want) > 1e-9 {
				t.Errorf("%s: %s budget rows sum to %v, %s p50 is %v", sp.name, op, got, op, want)
			}
		}
	}
}

// TestQuartiles pins the spread rule to Python's statistics.quantiles.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; statistics.quantiles gives 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestCompareVerdicts holds -compare to its three verdicts: a bounded
// metric worse by more than its bound fails the comparison, one whose own
// quartiles are further apart than the bound is unresolved, and set-up
// time is judged by the issue's half second, not by a share.
func TestCompareVerdicts(t *testing.T) {
	file := func(name string, rss, setup []float64) string {
		f := runFile{Machine: machine{NProc: 2}}
		for i := range rss {
			r := &result{Workload: specs[0].name}
			r.add("peak_rss_mb", "MB", rss[i], 1)
			r.add("setup_s", "s", setup[i], 5)
			r.addDemoted("throughput_ops_s", "ops/s", 1000, 5)
			f.Runs = append(f.Runs, r)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// verdict returns the last column of a metric's row.
	verdict := func(out, metric string) string {
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[1] == metric {
				return f[len(f)-1]
			}
		}
		return "no row"
	}
	steady := []float64{0.10, 0.11, 0.10, 0.11}
	flat := []float64{50, 51, 50, 51}
	parent := file("parent.json", flat, steady)
	for _, tc := range []struct {
		name       string
		rss, setup []float64
		rssVerdict string
		setVerdict string
	}{
		{"same", flat, steady, "within", "within"},
		{"rss up a fifth", []float64{60, 61, 60, 61}, steady, "worse", "within"},
		{"rss scattered", []float64{40, 70, 45, 65}, steady, "unresolved", "within"},
		{"set-up doubled", flat, []float64{0.20, 0.21, 0.20, 0.22}, "within", "within"},
		{"set-up a second longer", flat, []float64{1.10, 1.11, 1.10, 1.12}, "within", "worse"},
	} {
		var b strings.Builder
		err := compareFiles(&b, []string{parent, file("change.json", tc.rss, tc.setup)})
		out := b.String()
		if worse := tc.rssVerdict == "worse" || tc.setVerdict == "worse"; (err != nil) != worse {
			t.Errorf("%s: error %v, want one exactly when a metric is worse\n%s", tc.name, err, out)
		}
		if got := verdict(out, "peak_rss_mb"); got != tc.rssVerdict {
			t.Errorf("%s: peak_rss_mb is %q, want %q\n%s", tc.name, got, tc.rssVerdict, out)
		}
		if got := verdict(out, "setup_s"); got != tc.setVerdict {
			t.Errorf("%s: setup_s is %q, want %q\n%s", tc.name, got, tc.setVerdict, out)
		}
		// A demoted metric is listed with its ratio and base, and no verdict.
		if got := verdict(out, "throughput_ops_s"); got != "1000" {
			t.Errorf("%s: throughput_ops_s row ends in %q, want the base of its ratio\n%s", tc.name, got, out)
		}
	}
}
