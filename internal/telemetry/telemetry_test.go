package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"netchain/internal/stats"
)

// testLedger is a snapshot the way components declare one: tagged
// fields, an untagged embedded struct walked for its own tags, and an
// untagged field that is not exported.
type testLedger struct {
	testInner
	Ops   uint64  `metric:"netchain_test_ops_total" help:"ops"`
	Depth float64 `metric:"netchain_test_depth,gauge" help:"depth"`
	Level int     `metric:"netchain_test_level,gauge"`
	Note  string
}

type testInner struct {
	Inner uint32 `metric:"netchain_test_inner_total"`
}

func TestExportWalksTaggedFields(t *testing.T) {
	r := NewRegistry()
	var ops atomic.Uint64
	r.Export(func() any {
		return testLedger{testInner{7}, ops.Load(), 7.5, -2, "not a series"}
	})
	h := stats.NewLatencyHistogram()
	h.Observe(1000)
	h.Observe(3000)
	r.Histogram("netchain_test_lat_ns", "latency", h)
	ops.Add(6)

	got := map[string]Sample{}
	for _, s := range r.Snapshot() {
		got[s.Name] = s
	}
	for _, want := range []Sample{
		{Name: "netchain_test_ops_total", Kind: KindCounter, Value: 6, Help: "ops"},
		{Name: "netchain_test_depth", Kind: KindGauge, Value: 7.5, Help: "depth"},
		{Name: "netchain_test_level", Kind: KindGauge, Value: -2},
		{Name: "netchain_test_inner_total", Kind: KindCounter, Value: 7},
		{Name: "netchain_test_lat_ns_count", Kind: KindCounter, Value: 2, Help: "latency"},
		{Name: "netchain_test_lat_ns_mean", Kind: KindGauge, Value: 2000, Help: "latency"},
	} {
		if got[want.Name] != want {
			t.Errorf("%s = %+v, want %+v", want.Name, got[want.Name], want)
		}
	}
	// The process snapshot rides along; nothing else is exported.
	if got[GoGoroutines].Value < 1 || got[GoGoroutines].Kind != KindGauge {
		t.Fatalf("goroutines = %+v", got[GoGoroutines])
	}
	if len(got) != 2+4+5 {
		t.Fatalf("%d series, want 11: %v", len(got), got)
	}
}

func TestExportRejectsBadFields(t *testing.T) {
	for name, snap := range map[string]any{
		"option": struct {
			X uint64 `metric:"netchain_x,histogram"`
		}{},
		"type": struct {
			X string `metric:"netchain_x"`
		}{},
	} {
		r := NewRegistry()
		r.Export(func() any { return snap })
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Snapshot accepted a bad field", name)
				}
			}()
			r.Snapshot()
		}()
	}
}

func TestExportConcurrentWithScrapes(t *testing.T) {
	r := NewRegistry()
	var n atomic.Uint64
	r.Export(func() any {
		return struct {
			N uint64 `metric:"netchain_test_n_total"`
		}{n.Load()}
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				n.Add(1)
				_ = r.Snapshot()
			}
		}()
	}
	// Registering while scrapes run must not race either.
	r.Histogram("netchain_test_late_ns", "", stats.NewLatencyHistogram())
	wg.Wait()
	for _, s := range r.Snapshot() {
		if s.Name == "netchain_test_n_total" && s.Value != 4000 {
			t.Fatalf("counter = %v", s.Value)
		}
	}
}

func TestPromRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Export(func() any {
		return struct {
			Total uint64  `metric:"netchain_rt_total" help:"help text here"`
			Depth float64 `metric:"netchain_rt_depth,gauge"`
		}{3, 1.25}
	})
	var buf bytes.Buffer
	if err := WriteProm(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "# HELP netchain_rt_total help text here") {
		t.Fatalf("missing help:\n%s", text)
	}
	if !strings.Contains(text, "# TYPE netchain_rt_total counter") {
		t.Fatalf("missing type:\n%s", text)
	}
	if strings.Contains(text, "# HELP netchain_rt_depth") {
		t.Fatalf("help line for a series without help:\n%s", text)
	}
	m, err := ParseProm(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m["netchain_rt_total"] != 3 || m["netchain_rt_depth"] != 1.25 {
		t.Fatalf("parsed = %v", m)
	}
}

func TestParsePromForms(t *testing.T) {
	good := `
# comment
name_a 1
name_b{label="x",other="y"} 2.5
name_c 3 1700000000
name_inf +Inf
`
	m, err := ParseProm(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if m["name_a"] != 1 || m[`name_b{label="x",other="y"}`] != 2.5 || m["name_c"] != 3 {
		t.Fatalf("parsed = %v", m)
	}
	for _, bad := range []string{
		"0badname 1",
		"name",
		"name notafloat",
		"name 1 2 3",
		"name{unterminated 1",
		"name 1 badts",
	} {
		if _, err := ParseProm(strings.NewReader(bad)); err == nil {
			t.Fatalf("parse accepted %q", bad)
		}
	}
}

func TestServeDebugEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Export(func() any {
		return struct {
			Served uint64 `metric:"netchain_serve_total"`
		}{9}
	})
	d, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", d.Addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	m, err := ParseProm(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if m["netchain_serve_total"] != 9 {
		t.Fatalf("scraped = %v", m["netchain_serve_total"])
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars status %d", code)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof status %d", code)
	}
}
