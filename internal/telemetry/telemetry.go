// Package telemetry is the metrics plane: a registry that turns each
// component's Stats snapshot into series and renders them in Prometheus
// text exposition format. A series is declared once, as a tagged field of
// the snapshot struct that counts it:
//
//	Reads uint64 `metric:"netchain_switch_reads_total" help:"read queries served here"`
//
// ",gauge" after the name marks an instantaneous value; a field without
// it is a counter. Transport nodes, the relay, the health monitor and the
// controller each export their snapshot through Registry.Export;
// netchainctl top and the CI metrics smoke scrape by the few names they
// read (names.go).
package telemetry

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"

	"netchain/internal/stats"
)

// Kind distinguishes sample semantics in the exposition format.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
)

func (k Kind) String() string {
	if k == KindCounter {
		return "counter"
	}
	return "gauge"
}

// Sample is one exported series value.
type Sample struct {
	Name  string
	Kind  Kind
	Value float64
	Help  string
}

type histogram struct {
	h    *stats.Histogram
	help string
}

// Registry holds a process's exported series.
type Registry struct {
	mu        sync.Mutex
	hists     map[string]histogram
	snapshots []func() any
}

// processStats is the process-health snapshot every registry exports.
type processStats struct {
	Goroutines int    `metric:"netchain_go_goroutines,gauge" help:"goroutines in this process"`
	HeapBytes  uint64 `metric:"netchain_go_heap_bytes,gauge" help:"bytes of allocated heap objects"`
}

// NewRegistry returns a registry exporting only the process snapshot
// (goroutines, heap).
func NewRegistry() *Registry {
	r := &Registry{hists: make(map[string]histogram)}
	r.Export(func() any {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return processStats{Goroutines: runtime.NumGoroutine(), HeapBytes: ms.HeapAlloc}
	})
	return r
}

// Export publishes the struct snapshot returns, taken afresh at every
// scrape: each field tagged `metric:"name[,gauge]"` becomes one series,
// with the field's `help` tag as its help text. Untagged embedded structs
// are walked too, so a snapshot that embeds another component's Stats
// exports both. A tagged field must be an integer or a float.
func (r *Registry) Export(snapshot func() any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.snapshots = append(r.snapshots, snapshot)
}

// appendFields appends one sample per tagged field of the struct v.
func appendFields(out []Sample, v reflect.Value) []Sample {
	t := v.Type()
	for i := range t.NumField() {
		f, fv := t.Field(i), v.Field(i)
		tag, ok := f.Tag.Lookup("metric")
		if !ok {
			if f.Anonymous && fv.Kind() == reflect.Struct {
				out = appendFields(out, fv)
			}
			continue
		}
		name, opt, _ := strings.Cut(tag, ",")
		s := Sample{Name: name, Help: f.Tag.Get("help")}
		switch opt {
		case "":
		case "gauge":
			s.Kind = KindGauge
		default:
			panic(fmt.Sprintf("telemetry: %s.%s: unknown metric option %q", t, f.Name, opt))
		}
		switch {
		case fv.CanUint():
			s.Value = float64(fv.Uint())
		case fv.CanInt():
			s.Value = float64(fv.Int())
		case fv.CanFloat():
			s.Value = fv.Float()
		default:
			panic(fmt.Sprintf("telemetry: %s.%s: %s is not a number", t, f.Name, f.Type))
		}
		out = append(out, s)
	}
	return out
}

// Histogram registers a concurrency-safe histogram under name. Snapshots
// expand it to <name>_count, <name>_p50, <name>_p99, <name>_mean and
// <name>_max series.
func (r *Registry) Histogram(name, help string, h *stats.Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hists[name] = histogram{h: h, help: help}
}

// Snapshot renders every registered series, sorted by name.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	snapshots := append([]func() any(nil), r.snapshots...)
	var out []Sample
	for name, e := range r.hists {
		h := e.h
		for _, s := range []Sample{
			{Name: name + "_count", Kind: KindCounter, Value: float64(h.Count())},
			{Name: name + "_p50", Kind: KindGauge, Value: h.P50()},
			{Name: name + "_p99", Kind: KindGauge, Value: h.P99()},
			{Name: name + "_mean", Kind: KindGauge, Value: h.Mean()},
			{Name: name + "_max", Kind: KindGauge, Value: h.Max()},
		} {
			s.Help = e.help
			out = append(out, s)
		}
	}
	r.mu.Unlock()

	for _, fn := range snapshots {
		out = appendFields(out, reflect.ValueOf(fn()))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
