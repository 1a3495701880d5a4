package netchain_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"netchain/internal/controller"
	"netchain/internal/core"
	"netchain/internal/health"
	"netchain/internal/packet"
	"netchain/internal/relay"
	"netchain/internal/swsim"
	"netchain/internal/telemetry"
	"netchain/internal/transport"
)

// The series each daemon serves on /metrics, as "name kind". Operator
// dashboards read them: a rename or a kind change must show up here.
var goldenSeries = map[string]string{
	"netchaind": `
netchain_go_goroutines gauge
netchain_go_heap_bytes gauge
netchain_node_decode_errors_total counter
netchain_node_encode_errors_total counter
netchain_node_events_published_total counter
netchain_node_no_route_total counter
netchain_node_proc_ns_count counter
netchain_node_proc_ns_max gauge
netchain_node_proc_ns_mean gauge
netchain_node_proc_ns_p50 gauge
netchain_node_proc_ns_p99 gauge
netchain_node_queue_depth gauge
netchain_node_rcvbuf_bytes gauge
netchain_node_read_errors_total counter
netchain_node_recv_batches_total counter
netchain_node_recv_datagrams_total counter
netchain_node_recv_frames_total counter
netchain_node_send_errors_total counter
netchain_node_truncated_batches_total counter
netchain_switch_cas_fails_total counter
netchain_switch_forwarded_total counter
netchain_switch_frames_in_total counter
netchain_switch_items gauge
netchain_switch_local_drops_total counter
netchain_switch_not_found_total counter
netchain_switch_processed_total counter
netchain_switch_reads_total counter
netchain_switch_register_bytes gauge
netchain_switch_replies_total counter
netchain_switch_route_drops_total counter
netchain_switch_rule_drops_total counter
netchain_switch_rule_hits_total counter
netchain_switch_transits_total counter
netchain_switch_writes_apply_total counter
netchain_switch_writes_frozen_total counter
netchain_switch_writes_head_total counter
netchain_switch_writes_replayed_total counter
netchain_switch_writes_stale_total counter
`,
	"netchain-controller -autopilot -relay-udp": `
netchain_controller_agent_errors_total counter
netchain_controller_repairs_total counter
netchain_controller_switches gauge
netchain_go_goroutines gauge
netchain_go_heap_bytes gauge
netchain_monitor_heartbeats_total counter
netchain_monitor_probe_timeouts_total counter
netchain_monitor_probes_total counter
netchain_monitor_suspects gauge
netchain_relay_decode_errors_total counter
netchain_relay_egress_datagrams_total counter
netchain_relay_events_dup_total counter
netchain_relay_events_in_total counter
netchain_relay_events_out_total counter
netchain_relay_subscribers gauge
`,
	"netchain-relay": `
netchain_go_goroutines gauge
netchain_go_heap_bytes gauge
netchain_relay_decode_errors_total counter
netchain_relay_egress_datagrams_total counter
netchain_relay_events_dup_total counter
netchain_relay_events_in_total counter
netchain_relay_events_out_total counter
netchain_relay_subscribers gauge
`,
}

// daemonRegistries registers every component's ledger the way the three
// daemons do.
func daemonRegistries(t *testing.T) map[string]*telemetry.Registry {
	t.Helper()
	sw, err := core.NewSwitch(packet.AddrFrom4(10, 0, 0, 1), swsim.Config{Stages: 8, SlotBytes: 16, SlotsPerStage: 64, PPS: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	node, err := transport.NewSwitchNode(sw, transport.NewAddressBook(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	rs, err := relay.Start(relay.Config{Addr: packet.AddrFrom4(10, 255, 0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	det := health.NewDetector(health.Config{})
	mon, err := transport.NewMonitor("127.0.0.1:0", packet.AddrFrom4(10, 255, 0, 1), det)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mon.Close() })
	var agents controller.Agents
	agents.Set(sw.Addr(), controller.LocalAgent{Switch: sw})
	ctl, err := controller.NewLive(controller.DefaultConfig(), 4, 1, []packet.Addr{sw.Addr()}, &agents)
	if err != nil {
		t.Fatal(err)
	}
	ap := controller.NewAutopilot(ctl, det, mon.Clock(), controller.AutopilotConfig{})

	regs := map[string]*telemetry.Registry{}
	for name := range goldenSeries {
		regs[name] = telemetry.NewRegistry()
	}
	node.RegisterMetrics(regs["netchaind"])
	ctlReg := regs["netchain-controller -autopilot -relay-udp"]
	mon.RegisterMetrics(ctlReg)
	rs.RegisterMetrics(ctlReg)
	controller.RegisterMetrics(ctlReg, ctl, ap)
	rs.RegisterMetrics(regs["netchain-relay"])
	return regs
}

// TestExportedSeriesPinned holds the series every daemon exports to the
// golden list, every name netchainctl reads (names.go) to a series some
// daemon exports, and README's metrics table to one row per series.
func TestExportedSeriesPinned(t *testing.T) {
	exported := map[string]bool{}
	for daemon, reg := range daemonRegistries(t) {
		var got []string
		for _, s := range reg.Snapshot() {
			got = append(got, s.Name+" "+s.Kind.String())
			exported[s.Name] = true
			if s.Help == "" {
				t.Errorf("%s: %s has no help text", daemon, s.Name)
			}
		}
		if want := strings.TrimSpace(goldenSeries[daemon]); strings.Join(got, "\n") != want {
			t.Errorf("%s exports\n%s\nwant\n%s", daemon, strings.Join(got, "\n"), want)
		}
	}
	for _, name := range telemetry.RequiredNodeSeries {
		if !exported[name] {
			t.Errorf("required node series %s is not exported", name)
		}
	}

	// A histogram is documented, and named in names.go, by its base name.
	series := maps.Clone(exported)
	for name := range exported {
		if base, ok := strings.CutSuffix(name, "_p99"); ok {
			for _, sfx := range []string{"_count", "_p50", "_p99", "_mean", "_max"} {
				delete(series, base+sfx)
			}
			series[base] = true
		}
	}
	for _, name := range namesGoConstants(t) {
		if !series[name] {
			t.Errorf("names.go names %s, which no snapshot exports", name)
		}
	}
	documented := map[string]bool{}
	for _, name := range readmeMetricsRows(t) {
		if documented[name] {
			t.Errorf("README documents %s twice", name)
		}
		documented[name] = true
		if !series[name] {
			t.Errorf("README documents %s, which no daemon exports", name)
		}
	}
	for name := range series {
		if !documented[name] {
			t.Errorf("README's metrics table has no row for %s", name)
		}
	}
}

// namesGoConstants returns the value of every string constant declared in
// internal/telemetry/names.go.
func namesGoConstants(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "internal/telemetry/names.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		if d, ok := n.(*ast.GenDecl); ok && d.Tok == token.CONST {
			for _, spec := range d.Specs {
				for _, v := range spec.(*ast.ValueSpec).Values {
					s, err := strconv.Unquote(v.(*ast.BasicLit).Value)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, s)
				}
			}
		}
		return true
	})
	if len(out) == 0 {
		t.Fatal("names.go declares no constants")
	}
	return out
}

// readmeMetricsRows returns the series named in the first column of every
// row of README's metrics reference table; a row must name exactly one.
func readmeMetricsRows(t *testing.T) []string {
	t.Helper()
	f, err := os.Open("README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	row := regexp.MustCompile("^\\| `(netchain_[a-z0-9_]+)` \\|")
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "| `netchain_") {
			continue
		}
		if m := row.FindStringSubmatch(line); m != nil {
			out = append(out, m[1])
		} else {
			t.Errorf("README metrics row does not name exactly one series: %s", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("README has no metrics table rows")
	}
	return out
}
