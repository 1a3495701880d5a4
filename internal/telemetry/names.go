package telemetry

// Series that consumers read by name: netchainctl top and metrics-check,
// and RequiredNodeSeries below. Each is declared where it is counted, as
// a tagged field of its component's Stats snapshot (see Export); these
// constants only name it for the reader, and a test fails if one stops
// being exported.
const (
	GoGoroutines = "netchain_go_goroutines"

	// Switch dataplane (core.Stats) and storage (transport.NodeStats).
	SwitchReads         = "netchain_switch_reads_total"
	SwitchRuleDrops     = "netchain_switch_rule_drops_total"
	SwitchProcessed     = "netchain_switch_processed_total"
	SwitchItems         = "netchain_switch_items"
	SwitchRegisterBytes = "netchain_switch_register_bytes"

	// Transport node socket layer (transport.NodeStats).
	NodeReadErrors       = "netchain_node_read_errors_total"
	NodeDecodeErrors     = "netchain_node_decode_errors_total"
	NodeTruncatedBatches = "netchain_node_truncated_batches_total"
	NodeRecvFrames       = "netchain_node_recv_frames_total"
	NodeQueueDepth       = "netchain_node_queue_depth"
	// NodeProcNs is a histogram of handle() wall time for sampled frames;
	// expands to _count/_p50/_p99/_mean/_max.
	NodeProcNs = "netchain_node_proc_ns"

	// Relay fan-out tier (relay.Stats).
	RelayEventsDup       = "netchain_relay_events_dup_total"
	RelayEventsOut       = "netchain_relay_events_out_total"
	RelayEgressDatagrams = "netchain_relay_egress_datagrams_total"
	RelaySubscribers     = "netchain_relay_subscribers"

	// Health monitor (transport.MonitorStats).
	MonitorProbes   = "netchain_monitor_probes_total"
	MonitorSuspects = "netchain_monitor_suspects"

	// Controller / autopilot (controller.Stats, controller.AutopilotStats).
	ControllerSwitches = "netchain_controller_switches"
	ControllerRepairs  = "netchain_controller_repairs_total"
)

// RequiredNodeSeries is the minimum series set a healthy netchaind must
// expose — the CI metrics smoke fails if any is absent.
var RequiredNodeSeries = []string{
	GoGoroutines,
	SwitchReads,
	SwitchProcessed,
	NodeReadErrors,
	NodeDecodeErrors,
	NodeTruncatedBatches,
	NodeRecvFrames,
	NodeQueueDepth,
	NodeProcNs + "_count",
	NodeProcNs + "_p99",
}
