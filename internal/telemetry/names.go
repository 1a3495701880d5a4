package telemetry

// Canonical series names. Every exporter registers under these constants
// and every consumer (netchainctl top, cluster health, the CI metrics
// smoke) scrapes them by the same constants, so names and values cannot
// drift between the dashboard and /metrics. The README's metrics
// reference table mirrors this file.
const (
	// Process-wide (installed by NewRegistry).
	GoGoroutines = "netchain_go_goroutines"
	GoHeapBytes  = "netchain_go_heap_bytes"

	// Switch dataplane (core.Switch.Stats).
	SwitchReads          = "netchain_switch_reads_total"
	SwitchWritesHead     = "netchain_switch_writes_head_total"
	SwitchWritesApply    = "netchain_switch_writes_apply_total"
	SwitchWritesStale    = "netchain_switch_writes_stale_total"
	SwitchWritesReplayed = "netchain_switch_writes_replayed_total"
	SwitchWritesFrozen   = "netchain_switch_writes_frozen_total"
	SwitchCASFails       = "netchain_switch_cas_fails_total"
	SwitchReplies        = "netchain_switch_replies_total"
	SwitchRuleHits       = "netchain_switch_rule_hits_total"
	SwitchRuleDrops      = "netchain_switch_rule_drops_total"
	SwitchNotFound       = "netchain_switch_not_found_total"
	SwitchTransits       = "netchain_switch_transits_total"
	SwitchProcessed      = "netchain_switch_processed_total"
	// What the switch stores (swsim.Pipeline.ItemCount / ResidentBytes).
	SwitchItems         = "netchain_switch_items"
	SwitchRegisterBytes = "netchain_switch_register_bytes"

	// Transport node socket layer (transport.NodeStats).
	NodeReadErrors       = "netchain_node_read_errors_total"
	NodeDecodeErrors     = "netchain_node_decode_errors_total"
	NodeTruncatedBatches = "netchain_node_truncated_batches_total"
	NodeRecvBatches      = "netchain_node_recv_batches_total"
	NodeRecvDatagrams    = "netchain_node_recv_datagrams_total"
	NodeRecvFrames       = "netchain_node_recv_frames_total"
	NodeEventsPublished  = "netchain_node_events_published_total"
	NodeRcvBufBytes      = "netchain_node_rcvbuf_bytes"
	NodeQueueDepth       = "netchain_node_queue_depth"
	// NodeProcNs is a histogram of handle() wall time for sampled frames;
	// expands to _count/_p50/_p99/_mean/_max.
	NodeProcNs = "netchain_node_proc_ns"

	// Transport client (transport.ClientStats).
	ClientSent         = "netchain_client_sent_total"
	ClientRetries      = "netchain_client_retries_total"
	ClientTimeouts     = "netchain_client_timeouts_total"
	ClientLate         = "netchain_client_late_total"
	ClientReadErrors   = "netchain_client_read_errors_total"
	ClientDecodeErrors = "netchain_client_decode_errors_total"
	ClientTraces       = "netchain_client_traces_total"

	// Relay fan-out tier (relay.Server.Stats).
	RelayEventsIn        = "netchain_relay_events_in_total"
	RelayEventsDup       = "netchain_relay_events_dup_total"
	RelayEventsOut       = "netchain_relay_events_out_total"
	RelayEgressDatagrams = "netchain_relay_egress_datagrams_total"
	RelaySubscribers     = "netchain_relay_subscribers"
	RelayDecodeErrors    = "netchain_relay_decode_errors_total"

	// Health monitor (heartbeat ingest + active probes).
	MonitorHeartbeats    = "netchain_monitor_heartbeats_total"
	MonitorProbes        = "netchain_monitor_probes_total"
	MonitorProbeTimeouts = "netchain_monitor_probe_timeouts_total"
	MonitorSuspects      = "netchain_monitor_suspects"

	// Controller / autopilot.
	ControllerSwitches    = "netchain_controller_switches"
	ControllerRepairs     = "netchain_controller_repairs_total"
	ControllerAgentErrors = "netchain_controller_agent_errors_total"
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
