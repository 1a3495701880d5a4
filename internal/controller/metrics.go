package controller

import (
	"netchain/internal/telemetry"
)

// Stats is the control plane's metrics ledger: how many switches the ring
// currently places chains over, and how many of its best-effort agent
// calls have failed.
type Stats struct {
	Switches    int    `metric:"netchain_controller_switches,gauge" help:"switches in the partitioning ring"`
	AgentErrors uint64 `metric:"netchain_controller_agent_errors_total" help:"best-effort switch-agent calls that failed (unreachable agent, or nothing there to remove)"`
}

// AutopilotStats is the autopilot's metrics ledger.
type AutopilotStats struct {
	Repairs int `metric:"netchain_controller_repairs_total" help:"autopilot repair actions executed"`
}

// RegisterMetrics exports the controller's ledger and, when an autopilot
// is driving repair (ap != nil), the autopilot's.
func RegisterMetrics(reg *telemetry.Registry, c *Controller, ap *Autopilot) {
	reg.Export(func() any {
		return Stats{Switches: len(c.Ring().Switches()), AgentErrors: c.AgentErrors()}
	})
	if ap != nil {
		reg.Export(func() any { return AutopilotStats{Repairs: len(ap.History())} })
	}
}
