package controller

import (
	"netchain/internal/telemetry"
)

// RegisterMetrics publishes the control plane's view of the cluster: how
// many switches the ring currently places chains over, how many of its
// best-effort agent calls have failed, and — when an autopilot is driving
// repair — how many repair actions it has executed.
// ap may be nil (a manually-driven controller still exports the gauge).
func RegisterMetrics(reg *telemetry.Registry, c *Controller, ap *Autopilot) {
	reg.Help(telemetry.ControllerSwitches, "switches in the partitioning ring")
	reg.Help(telemetry.ControllerRepairs, "autopilot repair actions executed")
	reg.Help(telemetry.ControllerAgentErrors, "best-effort switch-agent calls that failed (unreachable agent, or nothing there to remove)")
	reg.Collect(func(emit func(telemetry.Sample)) {
		emit(telemetry.Sample{
			Name:  telemetry.ControllerSwitches,
			Kind:  telemetry.KindGauge,
			Value: float64(len(c.Ring().Switches())),
		})
		emit(telemetry.Sample{
			Name:  telemetry.ControllerAgentErrors,
			Kind:  telemetry.KindCounter,
			Value: float64(c.AgentErrors()),
		})
		if ap != nil {
			emit(telemetry.Sample{
				Name:  telemetry.ControllerRepairs,
				Kind:  telemetry.KindCounter,
				Value: float64(len(ap.History())),
			})
		}
	})
}
