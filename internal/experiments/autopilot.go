package experiments

import (
	"time"

	"netchain/internal/controller"
	"netchain/internal/event"
	"netchain/internal/health"
	"netchain/internal/packet"
)

// The simulated half of the self-healing control plane: per-switch
// heartbeat emitters (each beacon runs through its own switch's pipeline,
// so fail-stop kills it and gray degradation delays it — EmitFrom), a
// monitor host dual-homed like the spare, data-plane probes measuring
// each switch's actual forwarding path, and the controller Autopilot — all
// driven by the discrete-event engine, so nemesis schedules exercise
// detection and repair deterministically. What the monitor host makes of
// beacons and echoes is health.Core's, the engine the UDP health.Monitor
// drives too.

// AutopilotOpts sizes the harness.
type AutopilotOpts struct {
	Heartbeat time.Duration // switch beacon cadence (default 500 µs)

	// Detector overrides the derived health config (nil = Defaults(Heartbeat)).
	Detector *health.Config
	// Pilot overrides the autopilot config; Spares is filled from the
	// Spares field below when unset.
	Pilot *controller.AutopilotConfig
	// Spares is the recovery pool (default: the testbed spare S3).
	Spares []packet.Addr
}

func (o *AutopilotOpts) defaults(d *Deployment) {
	if o.Heartbeat == 0 {
		o.Heartbeat = 500 * time.Microsecond
	}
	if len(o.Spares) == 0 {
		o.Spares = d.Spares()
	}
}

// AutopilotHarness is a running autopilot over a simulated deployment.
type AutopilotHarness struct {
	Det     *health.Detector
	Pilot   *controller.Autopilot
	Monitor packet.Addr

	d       *Deployment
	core    *health.Core
	stopped bool
	hbSeq   uint64
}

// StartAutopilot attaches the monitor host, starts heartbeat emitters,
// the prober and the reconcile loop. Call after d.Ctl is final. The
// harness schedules recurring events; call Stop (or schedule it) before
// relying on Sim.Run() draining to quiescence.
func StartAutopilot(d *Deployment, o AutopilotOpts) (*AutopilotHarness, error) {
	o.defaults(d)
	mon, err := d.AttachMonitor()
	if err != nil {
		return nil, err
	}
	dcfg := health.Defaults(o.Heartbeat)
	if d.Fab != nil {
		// Fabrics have metered transit links, so the opt-in Congested
		// verdict is on by default: RTT sustained past 2.5× baseline with
		// loss and drop channels clean reads as path queueing, answered by
		// re-placement (below), never by eviction.
		dcfg.CongestRTTFactor = 2.5
	}
	if o.Detector != nil {
		dcfg = *o.Detector
	}
	det := health.NewDetector(dcfg)
	pcfg := controller.AutopilotConfig{Interval: o.Heartbeat, Spares: o.Spares}
	if o.Pilot != nil {
		pcfg = *o.Pilot
		if len(pcfg.Spares) == 0 {
			pcfg.Spares = o.Spares
		}
	}
	if d.Fab != nil && pcfg.Placer == nil {
		pcfg.Placer = d.CongestionPlacer()
	}
	h := &AutopilotHarness{
		Det:     det,
		Monitor: mon,
		d:       d,
		core:    health.NewCore(det, mon),
	}
	now := func() time.Duration { return time.Duration(d.Sim.Now()) }
	h.Pilot = controller.NewAutopilot(d.Ctl, det, controller.SimScheduler{Sim: d.Sim}, now, pcfg)

	if err := d.Net.HostRecv(mon, func(f *packet.Frame) { h.core.Receive(f, now()) }); err != nil {
		return nil, err
	}
	switches := d.SwitchAddrs()
	for _, sw := range switches {
		h.core.Watch(sw, now())
	}
	// Stagger the emitters across the interval so beacons don't arrive
	// as a synchronized burst (deterministic offsets). A retired switch
	// keeps beating, as a drained netchaind does until it is shut down;
	// the Core ignores it.
	hb := event.Duration(o.Heartbeat)
	for i, sw := range switches {
		offset := hb * event.Time(i+1) / event.Time(len(switches)+1)
		var loop func()
		loop = func() {
			if h.stopped {
				return
			}
			h.emitHeartbeat(sw)
			d.Sim.After(hb, loop)
		}
		d.Sim.After(offset, loop)
	}
	// Probes run through every switch's forwarding path.
	probeEvery := event.Duration(h.core.ProbeEvery())
	var probeLoop func()
	probeLoop = func() {
		if h.stopped {
			return
		}
		h.core.ProbeRound(now(), d.SwitchAddrs(), func(f *packet.Frame) { d.Net.Inject(mon, f) })
		d.Sim.After(probeEvery, probeLoop)
	}
	d.Sim.After(probeEvery, probeLoop)
	h.Pilot.Start()
	return h, nil
}

// Stop halts heartbeats, probes and reconcile ticks so the simulator can
// drain to quiescence; repairs already in flight complete.
func (h *AutopilotHarness) Stop() {
	h.stopped = true
	h.Pilot.Stop()
}

// RecordMilestones installs an OnEvent hook that captures the first
// failover and the first completed recovery — the MTTR milestones the
// chaos scenario and the Fig. 10 demo both report.
func (h *AutopilotHarness) RecordMilestones(failover, recovery *time.Duration) {
	h.Pilot.OnEvent = func(ev controller.RepairEvent) {
		switch ev.Action {
		case controller.ActionFailover:
			if *failover == 0 {
				*failover = ev.At
			}
		case controller.ActionRecoverDone:
			if *recovery == 0 {
				*recovery = ev.At
			}
		}
	}
}

// Forget retires a switch from the health plane (health.Core.Forget) so a
// deliberately drained switch that powers off is not "detected" as a
// failure and repaired.
func (h *AutopilotHarness) Forget(sw packet.Addr) { h.core.Forget(sw) }

// emitHeartbeat builds one beacon from the switch's node-local counters
// and pushes it through the switch's own pipeline.
func (h *AutopilotHarness) emitHeartbeat(sw packet.Addr) {
	drops, processed, backlog := h.d.Net.NodeCounters(sw)
	var retries uint64
	if s, ok := h.d.Net.Switch(sw); ok {
		retries = s.Stats().WritesReplayed
	}
	h.hbSeq++
	f := packet.GetFrame()
	health.NewHeartbeat(f, sw, h.Monitor, h.hbSeq, health.Payload{
		Queue:     uint32(backlog / 1000), // µs of modelled backlog
		Drops:     drops,
		Processed: processed,
		Retries:   retries,
	})
	h.d.Net.EmitFrom(sw, f)
}

// HealthString renders the current snapshot as health.Table, the table
// `netchainctl cluster health` prints.
func (h *AutopilotHarness) HealthString() string {
	return health.Table(h.Det.Snapshot(time.Duration(h.d.Sim.Now())), h.Pilot.Demoted())
}
