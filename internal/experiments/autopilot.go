package experiments

import (
	"maps"
	"slices"
	"time"

	"netchain/internal/controller"
	"netchain/internal/event"
	"netchain/internal/health"
	"netchain/internal/packet"
	"netchain/internal/ring"
)

// The simulated half of the self-healing control plane: per-switch
// heartbeat emitters (each beacon runs through its own switch's pipeline,
// so fail-stop kills it and gray degradation delays it — EmitFrom), a
// monitor host dual-homed like the spare, data-plane probes measuring
// each switch's actual forwarding path, and the controller Autopilot — all
// driven by the discrete-event engine, so nemesis schedules exercise
// detection and repair deterministically. What the monitor host makes of
// beacons and echoes is health.Core's, the engine the UDP transport.Monitor
// drives too.

// AutopilotOpts sizes the harness.
type AutopilotOpts struct {
	// Heartbeat is the detector's heartbeat (default 500 µs): the switch
	// beacon cadence and the unit of every health-plane clock.
	Heartbeat time.Duration

	// Detector overrides the derived health config (nil = Heartbeat, plus
	// the congestion bar on fabrics); its HeartbeatEvery replaces
	// Heartbeat.
	Detector *health.Config
	// Pilot overrides the autopilot config; its recovery pool defaults to
	// the deployment's spares.
	Pilot *controller.AutopilotConfig
}

// AutopilotHarness is a running autopilot over a simulated deployment.
type AutopilotHarness struct {
	Det     *health.Detector
	Pilot   *controller.Autopilot
	Monitor packet.Addr

	d       *Deployment
	core    *health.Core
	hb      event.Time           // beacon cadence
	beating map[packet.Addr]bool // switches with a running beacon
	stopped bool
	hbSeq   uint64
}

// StartAutopilot attaches the monitor host, starts heartbeat emitters,
// the prober and the reconcile loop. Call after d.Ctl is final. The
// harness schedules recurring events; call Stop (or schedule it) before
// relying on Sim.Run() draining to quiescence.
func StartAutopilot(d *Deployment, o AutopilotOpts) (*AutopilotHarness, error) {
	mon, err := d.Fab.AttachMonitor()
	if err != nil {
		return nil, err
	}
	dcfg := health.Config{HeartbeatEvery: o.Heartbeat}
	if d.Fab.Spec.Kind != "ring" {
		// Fabrics have metered transit links, so the opt-in Congested
		// verdict is on by default: RTT sustained past 2.5× baseline with
		// loss and drop channels clean reads as path queueing, answered by
		// re-placement (below). The 4× gray bar still applies, so on a
		// 500 µs fattree:4 a leaf delayed by +20 µs or more is rehomed
		// and then demoted as gray too.
		dcfg.CongestRTTFactor = 2.5
	}
	if o.Detector != nil {
		dcfg = *o.Detector
	}
	det := health.NewDetector(dcfg)
	var pcfg controller.AutopilotConfig
	if o.Pilot != nil {
		pcfg = *o.Pilot
	}
	if len(pcfg.Spares) == 0 {
		pcfg.Spares = d.Spares()
	}
	if pcfg.Placer == nil {
		pcfg.Placer = d.CongestionPlacer()
	}
	h := &AutopilotHarness{
		Det:     det,
		Monitor: mon,
		d:       d,
		core:    health.NewCore(det, mon),
		hb:      event.Duration(det.HeartbeatEvery()),
		beating: make(map[packet.Addr]bool),
	}
	clk := d.Sim.Clock()
	h.Pilot = controller.NewAutopilot(d.Ctl, det, clk, pcfg)

	if err := d.Net.HostRecv(mon, func(f *packet.Frame) { h.core.Receive(f, clk.Now()) }); err != nil {
		return nil, err
	}
	switches := d.SwitchAddrs()
	for _, sw := range switches {
		h.Watch(sw)
	}
	// Stagger the emitters across the interval so beacons don't arrive
	// as a synchronized burst (deterministic offsets).
	for i, sw := range switches {
		h.beacon(sw, h.hb*event.Time(i+1)/event.Time(len(switches)+1))
	}
	// Probes run through every switch's forwarding path.
	probeEvery := event.Duration(h.core.ProbeEvery())
	var probeLoop func()
	probeLoop = func() {
		if h.stopped {
			return
		}
		h.core.ProbeRound(clk.Now(), d.SwitchAddrs(), func(f *packet.Frame) { d.Net.Inject(mon, f) })
		d.Sim.After(probeEvery, probeLoop)
	}
	d.Sim.After(probeEvery, probeLoop)
	h.Pilot.Start()
	return h, nil
}

// beacon starts sw's heartbeat emitter, first beat after offset, unless
// sw already has one: one beacon per switch address. A retired switch
// keeps beating, as a drained netchaind does until it is shut down; the
// Core ignores it.
func (h *AutopilotHarness) beacon(sw packet.Addr, offset event.Time) {
	if h.beating[sw] {
		return
	}
	h.beating[sw] = true
	var loop func()
	loop = func() {
		if h.stopped {
			return
		}
		h.emitHeartbeat(sw)
		h.d.Sim.After(h.hb, loop)
	}
	h.d.Sim.After(offset, loop)
}

// StartBeacon starts the heartbeat emitter of a switch cabled in after
// StartAutopilot: like a booted netchaind, it beats from the moment it is
// attached. A no-op for a switch that already beats.
func (h *AutopilotHarness) StartBeacon(sw packet.Addr) { h.beacon(sw, 0) }

// Watch (re-)admits sw to the health plane (health.Core.Watch) — the
// add-switch half of Forget, as on the wire.
func (h *AutopilotHarness) Watch(sw packet.Addr) {
	h.core.Watch(sw, time.Duration(h.d.Sim.Now()))
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

// CongestionPlacer returns the autopilot hook that answers a Congested
// verdict on a fabric leaf: every group whose chain runs through the
// congested leaf is re-planned with that member swapped for the coolest
// other live member (fewest chain slots after the swap, lowest address on
// ties), keeping chain order. Deterministic: groups are visited sorted.
func (d *Deployment) CongestionPlacer() func(packet.Addr) map[ring.GroupID][]packet.Addr {
	return func(congested packet.Addr) map[ring.GroupID][]packet.Addr {
		routes := d.Ctl.Routes()
		groups := slices.Sorted(maps.Keys(routes))
		slots := make(map[packet.Addr]int)
		for _, rt := range routes {
			for _, h := range rt.Hops {
				slots[h]++
			}
		}
		members := d.Ring.Switches()
		plans := make(map[ring.GroupID][]packet.Addr)
		for _, g := range groups {
			rt := routes[g]
			idx := slices.Index(rt.Hops, congested)
			if idx < 0 {
				continue
			}
			var best packet.Addr
			bestSlots := -1
			for _, m := range members {
				if m == congested || d.Net.Failed(m) || slices.Contains(rt.Hops, m) {
					continue
				}
				if bestSlots < 0 || slots[m] < bestSlots || (slots[m] == bestSlots && m < best) {
					best, bestSlots = m, slots[m]
				}
			}
			if bestSlots < 0 {
				continue // nowhere to move this chain
			}
			hops := slices.Clone(rt.Hops)
			hops[idx] = best
			slots[best]++
			slots[congested]--
			plans[ring.GroupID(g)] = hops
		}
		return plans
	}
}
