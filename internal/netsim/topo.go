package netsim

import (
	"fmt"

	"netchain/internal/core"
	"netchain/internal/event"
	"netchain/internal/packet"
	"netchain/internal/swsim"
)

// Profile groups the performance constants of a deployment. The paper
// values (§2, §7, §8): Tofino switches at 4 BQPS with sub-µs processing,
// DPDK clients at 20.5 MQPS per server with ~9.7 µs end-to-end latency
// dominated by the client stack.
type Profile struct {
	// Scale divides every rate to bound simulation cost; reported
	// throughput should be multiplied back by Scale. Latencies are
	// unaffected. Scale 1 simulates true rates.
	Scale float64
	// SwitchPPS is each switch's packet budget before scaling.
	SwitchPPS float64
	// SwitchDelay is per-traversal switch latency.
	SwitchDelay event.Time
	// LinkLatency is per-link propagation latency.
	LinkLatency event.Time
	// HostRate is a client server's query budget (packets it can source or
	// sink per second) before scaling.
	HostRate float64
	// HostDelay is the host-side per-packet stack latency (applied once on
	// send and once on receive by the client model).
	HostDelay event.Time
	// Pipeline is the switch resource geometry.
	Pipeline swsim.Config
}

// PaperProfile returns the constants calibrated to the paper's testbed:
// 9.7 µs query latency on the 6-traversal H0-S0-S1-S2-S1-S0-H0 path, 20.5
// MQPS per client server, 4 BQPS per switch.
func PaperProfile(scale float64) Profile {
	if scale <= 0 {
		scale = 1
	}
	return Profile{
		Scale:       scale,
		SwitchPPS:   4e9,
		SwitchDelay: event.Duration(500), // 0.5 µs/traversal
		LinkLatency: event.Duration(450), // 0.45 µs/link
		HostRate:    20.5e6,
		HostDelay:   event.Duration(2000), // 2 µs per side
		Pipeline:    swsim.Tofino(),
	}
}

// switchRate and hostRate apply scaling.
func (p Profile) switchRate() float64 { return p.SwitchPPS / p.Scale }
func (p Profile) hostRate() float64   { return p.HostRate / p.Scale }

// SwitchNodeConfig builds the netsim config for a switch under p.
func (p Profile) SwitchNodeConfig() NodeConfig {
	return NodeConfig{Rate: p.switchRate(), ProcDelay: p.SwitchDelay}
}

// HostNodeConfig builds the netsim config for a host under p. The host
// rate gate models the NIC/DPDK receive budget; the client adds HostDelay
// per side itself.
func (p Profile) HostNodeConfig() NodeConfig {
	return NodeConfig{Rate: p.hostRate(), ProcDelay: 0}
}

// Testbed is the four-switch, four-server topology of Fig. 8 with the
// §8.1/§8.4 wiring: chain switches S0-S1-S2 in line, S3 connected to S0
// and S2 as the spare/replacement, hosts H0,H1 on S0 and H2,H3 on S2.
type Testbed struct {
	Net      *Network
	Profile  Profile
	Switches [4]packet.Addr // S0..S3
	Hosts    [4]packet.Addr // H0..H3
	// Extra lists switches attached after construction (S4, S5, ... via
	// AttachSwitch) in join order.
	Extra []packet.Addr
}

// SwitchAddrs returns S0..S3 plus any attached extras as a slice.
func (tb *Testbed) SwitchAddrs() []packet.Addr {
	return append(append([]packet.Addr(nil), tb.Switches[:]...), tb.Extra...)
}

// AttachSwitch boots a new switch (S4, S5, ...) under the testbed profile
// and links it to the given peers (defaults to S0 and S2, mirroring the
// spare S3's diamond wiring) — the physical half of elastic scale-out.
func (tb *Testbed) AttachSwitch(peers ...packet.Addr) (packet.Addr, error) {
	addr := packet.AddrFrom4(10, 0, 0, byte(5+len(tb.Extra)))
	if len(peers) == 0 {
		peers = []packet.Addr{tb.Switches[0], tb.Switches[2]}
	}
	sw, err := core.NewSwitch(addr, tb.Profile.Pipeline)
	if err != nil {
		return 0, err
	}
	if err := tb.Net.AttachSwitch(sw, tb.Profile.SwitchNodeConfig(), peers, tb.Profile.LinkLatency); err != nil {
		return 0, err
	}
	tb.Extra = append(tb.Extra, addr)
	return addr, nil
}

// AttachMonitor adds the out-of-band health-monitoring host (dual-homed
// to S0 and S2 like the spare, so one chain-switch failure cannot sever
// monitoring) and returns its address. Idempotent.
func (tb *Testbed) AttachMonitor() (packet.Addr, error) {
	addr := packet.AddrFrom4(10, 1, 0, 9)
	if _, ok := tb.Net.nodes[addr]; ok {
		return addr, nil
	}
	// The monitor is an unmetered observer, not a DPDK client: a rate
	// gate here would serialize concurrent probe echoes and pollute the
	// RTT signal with order-dependent ingest queueing.
	if err := tb.Net.AddHost(addr, NodeConfig{}, nil); err != nil {
		return 0, err
	}
	for _, p := range []packet.Addr{tb.Switches[0], tb.Switches[2]} {
		if err := tb.Net.Link(addr, p, tb.Profile.LinkLatency); err != nil {
			return 0, err
		}
	}
	tb.Net.ComputeRoutes()
	return addr, nil
}

// NewTestbed wires the Fig. 8 testbed. Host receive callbacks are
// installed later by the client layer via HostRecv.
func NewTestbed(sim *event.Sim, p Profile, seed int64) (*Testbed, error) {
	tb := &Testbed{Net: New(sim, seed), Profile: p}
	for i := 0; i < 4; i++ {
		tb.Switches[i] = packet.AddrFrom4(10, 0, 0, byte(i+1))
		tb.Hosts[i] = packet.AddrFrom4(10, 1, 0, byte(i+1))
	}
	for _, sa := range tb.Switches {
		sw, err := core.NewSwitch(sa, p.Pipeline)
		if err != nil {
			return nil, err
		}
		if err := tb.Net.AddSwitch(sw, p.SwitchNodeConfig()); err != nil {
			return nil, err
		}
	}
	for _, ha := range tb.Hosts {
		if err := tb.Net.AddHost(ha, p.HostNodeConfig(), nil); err != nil {
			return nil, err
		}
	}
	links := [][2]packet.Addr{
		{tb.Switches[0], tb.Switches[1]},
		{tb.Switches[1], tb.Switches[2]},
		{tb.Switches[0], tb.Switches[3]},
		{tb.Switches[3], tb.Switches[2]},
		{tb.Hosts[0], tb.Switches[0]},
		{tb.Hosts[1], tb.Switches[0]},
		{tb.Hosts[2], tb.Switches[2]},
		{tb.Hosts[3], tb.Switches[2]},
	}
	for _, l := range links {
		if err := tb.Net.Link(l[0], l[1], p.LinkLatency); err != nil {
			return nil, err
		}
	}
	tb.Net.ComputeRoutes()
	return tb, nil
}

// HostRecv installs the receive callback for a host after construction.
func (n *Network) HostRecv(addr packet.Addr, recv func(*packet.Frame)) error {
	nd, ok := n.nodes[addr]
	if !ok || nd.kind != KindHost {
		return fmt.Errorf("netsim: %v is not a host", addr)
	}
	nd.recv = recv
	return nil
}
