package netsim

import (
	"fmt"

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

// HostRecv installs the receive callback for a host after construction.
func (n *Network) HostRecv(addr packet.Addr, recv func(*packet.Frame)) error {
	nd, ok := n.nodes[addr]
	if !ok || nd.kind != KindHost {
		return fmt.Errorf("netsim: %v is not a host", addr)
	}
	nd.recv = recv
	return nil
}
