package experiments

import (
	"fmt"

	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/relay"
)

// SimRelay is the push-watch relay tier on the simulated substrate: an
// unmetered dual-homed host (like the monitor) running the same
// relay.Core sequencer the real Server uses. The network's commit hook
// makes every chain-tail commit emit one OpEvent frame from the
// committing switch toward this host; fresh events leave it addressed to
// their virtual group's multicast address, and netsim replicates them to
// every joined subscriber endpoint over independent, faultable paths.
type SimRelay struct {
	d    *Deployment
	Addr packet.Addr
	Core *relay.Core

	egress uint64 // fan-out frames injected (one per fresh event)
}

// relayHostAddr sits next to the monitor host (10.1.0.9).
var relayHostAddr = packet.AddrFrom4(10, 1, 0, 10)

// AttachRelay adds the relay host (netsim.Fabric.AttachHost) and arms the
// commit hook. Idempotent.
func (d *Deployment) AttachRelay() (*SimRelay, error) {
	if d.relay != nil {
		return d.relay, nil
	}
	sr := &SimRelay{d: d, Addr: relayHostAddr, Core: relay.NewCore()}
	if err := d.Fab.AttachHost(sr.Addr, sr.recv); err != nil {
		return nil, fmt.Errorf("attach relay: %w", err)
	}
	d.Net.SetCommitHook(sr.onCommit)
	d.relay = sr
	return sr, nil
}

// onCommit publishes one event frame from the committing switch toward
// the relay host — the sim analogue of SwitchNode's event-sink egress.
// The frame shares the switch's packet budget and link paths, so loss,
// partitions and congestion eat events exactly as they would replies.
func (sr *SimRelay) onCommit(at packet.Addr, f *packet.Frame, origOp kv.Op) {
	ev := query.Event{
		Key:     f.NC.Key,
		Value:   kv.Value(f.NC.Value).Clone(),
		Version: f.NC.Version(),
		Group:   f.NC.Group,
		Deleted: origOp == kv.OpDelete,
	}
	ef := query.EventInto(&packet.Frame{}, at, sr.Addr, packet.Port, packet.Port, ev)
	sr.d.Net.EmitFrom(at, ef)
}

// recv sequences one delivered event and multicasts fresh ones to the
// group's subscribers. Duplicates (tail re-acks of replayed writes, dup
// nemesis copies of the event itself) die here.
func (sr *SimRelay) recv(f *packet.Frame) {
	if f.NC.Op != kv.OpEvent {
		return
	}
	ev, err := query.ParseEvent(f)
	if err != nil {
		return
	}
	seq, fresh := sr.Core.Ingest(ev)
	if !fresh {
		return
	}
	ev.StreamSeq = seq
	out := query.EventInto(&packet.Frame{}, sr.Addr, relay.GroupAddr(ev.Group), packet.Port, relay.McastPort, ev)
	sr.egress++
	sr.d.Net.Inject(sr.Addr, out)
}

// Egress returns the count of fan-out frames the relay injected — the
// relay-side cost, independent of how many subscribers each one reached.
func (sr *SimRelay) Egress() uint64 { return sr.egress }

// Join subscribes a host endpoint to the multicast group of virtual
// group g.
func (sr *SimRelay) Join(g uint16, member packet.Addr, port uint16) error {
	return sr.d.Net.JoinGroup(relay.GroupAddr(g), member, port)
}

// Leave removes a host endpoint from virtual group g's multicast group.
func (sr *SimRelay) Leave(g uint16, member packet.Addr, port uint16) {
	sr.d.Net.LeaveGroup(relay.GroupAddr(g), member, port)
}
