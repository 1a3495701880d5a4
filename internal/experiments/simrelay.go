package experiments

import (
	"fmt"

	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/relay"
)

// SimRelay is the push-watch relay tier on the simulated substrate: an
// unmetered dual-homed host (like the monitor) driving the relay.Core the
// real Server drives, with no epoch and no leases. Once attached it is the
// network's event sink: every chain-tail commit leaves the committing
// switch's host step as one OpEvent frame toward this host; fresh events
// leave it addressed to their virtual group's multicast address, and
// netsim replicates them to every joined subscriber endpoint over
// independent, faultable paths.
type SimRelay struct {
	d    *Deployment
	Addr packet.Addr
	core *relay.Core
}

// relayHostAddr sits next to the monitor host (10.1.0.9).
var relayHostAddr = packet.AddrFrom4(10, 1, 0, 10)

// AttachRelay adds the relay host (netsim.Fabric.AttachHost) and makes it
// the network's event sink: from then on every tail publishes. Idempotent.
func (d *Deployment) AttachRelay() (*SimRelay, error) {
	if d.relay != nil {
		return d.relay, nil
	}
	sr := &SimRelay{d: d, Addr: relayHostAddr, core: relay.NewCore(0, 0)}
	if err := d.Fab.AttachHost(sr.Addr, sr.recv); err != nil {
		return nil, fmt.Errorf("attach relay: %w", err)
	}
	d.Net.SetEventSink(sr.Addr)
	d.relay = sr
	return sr, nil
}

// recv sequences one delivered event and multicasts fresh ones to the
// group's subscribers. Duplicates (tail re-acks of replayed writes, dup
// nemesis copies of the event itself) die here, as does any frame that
// is not an event.
func (sr *SimRelay) recv(f *packet.Frame) {
	ev, err := query.ParseEvent(f)
	if err != nil {
		return
	}
	if _, fresh := sr.core.Publish(&ev, sr.d.Sim.Clock().Now(), nil); fresh {
		sr.d.Net.Inject(sr.Addr, relay.FanOutFrame(&packet.Frame{}, sr.Addr, ev, relay.McastPort))
	}
}

// Join subscribes a host endpoint to the multicast group of virtual
// group g.
func (sr *SimRelay) Join(g uint16, member packet.Addr, port uint16) error {
	return sr.d.Net.JoinGroup(relay.GroupAddr(g), member, port)
}

// Leave removes a host endpoint from virtual group g's multicast group.
func (sr *SimRelay) Leave(g uint16, member packet.Addr, port uint16) {
	sr.d.Net.LeaveGroup(relay.GroupAddr(g), member, port)
}
