package relay

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/transport"
)

// Conn is a subscriber's event intake: it joins the multicast groups for
// the watched virtual groups (ModeMulticast) or leases a unicast
// subscription at the relay's control endpoint and keeps it renewed
// (ModeUnicast). Decoded events are handed to the deliver callback on the
// receive goroutine(s); the watch engine behind it is lock-protected and
// cheap, so no extra queue sits in between.
type Conn struct {
	mode   Mode
	ctl    *net.UDPAddr
	groups []uint16

	conn   *transport.BatchConn   // unicast: control + event intake
	mconns []*transport.BatchConn // multicast: one joined socket per group

	renewEvery time.Duration

	received atomic.Uint64
	acks     atomic.Uint64
	acked    chan struct{} // a control ack arrived (capacity 1)

	stop chan struct{}
	wg   sync.WaitGroup
}

// subRecvBatch sizes a subscriber socket's receive ring: 16 datagrams of
// the relay's largest coalesced fan-out, 64 KB per socket.
const subRecvBatch = 16

// A unicast Subscribe re-sends its lease request every subscribeResend
// until the relay acknowledges it, and gives up after subscribeWait.
const (
	subscribeResend = 25 * time.Millisecond
	subscribeWait   = 2 * time.Second
)

// SubOption tunes a subscriber Conn.
type SubOption func(*subConfig)

type subConfig struct {
	renewEvery time.Duration
	faults     transport.FaultPipe
}

// WithRenewEvery sets the unicast lease renew cadence. Default is
// DefaultLeaseTTL/3; a relay configured with a shorter LeaseTTL needs
// its subscribers renewing at TTL/3, or a relay restart (which loses the
// lease table) silences them until the next slow renew.
func WithRenewEvery(d time.Duration) SubOption {
	return func(c *subConfig) {
		if d > 0 {
			c.renewEvery = d
		}
	}
}

// WithSubFaults routes the subscriber's event intake and control frames
// through the wire nemesis (see transport.FaultPipe).
func WithSubFaults(p transport.FaultPipe) SubOption {
	return func(c *subConfig) { c.faults = p }
}

// Subscribe opens the event intake for the given virtual groups and
// starts delivering events. ctl is the relay's control endpoint (unused
// in multicast mode, may be nil then). deliver runs on internal
// goroutines. A unicast subscription returns once the relay has
// acknowledged its lease, so no event the relay sequences afterwards can
// overtake it; a relay that never acknowledges is an error.
func Subscribe(mode Mode, ctl *net.UDPAddr, groups []uint16, deliver func(query.Event), opts ...SubOption) (*Conn, error) {
	cfg := subConfig{renewEvery: DefaultLeaseTTL / 3}
	for _, o := range opts {
		o(&cfg)
	}
	c := &Conn{
		mode: mode, ctl: ctl, groups: append([]uint16(nil), groups...),
		renewEvery: cfg.renewEvery,
		acked:      make(chan struct{}, 1),
		stop:       make(chan struct{}),
	}
	switch mode {
	case ModeMulticast:
		for _, g := range groups {
			mc, err := transport.ListenMulticast(GroupUDP(g), subRecvBatch, cfg.faults)
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("relay: join group %d (%v): %w", g, GroupAddr(g), err)
			}
			c.mconns = append(c.mconns, mc)
			c.wg.Add(1)
			go c.recvLoop(mc, deliver)
		}
	case ModeUnicast:
		if ctl == nil {
			return nil, fmt.Errorf("relay: unicast subscription needs a control endpoint")
		}
		conn, err := transport.Listen("127.0.0.1:0", subRecvBatch, cfg.faults)
		if err != nil {
			return nil, fmt.Errorf("relay: listen: %w", err)
		}
		c.conn = conn
		c.wg.Add(1)
		go c.recvLoop(conn, deliver)
		if err := c.lease(); err != nil {
			c.Close()
			return nil, err
		}
		c.wg.Add(1)
		go c.renewLoop()
	default:
		return nil, fmt.Errorf("relay: unknown mode %d", mode)
	}
	return c, nil
}

// lease sends the lease request until the relay acknowledges it.
func (c *Conn) lease() error {
	resend := time.NewTicker(subscribeResend)
	defer resend.Stop()
	giveUp := time.NewTimer(subscribeWait)
	defer giveUp.Stop()
	for {
		if err := c.sendControl(query.WatchSubscribe); err != nil {
			return err
		}
		select {
		case <-c.acked:
			return nil
		case <-resend.C:
		case <-giveUp.C:
			return fmt.Errorf("relay: %v did not acknowledge the lease within %v", c.ctl, subscribeWait)
		}
	}
}

// Received returns the count of event frames delivered so far.
func (c *Conn) Received() uint64 { return c.received.Load() }

// Acked returns the count of control acks seen (unicast lease health).
func (c *Conn) Acked() uint64 { return c.acks.Load() }

// Close tears the intake down; unicast leases are released eagerly.
func (c *Conn) Close() error {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	if c.conn != nil {
		_ = c.sendControl(query.WatchUnsubscribe)
		c.conn.Close()
	}
	for _, mc := range c.mconns {
		mc.Close()
	}
	c.wg.Wait()
	return nil
}

func (c *Conn) recvLoop(conn *transport.BatchConn, deliver func(query.Event)) {
	defer c.wg.Done()
	var f packet.Frame
	handle := func(fr *packet.Frame) {
		switch fr.NC.Op {
		case kv.OpEvent:
			if ev, perr := query.ParseEvent(fr); perr == nil {
				c.received.Add(1)
				deliver(ev)
			}
		case kv.OpWatch:
			c.acks.Add(1)
			select {
			case c.acked <- struct{}{}:
			default:
			}
		}
	}
	intake := func(dgram []byte) { _, _ = packet.DecodeBatch(&f, dgram, handle) }
	conn.ReadLoop(func() error {
		_, err := conn.ReadBatch(intake)
		return err
	}, nil)
}

// renewLoop re-subscribes at a third of the lease TTL so transient loss
// of a control frame cannot silently expire the lease. The same cadence
// re-establishes the lease after a relay restart wipes its table.
func (c *Conn) renewLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.renewEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			_ = c.sendControl(query.WatchSubscribe)
		}
	}
}

func (c *Conn) sendControl(verb byte) error {
	f, err := query.NewWatch(0, 0, uint16(c.conn.LocalAddr().Port), verb, uint64(time.Now().UnixNano()), c.groups)
	if err != nil {
		return err
	}
	defer packet.PutFrame(f)
	bp, err := packet.SerializeBuf(f)
	if err != nil {
		return err
	}
	defer packet.PutBuf(bp)
	return c.conn.WriteTo(*bp, c.ctl)
}
