package relay

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"netchain/internal/event"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/telemetry"
	"netchain/internal/transport"
)

// Mode selects the fan-out transport.
type Mode uint8

const (
	// ModeUnicast fans events out to individually leased subscriber
	// endpoints — the fallback for networks without multicast routing
	// (loopback CI, cloud overlays). Cost grows with subscriber count,
	// but stays one datagram per subscriber per *event*, not per poll.
	ModeUnicast Mode = iota
	// ModeMulticast sends one datagram per event to the group's multicast
	// address; the network replicates it to every joined subscriber, so
	// relay egress is independent of subscriber count.
	ModeMulticast
)

func (m Mode) String() string {
	if m == ModeMulticast {
		return "multicast"
	}
	return "unicast"
}

// Config tunes a relay Server.
type Config struct {
	// Bind is the listen address for both sockets ("127.0.0.1:0" in
	// tests; the port is the ingest socket's, the control socket binds
	// the next port up, falling back to an ephemeral one if taken).
	Bind string
	// Addr is the relay's virtual NetChain address, stamped as the IP
	// source of fanned-out event frames.
	Addr packet.Addr
	// Mode selects multicast or unicast-lease fan-out.
	Mode Mode
	// LeaseTTL bounds unicast subscriptions; 0 selects DefaultLeaseTTL.
	LeaseTTL time.Duration
	// RecvBatch sizes the ingest ring (datagrams per syscall); 0 default.
	RecvBatch int
	// Epoch identifies this incarnation of the relay's sequencer in every
	// fanned-out event; subscribers treat an epoch change as a gap and
	// resync (a restarted relay's per-group sequences start over from 1).
	// 0 derives a nonzero epoch from the wall clock, so two incarnations
	// of the same relay virtually never share one.
	Epoch uint16
	// Faults, when set, routes the relay's ingest, fan-out and control
	// datagrams through the wire nemesis (see transport.FaultPipe).
	Faults transport.FaultPipe
}

// Stats is the relay's metrics ledger. Sequencer counters come from Core.
type Stats struct {
	CoreStats
	EgressDatagrams uint64 `metric:"netchain_relay_egress_datagrams_total" help:"fan-out datagrams queued to subscribers (multicast: one per event)"`
	Subscribers     int    `metric:"netchain_relay_subscribers,gauge" help:"live unicast leases (0 in multicast mode)"`
	DecodeErrors    uint64 `metric:"netchain_relay_decode_errors_total" help:"undecodable ingest or control frames"`
}

// Server is the real-network driver of a Core: an ingest socket drains
// event frames from tail agents in recvmmsg batches and fans fresh ones
// out on the same socket's batch egress, while a control socket handles
// OpWatch subscribe/renew/unsubscribe from clients (single-datagram reads
// — the relay must learn each subscriber's real source endpoint, which
// the batched ring does not capture). Every decision — freshness,
// sequence, epoch, which leases are live — is the Core's, on the Server's
// wall clock.
type Server struct {
	cfg  Config
	conn *transport.BatchConn // ingest + fan-out egress
	ctl  *transport.BatchConn // subscription control
	core *Core
	clk  *event.Wall
	to   []*net.UDPAddr // fan-out targets, the ingest goroutine's buffer
	// groupEps holds one multicast endpoint per group, made on first use
	// by the ingest goroutine: egress coalesces frames by endpoint
	// pointer, so one group's events share datagrams.
	groupEps map[uint16]*net.UDPAddr

	egress    atomic.Uint64
	decodeErr atomic.Uint64

	wg sync.WaitGroup
}

// Start binds the relay's sockets and begins serving.
func Start(cfg Config) (*Server, error) {
	if cfg.Bind == "" {
		cfg.Bind = "127.0.0.1:0"
	}
	if cfg.Epoch == 0 {
		// Nanosecond wall clock folded to 16 bits: effectively random per
		// process start, so even a crash-restart within the same second
		// lands on a fresh epoch — a subscriber must see the sequencer
		// reset as an epoch change (gap + resync), never mistake the new
		// stream's low sequence numbers for stale reordering. 0 is
		// reserved for "no epoch" (pre-epoch frames, the sim).
		cfg.Epoch = uint16(time.Now().UnixNano())
		if cfg.Epoch == 0 {
			cfg.Epoch = 1
		}
	}
	conn, err := transport.Listen(cfg.Bind, cfg.RecvBatch, cfg.Faults)
	if err != nil {
		return nil, fmt.Errorf("relay: listen ingest: %w", err)
	}
	// Deployments point subscribers (netchainctl watch -relay) at the
	// control socket, so its port must be predictable: ingest+1 when
	// free, ephemeral otherwise (tests bind ingest to port 0 and read
	// both endpoints back).
	ctlAddr := *conn.LocalAddr()
	ctlAddr.Port++
	ctl, err := transport.Listen(ctlAddr.String(), 0, cfg.Faults)
	if err != nil {
		ctlAddr.Port = 0
		ctl, err = transport.Listen(ctlAddr.String(), 0, cfg.Faults)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("relay: listen control: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		conn:     conn,
		ctl:      ctl,
		core:     NewCore(cfg.Epoch, cfg.LeaseTTL),
		clk:      event.NewWall(1),
		groupEps: map[uint16]*net.UDPAddr{},
	}
	s.wg.Add(2)
	go s.ingestLoop()
	go s.controlLoop()
	return s, nil
}

// IngestEndpoint is where tail agents send OpEvent frames (the node
// event-sink target).
func (s *Server) IngestEndpoint() *net.UDPAddr { return s.conn.LocalAddr() }

// ControlEndpoint is where subscribers send OpWatch control frames.
func (s *Server) ControlEndpoint() *net.UDPAddr { return s.ctl.LocalAddr() }

// Addr returns the relay's virtual NetChain address.
func (s *Server) Addr() packet.Addr { return s.cfg.Addr }

// Mode returns the configured fan-out mode.
func (s *Server) Mode() Mode { return s.cfg.Mode }

// Stats snapshots the relay counters; Subscribers counts live leases
// only (Core.Subscribers).
func (s *Server) Stats() Stats {
	return Stats{
		CoreStats:       s.core.Stats(),
		EgressDatagrams: s.egress.Load(),
		Subscribers:     s.core.Subscribers(s.clk.Now()),
		DecodeErrors:    s.decodeErr.Load(),
	}
}

// RegisterMetrics exports the relay's ledger (Stats) through reg — the
// same snapshot the CLI health path reads, so /metrics and `netchainctl
// cluster health` can never disagree about the relay.
func (s *Server) RegisterMetrics(reg *telemetry.Registry) {
	reg.Export(func() any { return s.Stats() })
}

// Close stops the relay.
func (s *Server) Close() error {
	err := s.conn.Close()
	if cerr := s.ctl.Close(); err == nil {
		err = cerr
	}
	s.wg.Wait()
	return err
}

// ingestLoop drains event batches and fans fresh events out. One
// goroutine owns the BatchConn for both directions, so a whole ingest
// burst flushes as one egress syscall.
func (s *Server) ingestLoop() {
	defer s.wg.Done()
	var f packet.Frame
	ef := packet.GetFrame()
	defer packet.PutFrame(ef)
	handle := func(fr *packet.Frame) { s.handleEvent(fr, ef) }
	ingest := func(dgram []byte) {
		if _, derr := packet.DecodeBatch(&f, dgram, handle); derr != nil {
			s.decodeErr.Add(1)
		}
	}
	s.conn.ReadLoop(func() error {
		_, err := s.conn.ReadBatch(ingest)
		if err == nil {
			s.conn.Flush()
		}
		return err
	}, nil)
}

// handleEvent publishes one ingested event through the Core and queues
// its fan-out.
func (s *Server) handleEvent(fr *packet.Frame, scratch *packet.Frame) {
	ev, err := query.ParseEvent(fr)
	if err != nil {
		s.decodeErr.Add(1)
		return
	}
	var fresh bool
	if s.to, fresh = s.core.Publish(&ev, s.clk.Now(), s.to[:0]); !fresh {
		return
	}
	if s.cfg.Mode == ModeMulticast {
		ep := s.groupEps[ev.Group]
		if ep == nil {
			ep = groupEndpoint(ev.Group)
			s.groupEps[ev.Group] = ep
		}
		s.queueSerialized(FanOutFrame(scratch, s.cfg.Addr, ev, McastPort), ep)
		return
	}
	for _, ep := range s.to {
		s.queueSerialized(FanOutFrame(scratch, s.cfg.Addr, ev, uint16(ep.Port)), ep)
	}
}

// groupEndpoint makes a group's multicast endpoint; a variable so a test
// can aim the fan-out at a loopback socket.
var groupEndpoint = GroupUDP

func (s *Server) queueSerialized(f *packet.Frame, ep *net.UDPAddr) {
	if bp, err := packet.SerializeBuf(f); err == nil {
		s.conn.Queue(bp, ep)
		s.egress.Add(1)
	}
}

// controlLoop serves OpWatch subscribe/renew/unsubscribe. One-datagram
// reads: control traffic is rare (one frame per subscriber per TTL/3),
// and ReadFrom surfaces the source endpoint the lease registry needs.
func (s *Server) controlLoop() {
	defer s.wg.Done()
	buf := make([]byte, 64<<10)
	var f packet.Frame
	s.ctl.ReadLoop(func() error {
		n, src, err := s.ctl.ReadFrom(buf)
		if err != nil {
			return err
		}
		if derr := f.Decode(buf[:n]); derr != nil {
			s.decodeErr.Add(1)
			return nil
		}
		verb, nonce, groups, perr := query.ParseWatch(&f)
		if perr != nil {
			s.decodeErr.Add(1)
			return nil
		}
		switch verb {
		case query.WatchSubscribe:
			s.core.Subscribe(src, groups, s.clk.Now())
		case query.WatchUnsubscribe:
			s.core.Unsubscribe(src, groups)
		default:
			return nil
		}
		s.ack(src, nonce, groups)
		return nil
	}, nil)
}

// ack confirms a control frame: OpWatch back to the subscriber with the
// WatchAck verb and the echoed nonce.
func (s *Server) ack(dst *net.UDPAddr, nonce uint64, groups []uint16) {
	f, err := query.NewWatch(s.cfg.Addr, 0, packet.Port, query.WatchAck, nonce, groups)
	if err != nil {
		return
	}
	defer packet.PutFrame(f)
	f.UDP.DstPort = uint16(dst.Port)
	if bp, err := packet.SerializeBuf(f); err == nil {
		_ = s.ctl.WriteTo(*bp, dst) // a lost ack is retried by the subscriber's renew
		packet.PutBuf(bp)
	}
}
