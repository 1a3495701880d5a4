package relay

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

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

// DefaultLeaseTTL is how long a unicast subscription lives without
// renewal; subscriber connections renew at a third of it.
const DefaultLeaseTTL = 30 * time.Second

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

type lease struct {
	ep      *net.UDPAddr // stable pointer: egress coalescing keys on it
	expires time.Time
}

// Server is the real-network relay: an ingest socket drains event frames
// from tail agents in recvmmsg batches and fans fresh ones out on the same
// socket's batch egress, while a control socket handles OpWatch
// subscribe/renew/unsubscribe from clients (single-datagram reads — the
// relay must learn each subscriber's real source endpoint, which the
// batched ring does not capture).
type Server struct {
	cfg  Config
	conn *transport.BatchConn // ingest + fan-out egress
	ctl  *transport.BatchConn // subscription control

	core *Core

	mu   sync.Mutex
	subs map[uint16]map[uint64]*lease // group → endpoint key → lease

	egress    atomic.Uint64
	decodeErr atomic.Uint64

	wg sync.WaitGroup
}

// Start binds the relay's sockets and begins serving.
func Start(cfg Config) (*Server, error) {
	if cfg.Bind == "" {
		cfg.Bind = "127.0.0.1:0"
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
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
		cfg:  cfg,
		conn: conn,
		ctl:  ctl,
		core: NewCore(),
		subs: make(map[uint16]map[uint64]*lease),
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

// Stats snapshots the relay counters. Subscribers counts live leases
// only: expired ones are pruned here, so a subscriber that died without
// unsubscribing leaves the gauge once its lease runs out, whether or not
// its groups see traffic.
func (s *Server) Stats() Stats {
	now := time.Now()
	n := 0
	s.mu.Lock()
	for _, g := range s.subs {
		n += len(pruneExpired(g, now))
	}
	s.mu.Unlock()
	return Stats{
		CoreStats:       s.core.Stats(),
		EgressDatagrams: s.egress.Load(),
		Subscribers:     n,
		DecodeErrors:    s.decodeErr.Load(),
	}
}

// pruneExpired deletes the leases in group that expired before now and
// returns the group. The caller holds s.mu.
func pruneExpired(group map[uint64]*lease, now time.Time) map[uint64]*lease {
	for k, l := range group {
		if now.After(l.expires) {
			delete(group, k)
		}
	}
	return group
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

// handleEvent sequences one ingested event and queues its fan-out.
func (s *Server) handleEvent(fr *packet.Frame, scratch *packet.Frame) {
	ev, err := query.ParseEvent(fr)
	if err != nil {
		s.decodeErr.Add(1)
		return
	}
	seq, fresh := s.core.Ingest(ev)
	if !fresh {
		return
	}
	ev.StreamSeq = seq
	ev.Epoch = s.cfg.Epoch
	if s.cfg.Mode == ModeMulticast {
		query.EventInto(scratch, s.cfg.Addr, GroupAddr(ev.Group), packet.Port, McastPort, ev)
		s.queueSerialized(scratch, GroupUDP(ev.Group))
		return
	}
	s.mu.Lock()
	group := pruneExpired(s.subs[ev.Group], time.Now())
	eps := make([]*net.UDPAddr, 0, len(group))
	for _, l := range group {
		eps = append(eps, l.ep)
	}
	s.mu.Unlock()
	for _, ep := range eps {
		query.EventInto(scratch, s.cfg.Addr, GroupAddr(ev.Group), packet.Port, uint16(ep.Port), ev)
		s.queueSerialized(scratch, ep)
	}
}

func (s *Server) queueSerialized(f *packet.Frame, ep *net.UDPAddr) {
	bp := packet.GetBuf()
	out, err := f.Serialize((*bp)[:0])
	if err != nil {
		packet.PutBuf(bp)
		return
	}
	*bp = out
	s.conn.Queue(bp, ep)
	s.egress.Add(1)
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
			s.subscribe(src, groups)
		case query.WatchUnsubscribe:
			s.unsubscribe(src, groups)
		default:
			return nil
		}
		s.ack(src, nonce, groups)
		return nil
	}, nil)
}

// subscribe registers (or renews) src for the listed groups. The lease's
// endpoint records src's host with the *event* delivery port: the
// subscriber receives events on the same socket it controls from.
func (s *Server) subscribe(src *net.UDPAddr, groups []uint16) {
	exp := time.Now().Add(s.cfg.LeaseTTL)
	key := epKey(src)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, g := range groups {
		m := s.subs[g]
		if m == nil {
			m = make(map[uint64]*lease)
			s.subs[g] = m
		}
		if l, ok := m[key]; ok {
			l.expires = exp
			continue
		}
		ep := &net.UDPAddr{IP: append(net.IP(nil), src.IP...), Port: src.Port}
		m[key] = &lease{ep: ep, expires: exp}
	}
}

func (s *Server) unsubscribe(src *net.UDPAddr, groups []uint16) {
	key := epKey(src)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, g := range groups {
		if m := s.subs[g]; m != nil {
			delete(m, key)
			if len(m) == 0 {
				delete(s.subs, g)
			}
		}
	}
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
	bp := packet.GetBuf()
	out, serr := f.Serialize((*bp)[:0])
	if serr == nil {
		_ = s.ctl.WriteTo(out, dst) // a lost ack is retried by the subscriber's renew
	}
	*bp = out
	packet.PutBuf(bp)
}
