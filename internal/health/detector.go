package health

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"netchain/internal/packet"
)

// Verdict is the detector's judgement of one switch.
type Verdict uint8

const (
	// Unknown: no observations yet.
	Unknown Verdict = iota
	// Healthy: heartbeats arriving on cadence, quality within bounds.
	Healthy
	// Gray: alive — heartbeats keep flowing, probes answered — but the
	// data-plane quality signals show sustained decay (inflated probe
	// RTT, probe loss, local drops). The fail-stop detector never fires
	// on these, which is exactly what makes them the hard case.
	Gray
	// FailStop: heartbeats stopped (φ crossed the threshold) and the
	// probe channel corroborates the silence. The switch is treated as
	// dead: fast failover, then recovery.
	FailStop
	// Congested: the switch itself is fine — heartbeats on cadence, no
	// probe loss, no local drops — but its probe RTT EWMA has sat above
	// the congestion bar long enough to latch. The path to it is
	// queueing, not the box decaying: the remedy is moving load (chain
	// re-placement), never failover. Opt-in via Config.CongestRTTFactor.
	Congested
)

func (v Verdict) String() string {
	switch v {
	case Healthy:
		return "healthy"
	case Gray:
		return "gray"
	case FailStop:
		return "fail-stop"
	case Congested:
		return "congested"
	default:
		return "unknown"
	}
}

// beats is a health-plane span in thousandths of a heartbeat. Every
// clock of the detector and of Core's probe loop is a fixed multiple of
// the one setting, Config.HeartbeatEvery (the autopilot ticks on it too),
// so that setting alone moves the whole plane between
// simulated-microsecond and wall-clock-millisecond regimes.
type beats int64

// hb is one heartbeat.
const hb beats = 1000

// The health plane's constants: the spans in heartbeats, then the
// dimensionless scores.
const (
	// defaultHeartbeat is the cadence a zero Config.HeartbeatEvery takes.
	defaultHeartbeat = 500 * time.Microsecond

	// probeEvery is the interval between Core.ProbeRound calls.
	probeEvery = 2 * hb
	// probeLost is how long Core leaves a probe unanswered before it
	// reports it lost.
	probeLost = 8 * hb
	// probeDead is the corroboration requirement: a fail-stop verdict
	// additionally requires the last probe reply to be older than this.
	// A gray switch keeps answering probes, so a φ blip from a few lost
	// heartbeats can never evict it. Ignored for switches that have
	// never answered a probe (probing may be disabled).
	probeDead = 6 * hb
	// bootGrace shields a switch that has never heartbeated from a
	// fail-stop verdict until this long after it was Tracked: a
	// monitor that boots before its switches must not convict boxes
	// that are still starting up (their probe channel is empty too, so
	// probeDead corroboration cannot save them).
	bootGrace = 30 * hb
	// minStdDev floors the estimated σ so a jitter-free network does not
	// hair-trigger on the first delayed beat (and so a run of lost
	// heartbeats — duplication-era networks drop a few — must be several
	// intervals long before φ crosses the threshold).
	minStdDev = hb / 2
	// rttFloor is added to the baseline before the factor comparison so
	// sub-floor jitter on very fast paths cannot flag degradation.
	rttFloor = hb / 500

	// windowSize is the number of inter-arrival samples kept per switch.
	windowSize = 32
	// phiFailStop is the suspicion threshold for fail-stop verdicts.
	// φ = 8 means the silence has probability ~1e-8 under the observed
	// arrival distribution.
	phiFailStop = 8.0
	// defaultGrayRTTFactor is the gray RTT bar a zero
	// Config.GrayRTTFactor takes.
	defaultGrayRTTFactor = 4.0
	// grayLoss flags degradation when the probe-loss EWMA exceeds it.
	grayLoss = 0.25
	// grayDropRate flags degradation when the heartbeat-reported local
	// drop-rate EWMA exceeds it.
	grayDropRate = 0.10
	// grayConfirm / grayClear are the hysteresis counts: this many
	// consecutive degraded observations latch the gray verdict, that
	// many consecutive clean ones release it.
	grayConfirm = 3
	grayClear   = 6
	// grayRelFactor is the peer-relative gate (the Perigee idea: judge a
	// node against its neighbors' measured behavior, not an absolute
	// bar): a latched gray verdict is only emitted while the switch is
	// also anomalous relative to the cluster median — a uniformly loaded
	// (or uniformly degraded) cluster slows every probe equally, and
	// demoting everyone is not a repair.
	grayRelFactor = 2.5
	// baseAlpha / fastAlpha are the EWMA smoothing factors for the slow
	// learned baseline and the fast tracking estimate.
	baseAlpha = 0.05
	fastAlpha = 0.3
)

// Config holds the detector's three settings; everything else is the
// constant table above.
type Config struct {
	// HeartbeatEvery is the expected heartbeat cadence: the bootstrap
	// mean before the window has real samples, and the unit of every
	// span in the table. Zero means 500 µs.
	HeartbeatEvery time.Duration
	// CongestRTTFactor, when positive, enables the Congested verdict: a
	// switch whose fast probe-RTT EWMA exceeds this multiple of its
	// learned baseline — while its probe-loss and local-drop signals
	// stay clean — is flagged as sitting behind a queueing path. Zero
	// disables the verdict entirely (the fabric-less testbed has no
	// transit links to congest). Pick it below GrayRTTFactor so
	// congestion is named before the switch is suspected of decay.
	CongestRTTFactor float64
	// GrayRTTFactor flags degradation when the fast probe-RTT EWMA
	// exceeds this multiple of the switch's learned baseline. Zero
	// means 4. It stays settable because the default sits close enough
	// to a 2.5× congestion bar that sustained queueing often crosses
	// both: a caller that must see the rehome path alone raises it.
	GrayRTTFactor float64
}

// SwitchHealth is one switch's observable state — what `netchainctl
// cluster health` renders and what the autopilot's reconcile loop reads.
type SwitchHealth struct {
	Addr    packet.Addr
	Verdict Verdict
	Phi     float64

	Heartbeats    uint64
	LastHeartbeat time.Duration // timestamp of the latest heartbeat

	RTTEWMA       time.Duration // fast probe round-trip estimate
	RTTBaseline   time.Duration // learned healthy baseline
	ProbeLossEWMA float64
	DropRateEWMA  float64 // from heartbeat payloads (local drops / processed)
	QueueEWMA     float64 // from heartbeat payloads (ingest backlog)

	ProbeReplies   uint64
	ProbeLosses    uint64
	LastProbeReply time.Duration

	DecodeErrs  uint64 // from heartbeat payloads: undecodable datagrams at the switch socket
	RcvBufBytes uint32 // from heartbeat payloads: kernel-effective SO_RCVBUF (0 = unknown)
}

// switchState is the per-switch accumulator.
type switchState struct {
	trackedAt time.Duration
	win       *phiWindow

	hbSeen  uint64
	lastHB  time.Duration
	lastPay Payload
	havePay bool

	dropEWMA  float64
	queueEWMA float64

	probeReplies uint64
	probeLosses  uint64
	probeSeen    bool
	lastProbe    time.Duration
	rttBase      float64 // ns
	rttFast      float64 // ns
	lossEWMA     float64

	gray      latch // sustained quality decay
	congested latch // sustained queueing on a clean path
}

// latch is the confirm/clear hysteresis over one instantaneous judgement:
// grayConfirm consecutive bad observations set it, grayClear consecutive
// good ones release it.
type latch struct {
	set    bool
	streak int // consecutive observations that disagree with set
}

func (l *latch) observe(bad bool) {
	if bad == l.set {
		l.streak = 0
		return
	}
	l.streak++
	if (bad && l.streak >= grayConfirm) || (!bad && l.streak >= grayClear) {
		l.set, l.streak = bad, 0
	}
}

// Detector accrues per-switch suspicion and quality scores from
// heartbeats and probe echoes. All methods take caller timestamps (one
// monotonic timeline per detector), so it is substrate-agnostic and
// deterministic under simulation. Safe for concurrent use.
type Detector struct {
	mu  sync.Mutex
	cfg Config
	sw  map[packet.Addr]*switchState
}

// NewDetector builds a detector; a zero HeartbeatEvery or GrayRTTFactor
// takes its default.
func NewDetector(cfg Config) *Detector {
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = defaultHeartbeat
	}
	if cfg.GrayRTTFactor <= 0 {
		cfg.GrayRTTFactor = defaultGrayRTTFactor
	}
	return &Detector{cfg: cfg, sw: make(map[packet.Addr]*switchState)}
}

// HeartbeatEvery returns the heartbeat cadence in effect: the unit of
// every health-plane clock.
func (d *Detector) HeartbeatEvery() time.Duration { return d.cfg.HeartbeatEvery }

// span converts a span of the table into a duration at this detector's
// heartbeat.
func (d *Detector) span(b beats) time.Duration {
	return d.cfg.HeartbeatEvery * time.Duration(b) / time.Duration(hb)
}

func (d *Detector) state(a packet.Addr, now time.Duration) *switchState {
	st, ok := d.sw[a]
	if !ok {
		st = &switchState{
			trackedAt: now,
			lastHB:    now, // virtual beat: a dead-from-the-start switch accrues φ from here
			win:       newPhiWindow(windowSize),
		}
		d.sw[a] = st
	}
	return st
}

// Track registers a switch so silence from it accrues suspicion even if
// it never sends a single heartbeat. Observations auto-track too.
func (d *Detector) Track(a packet.Addr, now time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.state(a, now)
}

// Forget drops a switch (drained out of the cluster).
func (d *Detector) Forget(a packet.Addr) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.sw, a)
}

// Heartbeat records one heartbeat arrival and folds the carried quality
// payload into the switch's drop-rate and queue EWMAs.
func (d *Detector) Heartbeat(a packet.Addr, now time.Duration, p Payload) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.state(a, now)
	if st.hbSeen > 0 || now > st.lastHB {
		st.win.add(float64(now - st.lastHB))
	}
	st.lastHB = now
	st.hbSeen++
	fa := fastAlpha
	if st.havePay && p.Drops >= st.lastPay.Drops && p.Processed >= st.lastPay.Processed {
		// Counters that went backwards mean the agent restarted; skip
		// this delta rather than underflowing into a ~100% drop rate
		// that would demote a freshly rebooted, healthy switch.
		dd := p.Drops - st.lastPay.Drops
		dp := p.Processed - st.lastPay.Processed
		if total := dd + dp; total > 0 {
			rate := float64(dd) / float64(total)
			st.dropEWMA = fa*rate + (1-fa)*st.dropEWMA
		}
	}
	st.queueEWMA = fa*float64(p.Queue) + (1-fa)*st.queueEWMA
	st.lastPay, st.havePay = p, true
	d.scoreLocked(st)
}

// ProbeReply records a data-plane probe echo: the round trip through the
// switch's actual forwarding path, the strongest gray-degradation signal
// (a switch that is alive but 10× slower answers probes 10× slower).
func (d *Detector) ProbeReply(a packet.Addr, now time.Duration, rtt time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.state(a, now)
	st.probeSeen = true
	st.probeReplies++
	st.lastProbe = now
	r := float64(rtt)
	if st.rttFast == 0 {
		st.rttFast = r
	}
	if st.rttBase == 0 {
		st.rttBase = r
	}
	fa := fastAlpha
	st.rttFast = fa*r + (1-fa)*st.rttFast
	st.lossEWMA = (1 - fa) * st.lossEWMA
	// The baseline only learns from unremarkable samples: a slowdown
	// must not drag the yardstick up after itself, or sustained
	// degradation would re-normalize and never confirm. With congestion
	// detection on, its (tighter) bar gates learning too.
	bar := d.cfg.GrayRTTFactor
	if d.cfg.CongestRTTFactor > 0 && d.cfg.CongestRTTFactor < bar {
		bar = d.cfg.CongestRTTFactor
	}
	if r <= bar*(st.rttBase+float64(d.span(rttFloor))) {
		ba := baseAlpha
		st.rttBase = ba*r + (1-ba)*st.rttBase
	}
	d.scoreLocked(st)
}

// ProbeLost records a probe that timed out unanswered.
func (d *Detector) ProbeLost(a packet.Addr, now time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.state(a, now)
	st.probeSeen = true
	st.probeLosses++
	fa := fastAlpha
	st.lossEWMA = fa + (1-fa)*st.lossEWMA
	d.scoreLocked(st)
}

// degradedLocked is the instantaneous quality judgement feeding the gray
// hysteresis.
func (d *Detector) degradedLocked(st *switchState) bool {
	if st.rttFast > d.cfg.GrayRTTFactor*(st.rttBase+float64(d.span(rttFloor))) {
		return true
	}
	if st.lossEWMA > grayLoss {
		return true
	}
	if st.dropEWMA > grayDropRate {
		return true
	}
	return false
}

// congestedObsLocked is the instantaneous congestion judgement: RTT far
// above baseline while the loss and local-drop channels stay clean —
// queueing delay on the path, not a decaying switch.
func (d *Detector) congestedObsLocked(st *switchState) bool {
	if d.cfg.CongestRTTFactor <= 0 || !st.probeSeen {
		return false
	}
	if st.rttFast <= d.cfg.CongestRTTFactor*(st.rttBase+float64(d.span(rttFloor))) {
		return false
	}
	return st.lossEWMA <= grayLoss && st.dropEWMA <= grayDropRate
}

// scoreLocked advances the gray and congestion latches on every
// observation. They share the confirm/clear counts but judge different
// signals, so a switch can be congested without ever nearing the gray bar.
func (d *Detector) scoreLocked(st *switchState) {
	st.gray.observe(d.degradedLocked(st))
	st.congested.observe(d.congestedObsLocked(st))
}

// Phi returns the current accrual suspicion level for a switch.
func (d *Detector) Phi(a packet.Addr, now time.Duration) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.sw[a]
	if !ok {
		return 0
	}
	return d.phiLocked(st, now)
}

func (d *Detector) phiLocked(st *switchState, now time.Duration) float64 {
	mean := st.win.mean()
	std := st.win.stddev()
	if st.win.n < 4 {
		// Bootstrap: assume the configured cadence until the window has
		// real samples.
		mean = float64(d.cfg.HeartbeatEvery)
		std = float64(d.span(minStdDev))
	}
	if floor := float64(d.span(minStdDev)); std < floor {
		std = floor
	}
	return phi(float64(now-st.lastHB), mean, std)
}

// relativelyAnomalousLocked applies the peer-relative gate: with at least
// two peers to compare against, a switch must be markedly worse than the
// cluster median on some quality signal for its gray latch to count.
func (d *Detector) relativelyAnomalousLocked(st *switchState) bool {
	var rtts, losses, drops []float64
	for _, o := range d.sw {
		if o == st {
			continue
		}
		if o.probeSeen {
			rtts = append(rtts, o.rttFast)
			losses = append(losses, o.lossEWMA)
		}
		if o.havePay {
			drops = append(drops, o.dropEWMA)
		}
	}
	if len(rtts) >= 2 {
		if st.rttFast > grayRelFactor*median(rtts)+float64(d.span(rttFloor)) {
			return true
		}
		if st.lossEWMA > median(losses)+grayLoss/2 {
			return true
		}
	}
	if len(drops) >= 2 {
		if st.dropEWMA > median(drops)+grayDropRate/2 {
			return true
		}
	}
	// Too few peers on every channel: nothing to compare against, trust
	// the absolute latch.
	return len(rtts) < 2 && len(drops) < 2
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func (d *Detector) verdictLocked(st *switchState, now time.Duration) (Verdict, float64) {
	p := d.phiLocked(st, now)
	if p >= phiFailStop {
		// A switch that has never beaten gets the boot grace: it may
		// simply still be starting (and has no probe history for the
		// corroboration gate to consult).
		booting := st.hbSeen == 0 && !st.probeSeen && now-st.trackedAt < d.span(bootGrace)
		// Corroborate with the probe channel when it exists: a gray
		// switch still answers probes, so lost heartbeats alone cannot
		// evict it.
		if !booting && (!st.probeSeen || now-st.lastProbe > d.span(probeDead)) {
			return FailStop, p
		}
	}
	if st.gray.set && d.relativelyAnomalousLocked(st) {
		return Gray, p
	}
	if d.cfg.CongestRTTFactor > 0 && st.congested.set {
		return Congested, p
	}
	if st.hbSeen == 0 && st.probeReplies == 0 {
		return Unknown, p
	}
	return Healthy, p
}

// VerdictFor returns the current verdict for one switch.
func (d *Detector) VerdictFor(a packet.Addr, now time.Duration) Verdict {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.sw[a]
	if !ok {
		return Unknown
	}
	v, _ := d.verdictLocked(st, now)
	return v
}

// Snapshot returns every tracked switch's health, sorted by address —
// the autopilot's reconcile input and the `cluster health` payload.
func (d *Detector) Snapshot(now time.Duration) []SwitchHealth {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]SwitchHealth, 0, len(d.sw))
	for a, st := range d.sw {
		v, p := d.verdictLocked(st, now)
		out = append(out, SwitchHealth{
			Addr:           a,
			Verdict:        v,
			Phi:            p,
			Heartbeats:     st.hbSeen,
			LastHeartbeat:  st.lastHB,
			RTTEWMA:        time.Duration(st.rttFast),
			RTTBaseline:    time.Duration(st.rttBase),
			ProbeLossEWMA:  st.lossEWMA,
			DropRateEWMA:   st.dropEWMA,
			QueueEWMA:      st.queueEWMA,
			ProbeReplies:   st.probeReplies,
			ProbeLosses:    st.probeLosses,
			LastProbeReply: st.lastProbe,
			DecodeErrs:     st.lastPay.DecodeErrs,
			RcvBufBytes:    st.lastPay.RcvBuf,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Table renders a snapshot as the per-switch health table — what
// `netchainctl cluster health` prints and the simulator's diagnostics
// show. demoted lists the switches the autopilot holds demoted.
func Table(snap []SwitchHealth, demoted []packet.Addr) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-9s %7s %6s %10s %10s %7s %7s %7s %9s %8s\n",
		"switch", "verdict", "phi", "beats", "rtt µs", "base µs", "loss", "drops", "badpkt", "rcvbuf", "demoted")
	for _, s := range snap {
		rcvbuf := "?"
		if s.RcvBufBytes > 0 {
			rcvbuf = fmt.Sprintf("%dK", s.RcvBufBytes/1024)
		}
		fmt.Fprintf(&b, "%-12v %-9s %7.2f %6d %10.1f %10.1f %7.3f %7.3f %7d %9s %8v\n",
			s.Addr, s.Verdict, s.Phi, s.Heartbeats,
			float64(s.RTTEWMA)/1e3, float64(s.RTTBaseline)/1e3, s.ProbeLossEWMA, s.DropRateEWMA,
			s.DecodeErrs, rcvbuf, slices.Contains(demoted, s.Addr))
	}
	return b.String()
}
