// Watch-scale experiment: how much does one mutation cost the push-watch
// tier as the subscriber population grows?
//
// The claim under test is the relay's core property (and the reason the
// watch API could drop polling): notification cost is independent of
// subscriber count. One applied mutation is one ingest frame at the relay
// and — under multicast — one egress datagram per virtual group, however
// many clients subscribed. The per-subscriber work (decode + version-
// ordered apply) happens on the subscribers' own machines, in parallel.
//
// The harness reproduces exactly that division of labour in-process:
//
//   - The relay side runs the relay's engine (relay.Core.Publish) and
//     builds the real egress frame per event (relay.FanOutFrame) — the
//     full per-mutation cost the relay pays, measured as watch-relay-<N>.
//     These rows must NOT grow with N; that flatness is the scaling claim.
//   - The subscriber side is a population of real watch.Sub engines (one
//     per subscriber, each a real lease over one key's group). Every
//     egress frame is delivered to all group members by a worker pool
//     standing in for the subscribers' independent machines: each
//     delivery is a fresh ParseEvent of the egress frame (the kernel's
//     per-member multicast copy) plus Sub.ApplyEvent. End-to-end
//     publish→apply latency percentiles and aggregate deliveries/s are
//     the watch-scale-<N> rows.
//   - watch-egress-amp-<N> is subscribers reached per egress datagram —
//     the fan-out amplification. It grows linearly with N while
//     watch-relay-<N> stays flat: together they are the "egress ≪
//     subscribers × events" acceptance evidence.
//
// The relay and scale rows are wall-clock; the amplification row is a
// deterministic population ratio, pinned exactly by watchscale_test.go.
package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/relay"
	"netchain/internal/stats"
	"netchain/internal/watch"
)

// WatchScaleOpts parameterizes the watch-scale experiment.
type WatchScaleOpts struct {
	Subscribers []int // subscriber populations to sweep (default 10k and 100k)
	Keys        int   // watched key universe
	Groups      int   // virtual groups the keys spread over
	Events      int   // mutations published per population
	Workers     int   // delivery workers (0 = GOMAXPROCS)
}

func (o *WatchScaleOpts) defaults() {
	if len(o.Subscribers) == 0 {
		// The acceptance floor is 10⁵ subscribers; the 10⁴ point exists
		// so the flat relay cost and the linear amplification are visible
		// as a pair of rows, not a single number.
		o.Subscribers = []int{10_000, 100_000}
	}
	if o.Keys <= 0 {
		o.Keys = 512
	}
	if o.Groups <= 0 {
		o.Groups = 64
	}
	if o.Events <= 0 {
		o.Events = 2048
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// watchPop is one subscriber population wired for fan-out: per-group
// member lists of real watch.Sub engines.
type watchPop struct {
	keys    []kv.Key
	groupOf map[kv.Key]uint16
	subs    []*watch.Sub
	members map[uint16][]*watch.Sub
}

func buildWatchPop(n, nkeys, ngroups int) *watchPop {
	p := &watchPop{groupOf: make(map[kv.Key]uint16, nkeys), members: make(map[uint16][]*watch.Sub)}
	for i := 0; i < nkeys; i++ {
		k := kv.KeyFromString(fmt.Sprintf("ws/%06d", i))
		p.keys = append(p.keys, k)
		p.groupOf[k] = uint16(i % ngroups)
	}
	lookup := func(k kv.Key) uint16 { return p.groupOf[k] }
	for i := 0; i < n; i++ {
		k := p.keys[i%nkeys]
		s := watch.NewSub([]kv.Key{k}, lookup, 1)
		s.ApplyRead(k, false, nil, kv.Version{}) // starts synced (known absent); the stream is the only feed
		p.subs = append(p.subs, s)
		g := p.groupOf[k]
		p.members[g] = append(p.members[g], s)
	}
	return p
}

// publish runs the harness's mutations through a fresh relay.Core — keys
// in turn, each key's version one higher every pass over the key set —
// and hands each fresh event's egress frame to sent, with the time its
// Publish began. The frame is reused once sent returns.
func (p *watchPop) publish(events int, sent func(f *packet.Frame, t0 time.Time)) {
	core := relay.NewCore(0, 0)
	src := packet.AddrFrom4(10, 255, 0, 2)
	var f packet.Frame
	for e := 0; e < events; e++ {
		k := p.keys[e%len(p.keys)]
		ev := query.Event{
			Key: k, Value: kv.Value(fmt.Sprintf("v%08d", e)),
			Version: kv.Version{Session: 1, Seq: uint64(e/len(p.keys) + 1)},
			Group:   p.groupOf[k],
		}
		t0 := time.Now()
		if _, fresh := core.Publish(&ev, 0, nil); fresh {
			sent(relay.FanOutFrame(&f, src, ev, relay.McastPort), t0)
		}
	}
}

// relayCost measures the relay tier's full per-mutation work — Publish
// (dedup + sequence) plus egress frame assembly — with fan-out elided,
// exactly what the relay pays regardless of population size.
func relayCost(p *watchPop, events int) (evPerSec, p50us, p99us float64) {
	lat := stats.NewLatencyHistogram()
	start := time.Now()
	p.publish(events, func(_ *packet.Frame, t0 time.Time) { lat.ObserveDuration(time.Since(t0)) })
	elapsed := time.Since(start)
	return float64(events) / elapsed.Seconds(), lat.P50() / 1e3, lat.P99() / 1e3
}

// fanOut publishes events through Core and delivers every egress frame to
// all of its group's members in parallel, timing publish→ApplyEvent per
// delivery. Returns aggregate deliveries/s, latency percentiles, total
// deliveries, egress datagrams, and version regressions observed.
func fanOut(p *watchPop, events, workers int) (delPerSec, p50us, p99us float64, deliveries, egress uint64, err error) {
	hists := make([]*stats.Histogram, workers)
	for i := range hists {
		hists[i] = stats.NewLatencyHistogram()
	}
	var delivered uint64
	var wg sync.WaitGroup
	start := time.Now()
	p.publish(events, func(frame *packet.Frame, t0 time.Time) {
		egress++ // one multicast datagram serves the whole group
		members := p.members[frame.NC.Group]
		if len(members) == 0 {
			return
		}
		// Deliver this datagram to every member, sharded across workers —
		// each worker is a stand-in for an independent subscriber machine
		// receiving its own multicast copy.
		per := (len(members) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * per
			if lo >= len(members) {
				break
			}
			hi := lo + per
			if hi > len(members) {
				hi = len(members)
			}
			wg.Add(1)
			go func(w int, shard []*watch.Sub) {
				defer wg.Done()
				for _, s := range shard {
					pev, perr := query.ParseEvent(frame)
					if perr != nil {
						continue
					}
					s.ApplyEvent(pev)
					select { // drain the delivery so the buffer never coalesces
					case <-s.Events():
					default:
					}
					hists[w].ObserveDuration(time.Since(t0))
				}
			}(w, members[lo:hi])
		}
		wg.Wait()
		delivered += uint64(len(members))
	})
	elapsed := time.Since(start)
	lat := stats.NewLatencyHistogram()
	for _, h := range hists {
		if err := lat.Merge(h); err != nil {
			return 0, 0, 0, 0, 0, err
		}
	}
	// Every applied event must have been published in version order; a
	// drop or a stale suppression here means the harness itself is wrong.
	for _, s := range p.subs {
		st := s.Stats()
		if st.Dropped > 0 || st.Gaps > 0 {
			return 0, 0, 0, 0, 0, fmt.Errorf(
				"watchscale: subscriber saw %d drops / %d gaps on a lossless feed", st.Dropped, st.Gaps)
		}
	}
	return float64(delivered) / elapsed.Seconds(), lat.P50() / 1e3, lat.P99() / 1e3, delivered, egress, nil
}

func scaleName(n int) string {
	if n%1000 == 0 {
		return fmt.Sprintf("%dk", n/1000)
	}
	return fmt.Sprintf("%d", n)
}

// WatchScale runs the sweep and returns its rows.
func WatchScale(o WatchScaleOpts) ([]Row, error) {
	o.defaults()
	var out []Row
	for _, n := range o.Subscribers {
		pop := buildWatchPop(n, o.Keys, o.Groups)
		name := scaleName(n)

		qps, p50, p99 := relayCost(pop, o.Events)
		out = append(out, Row{Scenario: "watch-relay-" + name, OpsPerSec: qps, P50us: p50, P99us: p99})

		dps, d50, d99, deliveries, egress, err := fanOut(pop, o.Events, o.Workers)
		if err != nil {
			return nil, err
		}
		out = append(out, Row{Scenario: "watch-scale-" + name, OpsPerSec: dps, P50us: d50, P99us: d99})
		// Deterministic population ratio (subscribers reached per egress
		// datagram): linear in N while watch-relay-* stays flat. It only
		// moves if the fan-out topology itself changes.
		out = append(out, Row{
			Scenario:  "watch-egress-amp-" + name,
			OpsPerSec: float64(deliveries) / float64(egress),
		})
		for _, s := range pop.subs {
			s.Close()
		}
	}
	return out, nil
}

// FormatWatchScale renders the rows as benchrunner prints them.
func FormatWatchScale(results []Row) string {
	s := fmt.Sprintf("%-22s %14s %10s %10s\n", "scenario", "ops/s", "p50 µs", "p99 µs")
	for _, r := range results {
		s += fmt.Sprintf("%-22s %14.0f %10.2f %10.2f\n", r.Scenario, r.OpsPerSec, r.P50us, r.P99us)
	}
	return s
}
