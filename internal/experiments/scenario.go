package experiments

import (
	"cmp"
	"math/rand"
	"time"

	"netchain/internal/controller"
	"netchain/internal/event"
	"netchain/internal/kv"
	"netchain/internal/simclient"
	"netchain/internal/stats"
	"netchain/internal/workload"
)

// scenario is the experiment every simulated §8 figure runs: deploy a
// fabric, set the controller's timing, preload the store, offer open-loop
// loads, play timeline steps, and stop the loads at a fixed time. The
// simulator breaks ties between events at one instant by insertion order,
// so run registers in one fixed order: each load's first send or its own
// start and stop times, then setup, then the steps, then the common stop.
type scenario struct {
	fabric FabricOpts
	ctl    *controller.Config // nil keeps controller.DefaultConfig
	// store preloads the deployment and returns the keys each client host
	// queries; a host it gives none runs no load.
	store func(d *Deployment) (keysFor func(mux int) []kv.Key, err error)
	// frozen hands the loads the routes served once the store is loaded,
	// as the paper's agents keep stale routes through a failure (§4.2);
	// otherwise they follow the controller.
	frozen bool
	loads  []load
	// setup runs once the loads are under way, before the steps are
	// scheduled: the place for hooks such as the autopilot.
	setup func(r *run) error
	steps []step
	// stop ends every load without a stop time of its own. The clock then
	// runs to quiescence, or for settle more when a background loop (the
	// autopilot) would never let it drain.
	stop, settle time.Duration
}

// everyMux as a load's mux runs one copy of it on every client host the
// store gives keys to.
const everyMux = -1

// load is one open-loop generator offering a read/write mix over its
// host's keys, seeded by the host index.
type load struct {
	mux        int
	writeRatio float64
	valueSize  int
	window     int           // outstanding-query cap (0 = unbounded)
	rate       float64       // share of the host budget (0 = all of it)
	bucket     time.Duration // > 0 records completions as a time series
	from, to   time.Duration // own start and stop (0 = at once, at the scenario's stop)
	idle       bool          // created stopped: the steps start and stop it
}

// step is a timeline action at simulated time at.
type step struct {
	at time.Duration
	do func(r *run)
}

// run is a scenario in progress: its deployment and one generator per
// load (per fed host for an everyMux load), in load order.
type run struct {
	*Deployment
	gens []*simclient.Generator
	stop time.Duration
	err  error
}

// fail records the first failure of a step; run returns it.
func (r *run) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// now is the simulated clock.
func (r *run) now() time.Duration { return time.Duration(r.Sim.Now()) }

// run deploys and plays the scenario.
func (sc scenario) run() (*run, error) {
	d, err := NewDeployment(sc.fabric)
	if err != nil {
		return nil, err
	}
	if sc.ctl != nil {
		if err := d.NewController(*sc.ctl); err != nil {
			return nil, err
		}
	}
	keysFor, err := sc.store(d)
	if err != nil {
		return nil, err
	}
	r := &run{Deployment: d, stop: sc.stop}
	dir := d.Directory()
	if sc.frozen {
		dir = d.FrozenDirectory()
	}
	var untimed []*simclient.Generator
	for _, l := range sc.loads {
		for m, mux := range d.Muxes {
			keys := keysFor(m)
			if (l.mux != everyMux && m != l.mux) || len(keys) == 0 {
				continue
			}
			cfg := simclient.DefaultConfig()
			cfg.Window = l.window
			g := mux.NewGenerator(cfg, dir, mixSource(keys, l.writeRatio, l.valueSize, int64(m+1)))
			r.gens = append(r.gens, g)
			if l.bucket > 0 {
				g.Series = stats.NewTimeSeries(l.bucket)
			}
			rate := d.Profile.HostRate / d.Profile.Scale * cmp.Or(l.rate, 1)
			switch {
			case l.from > 0:
				d.Sim.After(event.Duration(l.from), func() { g.Start(rate) })
			case !l.idle:
				g.Start(rate)
			}
			if l.to > 0 {
				d.Sim.After(event.Duration(l.to), g.Stop)
			} else if !l.idle {
				untimed = append(untimed, g)
			}
		}
	}
	if sc.setup != nil {
		if err := sc.setup(r); err != nil {
			return nil, err
		}
	}
	for _, st := range sc.steps {
		d.Sim.After(event.Duration(st.at), func() { st.do(r) })
	}
	d.Sim.After(event.Duration(sc.stop), func() {
		for _, g := range untimed {
			g.Stop()
		}
	})
	if sc.settle > 0 {
		d.Sim.RunUntil(event.Duration(sc.stop + sc.settle))
	} else {
		d.Sim.Run()
	}
	return r, r.err
}

// okQPS is the loads' delivered OK throughput over the scenario's stop
// time, scaled back to unscaled units.
func (r *run) okQPS() float64 {
	var ok uint64
	for _, g := range r.gens {
		ok += g.OKCount()
	}
	return float64(ok) / (float64(r.stop) / 1e9) * r.Profile.Scale
}

// plot adds generator i's completion series to f as series name, one
// point per bucket, in unscaled QPS.
func (r *run) plot(f *Figure, name string, i int) {
	s := r.gens[i].Series
	for b, rate := range s.Rates() {
		f.Add(name, float64(b)*s.Width().Seconds(), rate*r.Profile.Scale)
	}
}

// dip returns the peak of rates over buckets [baseFrom, baseTo) and the
// lowest rate over [from, to), capped at that peak; buckets outside rates
// are skipped.
func dip(rates []float64, baseFrom, baseTo, from, to int) (base, low float64) {
	for i := max(baseFrom, 0); i < baseTo && i < len(rates); i++ {
		base = max(base, rates[i])
	}
	low = base
	for i := max(from, 0); i < to && i < len(rates); i++ {
		low = min(low, rates[i])
	}
	return base, low
}

// mixSource adapts a workload mix over concrete keys to a generator feed.
func mixSource(keys []kv.Key, writeRatio float64, valueSize int, seed int64) func(n uint64) (kv.Op, kv.Key, kv.Value) {
	rng := rand.New(rand.NewSource(seed))
	val := workload.Value(valueSize, uint64(seed))
	return func(n uint64) (kv.Op, kv.Key, kv.Value) {
		k := keys[rng.Intn(len(keys))]
		if rng.Float64() < writeRatio {
			return kv.OpWrite, k, val
		}
		return kv.OpRead, k, nil
	}
}

// allHosts feeds the same keys to every client host.
func allHosts(keys []kv.Key) func(int) []kv.Key {
	return func(int) []kv.Key { return keys }
}
