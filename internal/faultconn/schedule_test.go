package faultconn_test

import (
	"slices"
	"testing"

	"netchain/internal/event"
	"netchain/internal/experiments"
	"netchain/internal/faultconn"
	"netchain/internal/netsim"
)

// TestScheduleSameOnBothSubstrates runs the full-nemesis schedule (testbed
// targets) through the one netsim.RunSchedule against a simulated ring and
// against the wire injector, each on a simulated clock. The two Nemesis
// logs must match line for line, timestamps included, and at every step
// boundary both fault states must answer Link, Cut and Gray alike for
// every pair of nodes.
func TestScheduleSameOnBothSubstrates(t *testing.T) {
	d, err := experiments.NewDeployment(experiments.FabricOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sch, err := experiments.BuildSchedule(d, "full-nemesis")
	if err != nil {
		t.Fatal(err)
	}
	inj := faultconn.New(1)
	defer inj.Stop()
	wire := event.New()
	simNM := netsim.RunSchedule(d.Sim.Clock(), d.Net, sch)
	wireNM := netsim.RunSchedule(wire.Clock(), inj, sch)

	var marks []event.Time
	for _, st := range sch {
		marks = append(marks, st.At)
		if st.For > 0 {
			marks = append(marks, st.At+st.For)
		}
	}
	lines := len(marks) // one log line per inject and per heal
	slices.Sort(marks)
	nodes := append(slices.Clone(d.Fab.Hosts), d.Fab.Switches...)
	for _, m := range slices.Compact(marks) {
		d.Sim.RunUntil(m)
		wire.RunUntil(m)
		sim, w := d.Net.Faults(), inj.FaultState()
		for _, a := range nodes {
			for _, b := range nodes {
				sf, sok := sim.Link(a, b)
				wf, wok := w.Link(a, b)
				if sf != wf || sok != wok || sim.Cut(a, b) != w.Cut(a, b) {
					t.Fatalf("t=%v: %v→%v sim link %+v/%v cut %v, wire link %+v/%v cut %v",
						m, a, b, sf, sok, sim.Cut(a, b), wf, wok, w.Cut(a, b))
				}
			}
			sg, sok := sim.Gray(a)
			wg, wok := w.Gray(a)
			if sg != wg || sok != wok {
				t.Fatalf("t=%v: gray %v sim %+v/%v, wire %+v/%v", m, a, sg, sok, wg, wok)
			}
		}
	}
	if err := simNM.Err(); err != nil {
		t.Fatal(err)
	}
	if err := wireNM.Err(); err != nil {
		t.Fatal(err)
	}
	if len(simNM.Log) != lines || !slices.Equal(simNM.Log, wireNM.Log) {
		t.Fatalf("want %d log lines alike, got\nsim\n%v\nwire\n%v", lines, simNM.Log, wireNM.Log)
	}
}
