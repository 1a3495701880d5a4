package faultconn

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"netchain/internal/event"
	"netchain/internal/netsim"
)

// RunSchedule executes a netsim fault schedule against the live wire: the
// same Schedule value a simulator run consumes, with step times stretched
// by the injector's time scale onto the wall clock, and each step injected
// and healed by the same Fault.Inject/Heal the simulator calls. Steps
// whose At has already passed (relative to the injector's start) fire
// immediately. A step's error, which netsim's faults never return on the
// wire, is logged.
func (i *Injector) RunSchedule(sch netsim.Schedule) {
	i.mu.Lock()
	elapsed := time.Since(i.start)
	i.mu.Unlock()
	for _, st := range sch {
		st := st
		at := i.wall(st.At) - elapsed
		if at < 0 {
			at = 0
		}
		i.afterWall(at, func() {
			i.mu.Lock()
			defer i.mu.Unlock()
			i.logf("inject %s: %s", st.Name, st.Fault)
			if err := st.Fault.Inject(locked{i}); err != nil {
				i.logf("inject %s failed: %v", st.Name, err)
			}
		})
		if st.For > 0 {
			i.afterWall(at+i.wall(st.For), func() {
				i.mu.Lock()
				defer i.mu.Unlock()
				i.logf("heal   %s", st.Name)
				if err := st.Fault.Heal(locked{i}); err != nil {
					i.logf("heal %s failed: %v", st.Name, err)
				}
			})
		}
	}
}

// fingerprintProbes is how many synthetic traversals Fingerprint replays
// per faulty direction — enough to pin the decision algorithm and the rng
// seeding, small enough to be free.
const fingerprintProbes = 256

// Fingerprint digests the deterministic fault behavior of (seed,
// schedule): the schedule's own shape (every step's name, timing and
// fault description) plus, for each probabilistic fault, the exact
// decision stream a fresh per-direction rng produces over a synthetic
// replay of fingerprintProbes traversals. Two runs with the same seed and
// schedule fingerprint identically on any machine; changing the seed, a
// probability, a burst window, or the decision core changes the digest.
// The realchaos experiment records it so "same seed ⇒ same chaos" is a
// checkable artifact rather than a promise.
func Fingerprint(seed int64, sch netsim.Schedule) string {
	h := sha256.New()
	lat := event.Time(10 * time.Microsecond)
	for _, st := range sch {
		fmt.Fprintf(h, "step %s at=%d for=%d %s\n", st.Name, st.At, st.For, st.Fault)
		horizon := st.For
		if horizon <= 0 {
			horizon = event.Time(time.Millisecond)
		}
		var flt netsim.LinkFault
		var dirs []pair
		switch c := st.Fault.(type) {
		case netsim.LinkChaos:
			flt = c.F
			dirs = []pair{{c.A, c.B}}
			if c.Sym {
				dirs = append(dirs, pair{c.B, c.A})
			}
		case netsim.GraySwitch:
			rng := rand.New(rand.NewSource(dirSeed(seed, c.Addr, c.Addr)))
			for k := 0; k < fingerprintProbes; k++ {
				b := byte(0)
				if c.G.Loss > 0 && rng.Float64() < c.G.Loss {
					b = 1
				}
				h.Write([]byte{b})
			}
			continue
		case netsim.ClusterChaos:
			flt = c.F
			dirs = []pair{{1, 2}} // canonical probe direction for cluster-wide faults
		default:
			// Partitions and fail-stops are fully deterministic; the step
			// header line above already captures them.
			continue
		}
		for _, d := range dirs {
			rng := rand.New(rand.NewSource(dirSeed(seed, d.from, d.to)))
			for k := 0; k < fingerprintProbes; k++ {
				now := st.At + horizon*event.Time(k)/fingerprintProbes
				writeDecision(h, flt.Decide(rng, now, lat))
			}
		}
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}

func writeDecision(h interface{ Write([]byte) (int, error) }, d netsim.FaultDecision) {
	var b [18]byte
	if d.Drop {
		b[0] |= 1
	}
	if d.Burst {
		b[0] |= 2
	}
	if d.Reordered {
		b[0] |= 4
	}
	if d.Dup {
		b[0] |= 8
	}
	for j, v := range []int64{int64(d.Delay), int64(d.DupDelay)} {
		for k := 0; k < 8; k++ {
			b[1+8*j+k] = byte(v >> (8 * k))
		}
	}
	h.Write(b[:])
}
