// Package health is the sensory layer of the self-healing control plane:
// φ-accrual failure detection (Hayashibara et al., "The φ Accrual Failure
// Detector") over per-switch heartbeats, neighbor-observed quality scoring
// over data-plane probes (the Perigee model: topology decisions driven by
// measured link behavior, not binary liveness), and the verdict logic that
// separates fail-stop suspicion (φ spikes when heartbeats stop) from gray
// degradation (sustained quality decay while heartbeats keep flowing).
//
// The paper's failure handling (§5.3–5.4) starts at "the network OS
// detects the failure"; this package is that step. Everything is driven by
// caller-supplied timestamps, so the same detector runs deterministically
// under the discrete-event simulator and on wall clocks in a real
// deployment. The package does no I/O: transport.Monitor is its UDP driver.
package health

import "math"

// phiWindow keeps a sliding window of heartbeat inter-arrival times and
// derives the mean/stddev the φ estimator needs: a fixed-size ring with
// running sums, O(1) per sample.
type phiWindow struct {
	buf  []float64
	n    int
	next int
	sum  float64
	sq   float64
}

func newPhiWindow(size int) *phiWindow { return &phiWindow{buf: make([]float64, size)} }

func (w *phiWindow) add(x float64) {
	if w.n == len(w.buf) {
		old := w.buf[w.next]
		w.sum -= old
		w.sq -= old * old
	} else {
		w.n++
	}
	w.buf[w.next] = x
	w.sum += x
	w.sq += x * x
	w.next = (w.next + 1) % len(w.buf)
}

func (w *phiWindow) mean() float64 {
	if w.n == 0 {
		return 0
	}
	return w.sum / float64(w.n)
}

func (w *phiWindow) stddev() float64 {
	if w.n < 2 {
		return 0
	}
	m := w.mean()
	v := w.sq/float64(w.n) - m*m
	if v < 0 {
		v = 0 // float cancellation on near-constant samples
	}
	return math.Sqrt(v)
}

// phiCap bounds the suspicion level so a long-dead switch reports a large
// finite φ instead of +Inf (which would poison JSON marshalling).
const phiCap = 30.0

// phi is the accrual suspicion level after elapsed silence, given the
// observed inter-arrival distribution: -log10 of the probability that a
// heartbeat will still arrive this late, under the logistic approximation
// of the normal tail (the same approximation Akka's accrual detector
// uses). φ = 1 means ~10% chance the switch is still alive, φ = 8 means
// ~1e-8 — crossing a threshold "accrues" rather than toggles, which is
// what lets one detector serve both twitchy and lossy networks.
func phi(elapsed, mean, std float64) float64 {
	if std <= 0 {
		if elapsed > mean {
			return phiCap
		}
		return 0
	}
	y := (elapsed - mean) / std
	e := math.Exp(-y * (1.5976 + 0.070566*y*y))
	var pLater float64
	if elapsed > mean {
		pLater = e / (1 + e)
	} else {
		pLater = 1 - 1/(1+e)
	}
	if pLater < 1e-30 {
		pLater = 1e-30
	}
	p := -math.Log10(pLater)
	if p > phiCap {
		return phiCap
	}
	return p
}
