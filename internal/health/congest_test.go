package health

import (
	"testing"
	"time"
)

// warmBaseline feeds on-cadence heartbeats and ~5µs probes so the
// detector learns a healthy RTT baseline.
func warmBaseline(d *Detector, now time.Duration, beats int) time.Duration {
	for i := 0; i < beats; i++ {
		now += time.Millisecond
		d.Heartbeat(swA, now, Payload{})
		d.ProbeReply(swA, now, 5*time.Microsecond)
	}
	return now
}

// TestCongestedLatchAndClear pins the opt-in congestion verdict: RTT
// sitting above CongestRTTFactor×baseline — with loss and drop channels
// clean — latches Congested after grayConfirm observations and releases
// after grayClear clean ones. The same inflation stays under the gray
// bar, so the two verdicts separate.
func TestCongestedLatchAndClear(t *testing.T) {
	d := NewDetector(Config{HeartbeatEvery: time.Millisecond, CongestRTTFactor: 2}) // gray bar stays at 4×
	now := warmBaseline(d, 0, 30)
	if v := d.VerdictFor(swA, now); v != Healthy {
		t.Fatalf("verdict=%v during warmup, want healthy", v)
	}
	// 25µs = 5× baseline: over the 2× congest bar, under the 4×+floor
	// gray bar. A single inflated probe must not latch.
	now += time.Millisecond
	d.Heartbeat(swA, now, Payload{})
	d.ProbeReply(swA, now, 25*time.Microsecond)
	if v := d.VerdictFor(swA, now); v != Healthy {
		t.Fatalf("verdict=%v after one inflated probe, want healthy", v)
	}
	for i := 0; i < grayConfirm+3; i++ {
		now += time.Millisecond
		d.Heartbeat(swA, now, Payload{})
		d.ProbeReply(swA, now, 25*time.Microsecond)
	}
	if v := d.VerdictFor(swA, now); v != Congested {
		t.Fatalf("verdict=%v under sustained 5x RTT, want congested", v)
	}
	// A single recovered probe must not release the latch.
	now += time.Millisecond
	d.Heartbeat(swA, now, Payload{})
	d.ProbeReply(swA, now, 5*time.Microsecond)
	if v := d.VerdictFor(swA, now); v != Congested {
		t.Fatal("congested cleared after a single clean probe")
	}
	for i := 0; i < grayClear+2; i++ {
		now += time.Millisecond
		d.Heartbeat(swA, now, Payload{})
		d.ProbeReply(swA, now, 5*time.Microsecond)
	}
	if v := d.VerdictFor(swA, now); v != Healthy {
		t.Fatalf("verdict=%v after sustained recovery, want healthy", v)
	}
}

// TestCongestedDisabledByDefault: with CongestRTTFactor zero (the
// default), the same RTT inflation stays
// Healthy. Fabric-less deployments have no transit links to congest.
func TestCongestedDisabledByDefault(t *testing.T) {
	d := NewDetector(Config{HeartbeatEvery: time.Millisecond})
	now := warmBaseline(d, 0, 30)
	for i := 0; i < grayConfirm+5; i++ {
		now += time.Millisecond
		d.Heartbeat(swA, now, Payload{})
		d.ProbeReply(swA, now, 25*time.Microsecond)
	}
	if v := d.VerdictFor(swA, now); v != Healthy {
		t.Fatalf("verdict=%v with congestion detection off, want healthy", v)
	}
}

// TestCongestedYieldsToGray: inflation past the gray bar with a lossy
// probe channel is switch decay, not path queueing — the gray verdict
// (peer-relative, demotion-worthy) must win over Congested.
func TestCongestedYieldsToGray(t *testing.T) {
	d := NewDetector(Config{HeartbeatEvery: time.Millisecond, CongestRTTFactor: 2})
	now := warmBaseline(d, 0, 30)
	for i := 0; i < grayConfirm+3; i++ {
		now += time.Millisecond
		d.Heartbeat(swA, now, Payload{})
		d.ProbeReply(swA, now, 200*time.Microsecond) // 40×: past the gray bar
		d.ProbeLost(swA, now)                        // and lossy
	}
	if v := d.VerdictFor(swA, now); v != Gray {
		t.Fatalf("verdict=%v under heavy loss + 40x RTT, want gray", v)
	}
}

// TestCongestedRequiresCleanChannels: RTT inflation accompanied by probe
// loss over the gray bound is not "congested" — the clean-channel
// requirement is what separates a queueing path from a dying box.
func TestCongestedRequiresCleanChannels(t *testing.T) {
	d := NewDetector(Config{HeartbeatEvery: time.Millisecond, CongestRTTFactor: 2})
	now := warmBaseline(d, 0, 30)
	for i := 0; i < grayConfirm+3; i++ {
		now += time.Millisecond
		d.Heartbeat(swA, now, Payload{})
		d.ProbeReply(swA, now, 25*time.Microsecond)
		d.ProbeLost(swA, now) // ~50% loss: over grayLoss
		d.ProbeReply(swA, now, 25*time.Microsecond)
	}
	if v := d.VerdictFor(swA, now); v == Congested {
		t.Fatal("congested verdict despite heavy probe loss")
	}
}
