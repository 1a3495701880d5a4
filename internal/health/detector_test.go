package health

import (
	"testing"
	"time"

	"netchain/internal/packet"
)

var (
	swA = packet.AddrFrom4(10, 0, 0, 1)
	swB = packet.AddrFrom4(10, 0, 0, 2)
)

func msd(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestPhiAccrues pins the accrual shape: regular heartbeats keep φ low,
// silence makes it grow past the fail-stop threshold, and a single
// delayed beat does not.
func TestPhiAccrues(t *testing.T) {
	d := NewDetector(Config{HeartbeatEvery: time.Millisecond})
	now := time.Duration(0)
	for i := 0; i < 20; i++ {
		now += time.Millisecond
		d.Heartbeat(swA, now, Payload{Processed: uint64(i)})
	}
	if p := d.Phi(swA, now+time.Millisecond); p >= phiFailStop {
		t.Fatalf("φ=%v after one on-cadence interval, want < %v", p, phiFailStop)
	}
	// Two missed beats: suspicion grows but must not evict (the σ floor
	// absorbs short loss runs).
	if p := d.Phi(swA, now+3*time.Millisecond); p >= phiFailStop {
		t.Fatalf("φ=%v after two missed beats, want < %v", p, phiFailStop)
	}
	// Sustained silence: φ crosses the threshold.
	if p := d.Phi(swA, now+10*time.Millisecond); p < phiFailStop {
		t.Fatalf("φ=%v after 10 silent intervals, want >= %v", p, phiFailStop)
	}
	if v := d.VerdictFor(swA, now+10*time.Millisecond); v != FailStop {
		t.Fatalf("verdict=%v after sustained silence, want fail-stop", v)
	}
}

// TestProbeCorroboration: φ over threshold alone must not evict a switch
// whose probes still come back — the gray-degradation guard against
// false fail-stop verdicts.
func TestProbeCorroboration(t *testing.T) {
	d := NewDetector(Config{HeartbeatEvery: time.Millisecond})
	now := time.Duration(0)
	for i := 0; i < 10; i++ {
		now += time.Millisecond
		d.Heartbeat(swA, now, Payload{})
		d.ProbeReply(swA, now, 10*time.Microsecond)
	}
	// Heartbeats stop but probes keep answering.
	silent := now
	for i := 0; i < 20; i++ {
		silent += time.Millisecond
		d.ProbeReply(swA, silent, 10*time.Microsecond)
	}
	if p := d.Phi(swA, silent); p < phiFailStop {
		t.Fatalf("φ=%v, want over threshold for this test to bite", p)
	}
	if v := d.VerdictFor(swA, silent); v == FailStop {
		t.Fatal("fail-stop verdict despite live probe channel")
	}
	// Once probes stop too, the verdict flips.
	dead := silent + d.span(probeDead) + time.Millisecond
	if v := d.VerdictFor(swA, dead); v != FailStop {
		t.Fatalf("verdict=%v after probes died, want fail-stop", v)
	}
}

// TestGrayLatchAndClear pins the quality hysteresis: sustained RTT
// inflation latches the gray verdict after grayConfirm observations, and
// it clears only after grayClear healthy ones.
func TestGrayLatchAndClear(t *testing.T) {
	d := NewDetector(Config{HeartbeatEvery: time.Millisecond})
	now := time.Duration(0)
	// Learn a ~5µs baseline.
	for i := 0; i < 30; i++ {
		now += time.Millisecond
		d.Heartbeat(swA, now, Payload{})
		d.ProbeReply(swA, now, 5*time.Microsecond)
	}
	if v := d.VerdictFor(swA, now); v != Healthy {
		t.Fatalf("verdict=%v during healthy warmup, want healthy", v)
	}
	// Degrade: RTT jumps 40×. One observation must not latch.
	now += time.Millisecond
	d.Heartbeat(swA, now, Payload{})
	d.ProbeReply(swA, now, 200*time.Microsecond)
	if v := d.VerdictFor(swA, now); v == Gray {
		t.Fatal("gray latched after a single degraded probe")
	}
	for i := 0; i < grayConfirm+2; i++ {
		now += time.Millisecond
		d.Heartbeat(swA, now, Payload{})
		d.ProbeReply(swA, now, 200*time.Microsecond)
	}
	if v := d.VerdictFor(swA, now); v != Gray {
		t.Fatalf("verdict=%v after sustained degradation, want gray", v)
	}
	// Recover: a single healthy probe must not clear the latch.
	now += time.Millisecond
	d.Heartbeat(swA, now, Payload{})
	d.ProbeReply(swA, now, 5*time.Microsecond)
	if v := d.VerdictFor(swA, now); v != Gray {
		t.Fatal("gray cleared after a single healthy probe")
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

// TestGrayFromPayloadDrops: the heartbeat payload's drop counters alone
// (no probes at all) flag sustained local loss.
func TestGrayFromPayloadDrops(t *testing.T) {
	d := NewDetector(Config{HeartbeatEvery: time.Millisecond})
	now := time.Duration(0)
	drops, processed := uint64(0), uint64(0)
	for i := 0; i < 20; i++ {
		now += time.Millisecond
		processed += 100
		d.Heartbeat(swA, now, Payload{Drops: drops, Processed: processed})
	}
	for i := 0; i < grayConfirm+3; i++ {
		now += time.Millisecond
		processed += 60
		drops += 40 // 40% local loss
		d.Heartbeat(swA, now, Payload{Drops: drops, Processed: processed})
	}
	if v := d.VerdictFor(swA, now); v != Gray {
		t.Fatalf("verdict=%v under 40%% local drops, want gray", v)
	}
}

// TestDeadFromTheStart: a tracked switch that never heartbeats accrues φ
// from its Track time and is eventually declared fail-stop.
func TestDeadFromTheStart(t *testing.T) {
	d := NewDetector(Config{HeartbeatEvery: time.Millisecond})
	d.Track(swB, 0)
	if v := d.VerdictFor(swB, msd(1)); v == FailStop {
		t.Fatal("fail-stop after 1ms — too eager")
	}
	if v := d.VerdictFor(swB, msd(50)); v != FailStop {
		t.Fatalf("verdict=%v after 50ms of silence from birth, want fail-stop", v)
	}
}

// TestPayloadRoundTrip pins the heartbeat payload codec.
func TestPayloadRoundTrip(t *testing.T) {
	p := Payload{Queue: 42, Drops: 7, Processed: 123456, Retries: 9}
	b := p.Encode(nil)
	if len(b) != payloadLen {
		t.Fatalf("encoded length %d, want %d", len(b), payloadLen)
	}
	got, err := DecodePayload(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("roundtrip %+v != %+v", got, p)
	}
	if _, err := DecodePayload(b[:10]); err == nil {
		t.Fatal("truncated payload decoded")
	}
	b[0] = 99
	if _, err := DecodePayload(b); err == nil {
		t.Fatal("bad version decoded")
	}
}

// TestSnapshotSorted pins the reconcile-input ordering (determinism).
func TestSnapshotSorted(t *testing.T) {
	d := NewDetector(Config{HeartbeatEvery: time.Millisecond})
	d.Track(swB, 0)
	d.Track(swA, 0)
	snap := d.Snapshot(time.Millisecond)
	if len(snap) != 2 || snap[0].Addr != swA || snap[1].Addr != swB {
		t.Fatalf("snapshot not address-sorted: %+v", snap)
	}
}
