package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"netchain/internal/core"
	"netchain/internal/health"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
)

// flakyReader surfaces n transient errors before delegating to the real
// reader — the regression fixture for the "any read error kills the loop
// forever" bug: a loop with the old behavior exits on the first error and
// every operation after it times out.
type flakyReader struct {
	inner batchReader
	errs  int
}

func (r *flakyReader) ReadBatch(ring *recvRing) (int, error) {
	if r.errs > 0 {
		r.errs--
		return 0, errors.New("transient: connection refused")
	}
	return r.inner.ReadBatch(ring)
}

// flakyNode boots one switch whose every ingest reader fails its first n
// reads, plus a client routed straight at it.
func flakyNode(t *testing.T, n int) (*SwitchNode, *Ops) {
	t.Helper()
	book := NewAddressBook()
	addr := packet.AddrFrom4(10, 0, 0, 1)
	sw, err := core.NewSwitch(addr, pipeCfg())
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewSwitchNode(sw, book, "127.0.0.1:0",
		WithIngestSockets(1),
		withReader(func(conn *net.UDPConn, ring *recvRing) batchReader {
			return &flakyReader{inner: newBatchReader(conn, ring), errs: n}
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	cl, err := NewClient(book, ClientConfig{
		Addr:    packet.AddrFrom4(10, 1, 0, 1),
		Gateway: addr,
		Bind:    "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	rt := query.Route{Group: 0, Hops: []packet.Addr{addr}}
	return node, &Ops{Client: cl, Dir: func(kv.Key) (query.Route, error) { return rt, nil }}
}

// TestSwitchSurvivesTransientReadErrors pins the first read-loop bugfix:
// a switch whose socket surfaces transient errors (ICMP refusals, ENOBUFS)
// must keep serving — before the fix, serve() treated every error as
// "socket closed" and the node went silently deaf.
func TestSwitchSurvivesTransientReadErrors(t *testing.T) {
	const transientErrs = 3
	node, ops := flakyNode(t, transientErrs)
	key := kv.KeyFromString("survives-read-errors")
	if err := node.Switch().InstallKey(key); err != nil {
		t.Fatal(err)
	}
	if _, err := ops.Write(key, kv.Value("alive")); err != nil {
		t.Fatalf("write through flaky ingest: %v", err)
	}
	v, _, err := ops.Read(key)
	if err != nil || string(v) != "alive" {
		t.Fatalf("read through flaky ingest: %q, %v", v, err)
	}
	if got := node.Stats().ReadErrors; got != transientErrs {
		t.Fatalf("ReadErrors = %d, want %d", got, transientErrs)
	}
}

// TestClientSurvivesTransientReadErrors is the same regression on the
// client's receive loop: before the fix a single transient error stranded
// every in-flight and future query until its retry timer drained.
func TestClientSurvivesTransientReadErrors(t *testing.T) {
	const transientErrs = 3
	node, _ := singleNode(t, 2, 8)
	cl, err := NewClient(node.book, ClientConfig{
		Addr:    packet.AddrFrom4(10, 1, 0, 9),
		Gateway: node.sw.Addr(),
		Bind:    "127.0.0.1:0",
		testReader: func(conn *net.UDPConn, ring *recvRing) batchReader {
			return &flakyReader{inner: newBatchReader(conn, ring), errs: transientErrs}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	rt := query.Route{Group: 0, Hops: []packet.Addr{node.sw.Addr()}}
	ops := &Ops{Client: cl, Dir: func(kv.Key) (query.Route, error) { return rt, nil }}
	key := kv.KeyFromString("client-survives")
	if err := node.Switch().InstallKey(key); err != nil {
		t.Fatal(err)
	}
	if _, err := ops.Write(key, kv.Value("ack")); err != nil {
		t.Fatalf("write with flaky client socket: %v", err)
	}
	v, _, err := ops.Read(key)
	if err != nil || string(v) != "ack" {
		t.Fatalf("read with flaky client socket: %q, %v", v, err)
	}
	if got := cl.Stats().ReadErrors; got != transientErrs {
		t.Fatalf("client ReadErrors = %d, want %d", got, transientErrs)
	}
}

// TestCorruptFrameMidBatchKeepsGoodFrames pins the second bugfix: a torn
// frame inside a batched datagram must not silently discard the decodable
// frames before it, and the loss must be counted. Two good writes ride in
// front of garbage bytes; both must apply, and the node must report one
// decode error on one truncated batch.
func TestCorruptFrameMidBatchKeepsGoodFrames(t *testing.T) {
	node, ops := singleNode(t, 2, 8)
	k1 := kv.KeyFromString("good-frame-1")
	k2 := kv.KeyFromString("good-frame-2")
	for _, k := range []kv.Key{k1, k2} {
		if err := node.Switch().InstallKey(k); err != nil {
			t.Fatal(err)
		}
	}

	// Build one datagram: write(k1) ++ write(k2) ++ junk.
	src := packet.AddrFrom4(10, 9, 9, 9)
	var data []byte
	for i, k := range []kv.Key{k1, k2} {
		f := packet.GetFrame()
		f.NC = packet.NetChain{
			Op: kv.OpWrite, QueryID: uint64(i + 1), Key: k,
			Value: []byte(fmt.Sprintf("batched-%d", i)),
		}
		out := packet.NewQueryInto(f, src, node.sw.Addr(), packet.Port, &f.NC)
		b, err := out.Serialize(data)
		if err != nil {
			t.Fatal(err)
		}
		data = b
		packet.PutFrame(f)
	}
	goodLen := len(data)
	data = append(data, bytes.Repeat([]byte{0xFF}, 40)...)

	raw, err := net.DialUDP("udp", nil, node.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write(data); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := node.Stats()
		if st.DecodeErrors >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	st := node.Stats()
	if st.DecodeErrors != 1 || st.TruncatedBatches != 1 {
		t.Fatalf("DecodeErrors=%d TruncatedBatches=%d, want 1 and 1 (datagram: %d good bytes + junk)",
			st.DecodeErrors, st.TruncatedBatches, goodLen)
	}
	// Both frames ahead of the corruption were delivered: the writes
	// landed even though the datagram's tail was garbage.
	for i, k := range []kv.Key{k1, k2} {
		want := fmt.Sprintf("batched-%d", i)
		var v kv.Value
		for time.Now().Before(deadline) {
			var err error
			v, _, err = ops.Read(k)
			if err == nil && string(v) == want {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if string(v) != want {
			t.Fatalf("key %d after torn batch: got %q, want %q", i, v, want)
		}
	}
}

// TestPortableBatchedEquivalence drives the identical interleaved write
// sequence through a batched node and a portable-reference node: both must
// end with the same per-key final value and version — the batched fast
// path may reorder nothing a client could observe.
func TestPortableBatchedEquivalence(t *testing.T) {
	type outcome struct {
		val string
		ver kv.Version
	}
	const keys = 6
	const writesPerKey = 40

	run := func(t *testing.T, opts ...NodeOption) map[int]outcome {
		book := NewAddressBook()
		addr := packet.AddrFrom4(10, 0, 0, 1)
		sw, err := core.NewSwitch(addr, pipeCfg())
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewSwitchNode(sw, book, "127.0.0.1:0", opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		cl, err := NewClient(book, ClientConfig{
			Addr:    packet.AddrFrom4(10, 1, 0, 1),
			Gateway: addr,
			Bind:    "127.0.0.1:0",
			Window:  16,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		rt := query.Route{Group: 0, Hops: []packet.Addr{addr}}
		ops := &Ops{Client: cl, Dir: func(kv.Key) (query.Route, error) { return rt, nil }}
		for k := 0; k < keys; k++ {
			if err := sw.InstallKey(kv.KeyFromString(fmt.Sprintf("equiv-%d", k))); err != nil {
				t.Fatal(err)
			}
		}
		// Interleave pipelined writes round-robin across keys: per-key
		// order is the submission order regardless of path.
		var wg sync.WaitGroup
		for i := 1; i <= writesPerKey; i++ {
			for k := 0; k < keys; k++ {
				wg.Add(1)
				key := kv.KeyFromString(fmt.Sprintf("equiv-%d", k))
				ops.WriteAsync(key, kv.Value(fmt.Sprintf("w-%d-%d", k, i)),
					func(_ kv.Version, err error) {
						if err != nil {
							t.Error(err)
						}
						wg.Done()
					})
			}
		}
		wg.Wait()
		final := make(map[int]outcome, keys)
		for k := 0; k < keys; k++ {
			v, ver, err := ops.Read(kv.KeyFromString(fmt.Sprintf("equiv-%d", k)))
			if err != nil {
				t.Fatal(err)
			}
			final[k] = outcome{val: string(v), ver: ver}
		}
		return final
	}

	batched := run(t)
	portable := run(t, withPortableIO())
	for k := 0; k < keys; k++ {
		if batched[k] != portable[k] {
			t.Fatalf("key %d diverged: batched=%+v portable=%+v", k, batched[k], portable[k])
		}
		want := fmt.Sprintf("w-%d-%d", k, writesPerKey)
		if batched[k].val != want {
			t.Fatalf("key %d final value %q, want %q", k, batched[k].val, want)
		}
	}
}

// TestIngestRingStress hammers one batched node from several concurrent
// pipelined clients with mixed reads and writes — under -race this is the
// memory-safety proof for the pooled receive ring and the inline read
// path (frames alias ring slots that the next ReadBatch reuses).
func TestIngestRingStress(t *testing.T) {
	book := NewAddressBook()
	addr := packet.AddrFrom4(10, 0, 0, 1)
	sw, err := core.NewSwitch(addr, pipeCfg())
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewSwitchNode(sw, book, "127.0.0.1:0", WithRecvBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	const nkeys = 16
	for i := 0; i < nkeys; i++ {
		if err := sw.InstallKey(kv.KeyFromUint64(uint64(i + 1))); err != nil {
			t.Fatal(err)
		}
	}
	rt := query.Route{Group: 0, Hops: []packet.Addr{addr}}
	const clients = 3
	const opsPerClient = 300
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cl, err := NewClient(book, ClientConfig{
			Addr:    packet.AddrFrom4(10, 1, 0, byte(c+1)),
			Gateway: addr,
			Bind:    "127.0.0.1:0",
			Window:  32,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		ops := &Ops{Client: cl, Dir: func(kv.Key) (query.Route, error) { return rt, nil }}
		wg.Add(1)
		go func(c int, ops *Ops) {
			defer wg.Done()
			var inner sync.WaitGroup
			for i := 0; i < opsPerClient; i++ {
				key := kv.KeyFromUint64(uint64(i%nkeys + 1))
				inner.Add(1)
				if i%4 == 0 {
					ops.WriteAsync(key, kv.Value(fmt.Sprintf("s-%d-%d", c, i)),
						func(_ kv.Version, err error) {
							if err != nil {
								t.Error(err)
							}
							inner.Done()
						})
				} else {
					ops.ReadAsync(key, func(_ kv.Value, _ kv.Version, err error) {
						if err != nil && !errors.Is(err, kv.StatusNotFound.Err()) {
							// not-found races with the first writes; real
							// transport errors are failures
							t.Error(err)
						}
						inner.Done()
					})
				}
			}
			inner.Wait()
		}(c, ops)
	}
	wg.Wait()
}

// TestRcvBufClamped covers the clamp predicate: Linux reads back 2× the
// granted buffer, so anything below the request means rmem_max clamped it;
// 0 means the platform could not read it back at all.
func TestRcvBufClamped(t *testing.T) {
	cases := []struct {
		requested, effective int
		want                 bool
	}{
		{4 << 20, 0, false},       // unknown: not provably clamped
		{4 << 20, 8 << 20, false}, // kernel granted 2× request (Linux doubling)
		{4 << 20, 4 << 20, false}, // granted exactly
		{4 << 20, 425984, true},   // clamped to default rmem_max
		{4 << 20, (4 << 20) - 1, true},
	}
	for _, c := range cases {
		if got := rcvBufClamped(c.requested, c.effective); got != c.want {
			t.Errorf("rcvBufClamped(%d, %d) = %v, want %v", c.requested, c.effective, got, c.want)
		}
	}
}

// TestRcvBufPlumbing checks the third bugfix end to end on Linux: the
// effective SO_RCVBUF is read back (not discarded), surfaces in NodeStats,
// and rides heartbeat payloads into the detector snapshot the operator
// sees.
func TestRcvBufPlumbing(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("effective SO_RCVBUF readback is Linux-only")
	}
	book := NewAddressBook()
	swAddr := packet.AddrFrom4(10, 0, 0, 1)
	monAddr := packet.AddrFrom4(10, 255, 0, 1)
	sw, err := core.NewSwitch(swAddr, pipeCfg())
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewSwitchNode(sw, book, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if node.Stats().RcvBufBytes <= 0 {
		t.Fatalf("RcvBufBytes = %d, want the kernel's readback > 0", node.Stats().RcvBufBytes)
	}

	det := health.NewDetector(health.Config{HeartbeatEvery: 5 * time.Millisecond})
	mon, err := NewMonitor("127.0.0.1:0", monAddr, det)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	book.Set(monAddr, mon.Endpoint())
	if err := node.StartHeartbeats(monAddr, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		snap := det.Snapshot(mon.Clock().Now())
		if len(snap) == 1 && snap[0].RcvBufBytes > 0 {
			if int(snap[0].RcvBufBytes) != node.Stats().RcvBufBytes {
				t.Fatalf("snapshot RcvBufBytes %d != node's %d",
					snap[0].RcvBufBytes, node.Stats().RcvBufBytes)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("detector snapshot never carried the switch's receive-buffer size")
}

// writeFrame serializes one write of key k to dst whose frame is exactly
// wireLen bytes on the wire (the value is padded to make it so).
func writeFrame(t *testing.T, dst packet.Addr, k kv.Key, qid uint64, fill byte, wireLen int) *[]byte {
	t.Helper()
	f := packet.GetFrame()
	defer packet.PutFrame(f)
	f.NC = packet.NetChain{Op: kv.OpWrite, QueryID: qid, Key: k}
	out := packet.NewQueryInto(f, packet.AddrFrom4(10, 9, 9, 9), dst, packet.Port, &f.NC)
	out.NC.Value = bytes.Repeat([]byte{fill}, wireLen-out.WireLen())
	buf := packet.GetBuf()
	b, err := out.Serialize((*buf)[:0])
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != wireLen {
		t.Fatalf("frame is %d B on the wire, want %d", len(b), wireLen)
	}
	*buf = b
	return buf
}

// TestRecvSlotHoldsFullBatch pins the receive ring's slot size against the
// egress coalescer's cap, on both readers: a datagram of exactly
// maxBatchBytes, built by egressBatch, arrives whole (every frame in it is
// served, nothing is counted), and a datagram one byte longer loses its
// tail to truncation — the frames ahead of the cut are served and the cut
// one is a counted decode error, never silent loss.
func TestRecvSlotHoldsFullBatch(t *testing.T) {
	if recvSlotBytes < maxBatchBytes {
		t.Fatalf("recvSlotBytes %d < maxBatchBytes %d: our own batches would truncate", recvSlotBytes, maxBatchBytes)
	}
	const frames = 4
	const frameLen = maxBatchBytes / frames
	readers := map[string][]NodeOption{"platform": nil, "portable": {withPortableIO()}}
	for name, opts := range readers {
		t.Run(name, func(t *testing.T) {
			node, ops := singleNode(t, 2, 8, opts...)
			dst := node.sw.Addr()
			var full, over [frames]kv.Key
			for i := 0; i < frames; i++ {
				full[i] = kv.KeyFromString(fmt.Sprintf("full-%d", i))
				over[i] = kv.KeyFromString(fmt.Sprintf("over-%d", i))
				for _, k := range []kv.Key{full[i], over[i]} {
					if err := node.Switch().InstallKey(k); err != nil {
						t.Fatal(err)
					}
				}
			}
			conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			written := func(k kv.Key, fill byte) bool {
				v, _, err := ops.Read(k)
				return err == nil && len(v) > 0 && v[0] == fill
			}
			waitFor := func(what string, cond func() bool) {
				t.Helper()
				for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("timed out waiting for %s (stats %+v)", what, node.Stats())
					}
				}
			}

			// Exactly maxBatchBytes: the coalescer folds the four frames into
			// one datagram, which must fit a ring slot to the byte.
			eg := newEgressBatch(newBatchSender(conn), &BatchConn{})
			for i, k := range full {
				eg.add(outFrame{buf: writeFrame(t, dst, k, uint64(i+1), 'f', frameLen), ep: node.Endpoint()})
			}
			if len(eg.msgs) != 1 || len(*eg.msgs[0].buf) != maxBatchBytes {
				t.Fatalf("coalescer built %d datagrams, first %d B; want 1 of %d B", len(eg.msgs), len(*eg.msgs[0].buf), maxBatchBytes)
			}
			eg.flush()
			for _, k := range full {
				waitFor("a write of the full batch", func() bool { return written(k, 'f') })
			}
			if st := node.Stats(); st.DecodeErrors != 0 || st.TruncatedBatches != 0 {
				t.Fatalf("a %d B datagram was cut: DecodeErrors=%d TruncatedBatches=%d", maxBatchBytes, st.DecodeErrors, st.TruncatedBatches)
			}

			// One byte more (sent raw: the coalescer would refuse to build
			// it): the last frame loses its final byte in the slot.
			var data []byte
			for i, k := range over {
				n := frameLen
				if i == frames-1 {
					n++
				}
				buf := writeFrame(t, dst, k, uint64(10+i), 'o', n)
				data = append(data, *buf...)
				packet.PutBuf(buf)
			}
			if _, err := conn.WriteToUDP(data, node.Endpoint()); err != nil {
				t.Fatal(err)
			}
			waitFor("the truncated frame to be counted", func() bool { return node.Stats().DecodeErrors == 1 })
			if st := node.Stats(); st.TruncatedBatches != 1 {
				t.Fatalf("TruncatedBatches=%d, want 1", st.TruncatedBatches)
			}
			for _, k := range over[:frames-1] {
				waitFor("a write ahead of the cut", func() bool { return written(k, 'o') })
			}
			if written(over[frames-1], 'o') {
				t.Fatalf("the frame cut at %d B was applied", recvSlotBytes)
			}
		})
	}
}

// TestLargestFrameFitsRecvSlot: a single frame is never coalesced, so the
// largest one the system can build must fit a ring slot on its own — a
// value of the pipeline's MaxValueBytes with a full chain list and a full
// in-band trace.
func TestLargestFrameFitsRecvSlot(t *testing.T) {
	f := packet.GetFrame()
	defer packet.PutFrame(f)
	chain := make([]packet.Addr, packet.MaxChainHops)
	f.NC = packet.NetChain{
		Op: kv.OpWrite, Key: kv.KeyFromUint64(1), Chain: chain,
		Value:  make([]byte, pipeCfg().MaxValueBytes()),
		Traced: true, Trace: make([]byte, packet.MaxTraceHops*packet.TraceRecLen),
	}
	out := packet.NewQueryInto(f, packet.AddrFrom4(10, 1, 0, 1), packet.AddrFrom4(10, 0, 0, 1), packet.Port, &f.NC)
	b, err := out.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > recvSlotBytes {
		t.Fatalf("largest frame is %d B, a receive slot holds %d", len(b), recvSlotBytes)
	}
	t.Logf("largest frame %d B, slot %d B", len(b), recvSlotBytes)
}

// recordingSender keeps a copy of every message WriteBatch was handed.
type recordingSender struct {
	msgs []recordedMsg
}

type recordedMsg struct {
	ep   *net.UDPAddr
	data []byte
}

func (m recordedMsg) String() string { return fmt.Sprintf("%v:%q", m.ep, m.data) }

func (r *recordingSender) WriteBatch(msgs []outFrame) int {
	for _, m := range msgs {
		r.msgs = append(r.msgs, recordedMsg{ep: m.ep, data: append([]byte(nil), *m.buf...)})
	}
	return 0
}

// payload returns a pooled buffer of n bytes of fill, as egressBatch.add
// takes them.
func payload(fill byte, n int) outFrame {
	buf := packet.GetBuf()
	*buf = append((*buf)[:0], bytes.Repeat([]byte{fill}, n)...)
	return outFrame{buf: buf}
}

// TestEgressCoalescesPerEndpoint: a frame joins the newest queued message
// for its endpoint, not only the last message, so interleaved traffic to
// three endpoints becomes three datagrams with each endpoint's frames in
// the order they were added.
func TestEgressCoalescesPerEndpoint(t *testing.T) {
	a, b, c := &net.UDPAddr{Port: 1}, &net.UDPAddr{Port: 2}, &net.UDPAddr{Port: 3}
	rec := &recordingSender{}
	eg := newEgressBatch(rec, &BatchConn{})
	for i, ep := range []*net.UDPAddr{a, b, a, c, b, a} {
		o := payload(byte('0'+i), 8)
		o.ep = ep
		eg.add(o)
	}
	eg.flush()
	want := []recordedMsg{
		{a, []byte("000000002222222255555555")},
		{b, []byte("1111111144444444")},
		{c, []byte("33333333")},
	}
	if len(rec.msgs) != len(want) {
		t.Fatalf("%d messages, want %d: %v", len(rec.msgs), len(want), rec.msgs)
	}
	for i, w := range want {
		if got := rec.msgs[i]; got.ep != w.ep || !bytes.Equal(got.data, w.data) {
			t.Errorf("message %d: %v %q, want %v %q", i, got.ep, got.data, w.ep, w.data)
		}
	}
}

// TestEgressFullMessageKeepsEndpointOrder: once an endpoint's newest
// message cannot take a frame, the frame opens a new message after it —
// even when an older message for the endpoint still has room, because
// joining that one would send the frame ahead of frames queued before it.
func TestEgressFullMessageKeepsEndpointOrder(t *testing.T) {
	a, b := &net.UDPAddr{Port: 1}, &net.UDPAddr{Port: 2}
	rec := &recordingSender{}
	eg := newEgressBatch(rec, &BatchConn{})
	add := func(ep *net.UDPAddr, fill byte, n int) {
		o := payload(fill, n)
		o.ep = ep
		eg.add(o)
	}
	add(a, '1', 3000)
	add(b, 'b', 10)
	add(a, '2', 3500) // 6500 B: A's message is full, so a second one opens
	add(a, '3', 1000) // fits A's first message, but must follow '2'
	add(a, '4', 500)  // joins the newest A message
	eg.flush()
	var order []byte
	var sizes []int
	for _, m := range rec.msgs {
		if m.ep != a {
			continue
		}
		sizes = append(sizes, len(m.data))
		for i, x := range m.data {
			if i == 0 || x != m.data[i-1] {
				order = append(order, x)
			}
		}
	}
	if string(order) != "1234" {
		t.Fatalf("A's frames left as %q, want 1234 (sizes %v)", order, sizes)
	}
	if len(rec.msgs) != 4 || len(sizes) != 3 || sizes[0] != 3000 || sizes[1] != 3500 || sizes[2] != 1500 {
		t.Fatalf("%d messages, A's sizes %v; want 4 messages, A's [3000 3500 1500]", len(rec.msgs), sizes)
	}
}

// dropFill is a FaultPipe whose egress verdict drops every frame starting
// with one byte value and passes the rest.
type dropFill struct{ fill byte }

func (d dropFill) Egress(buf []byte, _ *net.UDPAddr, _ func([]byte, *net.UDPAddr)) bool {
	return len(buf) == 0 || buf[0] != d.fill
}

func (dropFill) Ingress([]byte) bool { return true }

func (dropFill) Attach(*net.UDPAddr) {}

// TestEgressFaultJudgesFramesBeforeCoalescing: the fault verdict runs on
// each frame as it is added, so dropping the middle one of three
// interleaved frames leaves the other two to be coalesced and sent.
func TestEgressFaultJudgesFramesBeforeCoalescing(t *testing.T) {
	a := &net.UDPAddr{Port: 1}
	rec := &recordingSender{}
	eg := newEgressBatch(rec, &BatchConn{fault: dropFill{'x'}})
	for _, fill := range []byte{'1', 'x', '2'} {
		o := payload(fill, 4)
		o.ep = a
		eg.add(o)
	}
	eg.flush()
	if len(rec.msgs) != 1 || rec.msgs[0].ep != a || string(rec.msgs[0].data) != "11112222" {
		t.Fatalf("sent %v, want one datagram \"11112222\" to A", rec.msgs)
	}
}

// TestSendErrorsCounted: a datagram the kernel refuses is counted once,
// whichever way it leaves — queued and flushed, or sent alone by WriteTo —
// on the platform sender and on the portable one. 70 000 bytes exceeds
// the largest UDP datagram, so every send fails with EMSGSIZE; a closed
// destination port would not do, since an unconnected socket's sendto
// reports no error for it.
func TestSendErrorsCounted(t *testing.T) {
	for name, io := range map[string]batchIO{"platform": platformIO, "portable": portableIO} {
		t.Run(name, func(t *testing.T) {
			bc, err := listen("127.0.0.1:0", 1, nil, io)
			if err != nil {
				t.Fatal(err)
			}
			defer bc.Close()
			ep := bc.LocalAddr()
			big := make([]byte, 70000)

			bp := packet.GetBuf()
			*bp = append((*bp)[:0], big...)
			bc.Queue(bp, ep)
			bc.Flush()
			if got := bc.SendErrors(); got != 1 {
				t.Fatalf("after Queue+Flush: SendErrors = %d, want 1", got)
			}
			if err := bc.WriteTo(big, ep); err == nil {
				t.Fatal("WriteTo of 70000 B succeeded")
			}
			if got := bc.SendErrors(); got != 2 {
				t.Fatalf("after WriteTo: SendErrors = %d, want 2", got)
			}
		})
	}
}

// TestClosedNodeDropsRecvRing: a fail-stopped node stays referenced by its
// cluster, so its ingest sockets must not keep their receive rings alive
// once the read loop has ended.
func TestClosedNodeDropsRecvRing(t *testing.T) {
	node, ops := singleNode(t, 1, 1)
	k := kv.KeyFromString("ring")
	if err := node.Switch().InstallKey(k); err != nil {
		t.Fatal(err)
	}
	if _, err := ops.Write(k, kv.Value("v")); err != nil { // the ring is built by now
		t.Fatal(err)
	}
	if err := node.Close(); err != nil { // returns once the read loop has ended
		t.Fatal(err)
	}
	if c := node.conns[0]; c.ring != nil || c.rd != nil {
		t.Fatal("a closed node still holds its receive ring")
	}
}
