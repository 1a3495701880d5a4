package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"netchain/internal/core"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/transport"
)

// rig is one core.Switch behind one transport.SwitchNode, driven by a raw
// batch socket the benchmark owns. With the benchmark on both ends of the
// node, the node's own counters (Stats, ProcHist) belong to these ops
// alone, and a round trip has no client in it.
type rig struct {
	w     *walker
	book  *transport.AddressBook
	sw    *core.Switch
	node  *transport.SwitchNode
	conn  *net.UDPConn
	raw   *transport.BatchConn
	self  query.Endpoint
	route query.Route
	qid   uint64
}

func newRig(w *walker) (*rig, error) {
	rg := &rig{w: w, book: transport.NewAddressBook()}
	rg.sw = w.newWalkSwitch(packet.AddrFrom4(10, 0, 0, 1))
	if w.err != nil {
		return nil, w.err
	}
	var err error
	if rg.node, err = transport.NewSwitchNode(rg.sw, rg.book, "127.0.0.1:0"); err != nil {
		return nil, err
	}
	if rg.conn, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
		_ = rg.node.Close()
		return nil, err
	}
	rg.raw = transport.NewBatchConn(rg.conn, 32)
	local := rg.conn.LocalAddr().(*net.UDPAddr)
	rg.self = query.Endpoint{Addr: packet.AddrFrom4(10, 1, 0, 201), Port: uint16(local.Port)}
	rg.book.Set(rg.self.Addr, local)
	rg.route = query.Route{Group: 1, Hops: []packet.Addr{rg.sw.Addr()}}
	return rg, nil
}

func (rg *rig) close() {
	_ = rg.conn.Close()
	_ = rg.node.Close()
}

// send serializes one query and queues it for the node.
func (rg *rig) send(write bool, key int) {
	rg.qid++
	var f *packet.Frame
	var err error
	if write {
		f, err = query.NewWrite(rg.self, rg.qid, rg.route, walkKey(key), newValue(rg.w.size, uint32(key), rg.qid+1))
	} else {
		f, err = query.NewRead(rg.self, rg.qid, rg.route, walkKey(key))
	}
	if err != nil {
		rg.w.fail(err)
		return
	}
	bp := packet.GetBuf()
	*bp, err = f.Serialize((*bp)[:0])
	rg.w.fail(err)
	packet.PutFrame(f)
	rg.raw.Queue(bp, rg.node.Endpoint())
}

// roundTrips keeps depth queries in flight at the node for about the
// walker's slice and returns the round-trip histogram with the node's
// datagrams per receive syscall over the same ops.
func (rg *rig) roundTrips(name string, write bool, depth int) (*hist, float64) {
	const ring = 64 // send times by query id; more than any depth
	var sentAt [ring]time.Time
	lat := newHist()
	// A lost reply must end the run with an error, not hang it.
	_ = rg.conn.SetReadDeadline(time.Now().Add(2*rg.w.slice + 5*time.Second))
	before := rg.node.Stats()
	issue := func(n int) {
		for i := 0; i < n; i++ {
			rg.send(write, int(rg.qid)%walkKeys)
			sentAt[rg.qid%ring] = time.Now()
		}
		rg.raw.Flush()
	}
	var f packet.Frame
	deadline := time.Now().Add(2 * rg.w.slice)
	spanFrom, inSpan := time.Now(), 0
	issue(depth)
	for rg.w.err == nil {
		got := 0
		_, err := rg.raw.ReadBatch(func(d []byte) {
			n, derr := packet.DecodeBatch(&f, d, func(rep *packet.Frame) {
				if rep.NC.Status != kv.StatusOK {
					rg.w.fail(fmt.Errorf("rig %s: reply status %v", name, rep.NC.Status))
				}
				lat.add(int64(time.Since(sentAt[rep.NC.QueryID%ring])))
			})
			rg.w.fail(derr)
			got += n
		})
		if err != nil {
			rg.w.fail(err)
			break
		}
		if inSpan += got; inSpan >= spanBatch {
			now := time.Now()
			rg.w.tr.add(rg.w.root, name, spanFrom, now, inSpan)
			spanFrom, inSpan = now, 0
		}
		if time.Now().After(deadline) && lat.count() >= minBatches*depth {
			// Let what is still in flight land so the next measurement
			// starts on an idle node.
			for left := depth - got; left > 0 && rg.w.err == nil; {
				k, err := rg.raw.ReadBatch(func(d []byte) {
					n, _ := packet.DecodeBatch(&f, d, func(*packet.Frame) {})
					left -= n
				})
				if err != nil || k == 0 {
					break
				}
			}
			break
		}
		issue(got)
	}
	after := rg.node.Stats()
	occupancy := 0.0
	if b := after.RecvBatches - before.RecvBatches; b > 0 {
		occupancy = float64(after.RecvDatagrams-before.RecvDatagrams) / float64(b)
	}
	return lat, occupancy
}

// clientLayers drives the same node through transport.Client, the client
// the façade wraps, to time what a client adds to a raw round trip.
func (rg *rig) clientLayers(rawRTTus float64) {
	w := rg.w
	tc, err := transport.NewClient(rg.book, transport.ClientConfig{
		Addr: packet.AddrFrom4(10, 1, 0, 202), Gateway: rg.sw.Addr(), Bind: "127.0.0.1:0",
		Timeout: closedTimeout,
	})
	if err != nil {
		w.fail(err)
		return
	}
	defer tc.Close()
	ops := &transport.Ops{Client: tc, Dir: func(kv.Key) (query.Route, error) { return rg.route, nil }}

	lat := newHist()
	read := func(i int) {
		t0 := time.Now()
		_, _, err := ops.Read(walkKey(i % walkKeys))
		lat.add(int64(time.Since(t0)))
		w.fail(err)
	}
	w.timed("transport.client_read", spanBatch, nil, read)
	w.r.add("transport.client_overhead_us", "us", lat.quantile(0.5)/1e3-rawRTTus, lat.count())

	// Time inside Submit: a burst of async reads on an uncapped window, so
	// no call waits for a slot; the burst lands off the clock.
	const burst = 32
	var wg sync.WaitGroup
	ns, n := w.timed("transport.client_submit", burst, func(int) { wg.Wait(); wg.Add(burst) }, func(i int) {
		ops.ReadAsync(walkKey(i), func(_ kv.Value, _ kv.Version, err error) {
			w.fail(err)
			wg.Done()
		})
	})
	wg.Wait()
	w.r.add("transport.client_submit_ns", "ns", ns, n)

	const counted = 2000
	w.r.add("transport.rig_allocs_per_read", "count", allocs(counted, read), counted)
	value := newValue(w.size, 0, 2)
	w.r.add("transport.rig_allocs_per_write", "count", allocs(counted, func(i int) {
		_, err := ops.Write(walkKey(i%walkKeys), value)
		w.fail(err)
	}), counted)
}

// rigLayers runs the node and client measurements.
func (w *walker) rigLayers(coreReadNs, coreWriteHeadNs float64) {
	rg, err := newRig(w)
	if err != nil {
		w.fail(err)
		return
	}
	defer rg.close()

	read1, occ1 := rg.roundTrips("transport.node_rtt.d1", false, 1)
	read32, occ32 := rg.roundTrips("transport.node_rtt.d32", false, 32)
	write1, _ := rg.roundTrips("transport.node_write_rtt.d1", true, 1)
	readUs, writeUs := read1.quantile(0.5)/1e3, write1.quantile(0.5)/1e3
	w.r.add("transport.node_rtt_us.d1", "us", readUs, read1.count())
	w.r.add("transport.node_rtt_us.d32", "us", read32.quantile(0.5)/1e3, read32.count())
	w.r.add("transport.node_write_rtt_us.d1", "us", writeUs, write1.count())
	// What a write pays for leaving the ingest goroutine: the worker queue
	// and the shared send loop, net of the dataplane's own extra work.
	w.r.add("transport.node_handoff_us", "us", writeUs-readUs-(coreWriteHeadNs-coreReadNs)/1e3, write1.count())
	w.r.add("transport.node_recv_occupancy.d1", "count", occ1, read1.count())
	w.r.add("transport.node_recv_occupancy.d32", "count", occ32, read32.count())
	ph := rg.node.ProcHist()
	w.r.add("transport.node_proc_ns", "ns", ph.P50(), int(ph.Count()))

	rg.clientLayers(readUs)
}
