package main

import (
	"fmt"
	"net"
	"time"

	"netchain"
	"netchain/internal/core"
	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/swsim"
	"netchain/internal/transport"
)

// The layer walk times calls into each module's public functions from
// outside, on frames built before the clock starts. One span covers a
// batch of calls, so reading the clock costs under 1 % of what is timed.
const (
	spanBatch  = 256 // calls per span
	dgramBatch = 128 // datagrams per span of the socket layers
	maxBatches = 200 // spans kept per layer metric
	minBatches = 15
	walkKeys   = spanBatch
)

// pipeCfg is the register pipeline StartLocalCluster gives each switch.
var pipeCfg = swsim.Config{Stages: 8, SlotBytes: 16, SlotsPerStage: 4096, PPS: 1e9}

var (
	walkClient = query.Endpoint{Addr: packet.AddrFrom4(10, 1, 0, 200), Port: 40000}
	walkHops   = []packet.Addr{packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(10, 0, 0, 2), packet.AddrFrom4(10, 0, 0, 3)}
)

// sink keeps results alive so the compiler cannot drop a timed call.
var sink int

type walker struct {
	tr    *tracer
	root  int
	slice time.Duration // time spent on one layer metric
	size  int           // the workload's value size
	r     *result
	err   error
}

func (w *walker) fail(err error) {
	if w.err == nil && err != nil {
		w.err = err
	}
}

// timed runs batches of n calls of fn until the slice is used up, one span
// per batch, and returns the median ns per call with the batch count. prep
// runs before each batch, off the clock.
func (w *walker) timed(name string, n int, prep func(batch int), fn func(i int)) (float64, int) {
	var per []float64
	deadline := time.Now().Add(w.slice)
	for b := 0; b < maxBatches && (b < minBatches || time.Now().Before(deadline)); b++ {
		if prep != nil {
			prep(b)
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		t1 := time.Now()
		w.tr.add(w.root, name, t0, t1, n)
		per = append(per, float64(t1.Sub(t0))/float64(n))
	}
	return median(per), len(per)
}

func (w *walker) layer(name string, prep func(batch int), fn func(i int)) float64 {
	ns, n := w.timed(name, spanBatch, prep, fn)
	w.r.add(name, "ns", ns, n)
	return ns
}

// allocs returns heap allocations per call of fn over n calls.
func allocs(n int, fn func(i int)) float64 {
	before := readHeap()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return (readHeap().mallocs - before.mallocs) / float64(n)
}

func walkKey(i int) kv.Key { return kv.KeyFromUint64(uint64(i) + 1) }

// newWalkSwitch returns a switch holding the walk's keys, seeded at seq 1.
func (w *walker) newWalkSwitch(addr packet.Addr) *core.Switch {
	sw, err := core.NewSwitch(addr, pipeCfg)
	w.fail(err)
	for i := 0; i < walkKeys && w.err == nil; i++ {
		w.fail(sw.InstallKey(walkKey(i)))
		w.fail(sw.WriteItem(core.Item{Key: walkKey(i), Value: newValue(w.size, uint32(i), 1), Version: kv.Version{Seq: 1}}))
	}
	return sw
}

// frames is a set of pre-built frames and the working copies a batch
// consumes: ProcessLocal rewrites a frame in place, so every batch starts
// from fresh copies made off the clock.
type frames struct {
	tmpl, work []*packet.Frame
}

func newFrames(n int, build func(i int) (*packet.Frame, error)) (*frames, error) {
	fs := &frames{}
	for i := 0; i < n; i++ {
		f, err := build(i)
		if err != nil {
			return nil, err
		}
		fs.tmpl = append(fs.tmpl, f)
		fs.work = append(fs.work, &packet.Frame{})
	}
	return fs, nil
}

func (fs *frames) reset(edit func(f *packet.Frame)) {
	for i, t := range fs.tmpl {
		t.CloneTo(fs.work[i])
		if edit != nil {
			edit(fs.work[i])
		}
	}
}

// path is the byte-exact life of one op on a three-switch chain whose
// entry switch is not the client's gateway (two keys in three): every
// frame the op puts on the wire, in order.
type path [][]byte

func (p path) bytes() int {
	n := 0
	for _, f := range p {
		n += len(f)
	}
	return n
}

// walkPaths pushes one read and one write through three real dataplanes
// and serializes the frame at every hop.
func (w *walker) walkPaths() (read, write path) {
	rt := query.Route{Group: 1, Hops: walkHops}
	sws := make(map[packet.Addr]*core.Switch)
	for _, a := range walkHops {
		sws[a] = w.newWalkSwitch(a)
	}
	if w.err != nil {
		return
	}
	run := func(f *packet.Frame, err error) (p path) {
		if err != nil {
			w.fail(err)
			return
		}
		wire := func() {
			b, err := f.Serialize(nil)
			w.fail(err)
			p = append(p, b)
		}
		wire() // client to gateway
		for f.NC.Op != kv.OpReply && w.err == nil {
			wire() // gateway, or the previous hop, to the switch that processes it
			if d, _ := sws[f.IP.Dst].ProcessLocal(f); d == core.Drop {
				w.fail(fmt.Errorf("layer walk: %v dropped at %v", f.NC.Op, f.IP.Dst))
			}
		}
		wire() // reply to the client
		return p
	}
	read = run(query.NewRead(walkClient, 1, rt, walkKey(0)))
	write = run(query.NewWrite(walkClient, 2, rt, walkKey(0), newValue(w.size, 0, 2)))
	return read, write
}

// codecLayers times packet and query.
func (w *walker) codecLayers(write path) {
	rt := query.Route{Group: 1, Hops: walkHops}
	value := newValue(w.size, 0, 2)

	var hdr packet.NetChain
	hdr.Op, hdr.Group, hdr.QueryID, hdr.Key, hdr.Value = kv.OpWrite, 1, 7, walkKey(0), value
	w.fail(hdr.SetChain(walkHops[1:]))
	var f packet.Frame
	buf := make([]byte, 0, 512)
	encode := func(int) {
		packet.NewQueryInto(&f, walkClient.Addr, walkHops[0], walkClient.Port, &hdr)
		buf, _ = f.Serialize(buf[:0])
	}
	w.layer("packet.encode_ns", nil, encode)
	wire := write[0]
	decode := func(int) {
		rest, err := packet.NextFrame(&f, wire)
		sink += len(rest)
		w.fail(err)
	}
	w.layer("packet.decode_ns", nil, decode)
	w.r.add("packet.allocs_per_frame", "count", allocs(20*spanBatch, func(i int) { encode(i); decode(i) }), 20*spanBatch)

	build := func(i int) {
		var q *packet.Frame
		var err error
		switch i % 3 {
		case 0:
			q, err = query.NewRead(walkClient, uint64(i), rt, walkKey(0))
		case 1:
			q, err = query.NewWrite(walkClient, uint64(i), rt, walkKey(0), value)
		default:
			q, err = query.NewCAS(walkClient, uint64(i), rt, walkKey(0), 0, value[:8])
		}
		w.fail(err)
		packet.PutFrame(q)
	}
	w.layer("query.build_ns", nil, build)
	var reply packet.Frame
	_, err := packet.NextFrame(&reply, write[len(write)-1])
	w.fail(err)
	parse := func(int) {
		rep, err := query.ParseReply(&reply)
		sink += len(rep.Value)
		w.fail(err)
	}
	w.layer("query.parse_ns", nil, parse)
	w.r.add("query.allocs_per_op", "count", allocs(20*spanBatch, func(i int) { build(i); parse(i) }), 20*spanBatch)
}

// swsimLayers times the register pipeline on its own.
func (w *walker) swsimLayers() {
	pipe, err := swsim.NewPipeline(pipeCfg)
	if err != nil {
		w.fail(err)
		return
	}
	locs := make([]int, walkKeys)
	for i := range locs {
		locs[i], err = pipe.Alloc(walkKey(i))
		w.fail(err)
		w.fail(pipe.Commit(locs[i], newValue(w.size, uint32(i), 1), kv.Version{Seq: 1}, false))
	}
	var scratch []byte
	w.layer("swsim.read_ns", nil, func(i int) {
		loc, _ := pipe.Lookup(walkKey(i))
		v, _, _ := pipe.ReadLatest(loc, &scratch)
		sink += len(v)
	})
	value := newValue(w.size, 0, 2)
	seq := uint64(1)
	w.layer("swsim.commit_ns", func(int) { seq++ }, func(i int) {
		w.fail(pipe.Commit(locs[i], value, kv.Version{Seq: seq}, false))
	})
}

// coreLayers times Switch.ProcessLocal and the transit path on frames
// built before the clock starts, each role on a switch of its own.
func (w *walker) coreLayers() {
	addr, next := walkHops[0], walkHops[1:]
	process := func(sw *core.Switch, fs *frames) func(int) {
		return func(i int) {
			d, _ := sw.ProcessLocal(fs.work[i])
			sink += int(d)
		}
	}
	one := query.Route{Group: 1, Hops: walkHops[:1]}
	full := query.Route{Group: 1, Hops: walkHops}
	qid := uint64(0)
	freshQID := func(f *packet.Frame) { qid++; f.NC.QueryID = qid }

	reads, err := newFrames(spanBatch, func(i int) (*packet.Frame, error) {
		return query.NewRead(walkClient, uint64(i), one, walkKey(i))
	})
	w.fail(err)
	writes, err := newFrames(spanBatch, func(i int) (*packet.Frame, error) {
		return query.NewWrite(walkClient, uint64(i), full, walkKey(i), newValue(w.size, uint32(i), 2))
	})
	w.fail(err)
	// One template set takes the walk's locks (owner 0 -> 1), the other
	// frees them; batches alternate, so every swap succeeds.
	var cas [2]*frames
	for step := range cas {
		expect, owner := uint64(step), uint64(1-step)
		cas[step], err = newFrames(spanBatch, func(i int) (*packet.Frame, error) {
			return query.NewCAS(walkClient, uint64(i), full, walkKey(i), expect, query.OwnerValue(owner, nil))
		})
		w.fail(err)
	}
	if w.err != nil {
		return
	}

	readSw := w.newWalkSwitch(addr)
	w.layer("core.read_ns", func(int) { reads.reset(nil) }, process(readSw, reads))
	reads.reset(nil)
	w.r.add("core.allocs_per_read", "count", allocs(spanBatch, process(readSw, reads)), spanBatch)

	// A fresh write needs a fresh query id, or the head replays its verdict.
	headSw := w.newWalkSwitch(addr)
	w.layer("core.write_head_ns", func(int) { writes.reset(freshQID) }, process(headSw, writes))
	writes.reset(freshQID)
	w.r.add("core.allocs_per_write", "count", allocs(spanBatch, process(headSw, writes)), spanBatch)

	// Downstream of the head a write carries its version; each batch brings
	// a newer one so every frame is applied, never dropped as stale.
	applySw := w.newWalkSwitch(next[0])
	w.layer("core.write_apply_ns", func(b int) {
		writes.reset(func(f *packet.Frame) {
			f.IP.Dst = next[0]
			f.NC.SetVersion(kv.Version{Session: 1, Seq: uint64(b) + 2})
			w.fail(f.NC.SetChain(next[1:]))
		})
	}, process(applySw, writes))

	casSw, err := core.NewSwitch(addr, pipeCfg)
	w.fail(err)
	for i := 0; i < walkKeys && w.err == nil; i++ {
		w.fail(casSw.InstallKey(walkKey(i)))
	}
	var cur *frames
	w.layer("core.cas_ns", func(b int) { cur = cas[b%2]; cur.reset(freshQID) }, func(i int) {
		d, _ := casSw.ProcessLocal(cur.work[i])
		sink += int(d)
	})

	// Transit: a frame addressed to another switch passes through.
	transitSw := w.newWalkSwitch(packet.AddrFrom4(10, 0, 0, 9))
	writes.reset(nil)
	w.layer("core.transit_ns", nil, func(i int) {
		transitSw.Transit(writes.work[i])
		sink += int(transitSw.ApplyEgressRules(writes.work[i]))
	})
}

// routeLayers times the lookups every op makes before it is built, on the
// live cluster's ring and controller.
func (w *walker) routeLayers(cluster *netchain.Cluster, ks *keyspace) {
	ctl := cluster.Controller()
	ring := ctl.Ring()
	w.layer("ring.chain_for_key_ns", nil, func(i int) { sink += len(ring.ChainForKey(ks.keys[i]).Hops) })
	route := func(i int) { sink += len(ctl.Route(ks.keys[i%len(ks.keys)]).Hops) }
	w.layer("controller.route_ns", nil, route)
	w.r.add("controller.route_allocs", "count", allocs(20*spanBatch, route), 20*spanBatch)
}

// socketLayers times the batch datagram engine on a loopback socket pair:
// ns per datagram when one syscall moves 1, 8 or 32 of them.
func (w *walker) socketLayers(payload []byte) {
	listen := func() *net.UDPConn {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		w.fail(err)
		return c
	}
	a, b := listen(), listen()
	if w.err != nil {
		return
	}
	defer a.Close()
	defer b.Close()
	tx := transport.NewBatchConn(a, 32)
	// Queue folds consecutive payloads for one *UDPAddr into one datagram;
	// distinct pointers to the same address keep them apart.
	eps := make([]*net.UDPAddr, 32)
	for i := range eps {
		ep := *b.LocalAddr().(*net.UDPAddr)
		eps[i] = &ep
	}
	// Each round sends per datagrams with one flush and then drains them
	// with one read, so the receive queue is as deep as the batch, as it is
	// when a burst of that size arrives. The two halves of a round are
	// timed apart; a span covers the rounds that move dgramBatch datagrams.
	for _, per := range []int{1, 8, 32} {
		rx := transport.NewBatchConn(b, per)
		name := fmt.Sprintf("transport.sendrecv.b%d", per)
		var sendNs, recvNs []float64
		deadline := time.Now().Add(2 * w.slice)
		for n := 0; n < maxBatches && (n < minBatches || time.Now().Before(deadline)) && w.err == nil; n++ {
			var sending, receiving time.Duration
			from := time.Now()
			for moved := 0; moved < dgramBatch; moved += per {
				t0 := time.Now()
				for i := 0; i < per; i++ {
					bp := packet.GetBuf()
					*bp = append((*bp)[:0], payload...)
					tx.Queue(bp, eps[i])
				}
				tx.Flush()
				t1 := time.Now()
				for got := 0; got < per && w.err == nil; {
					k, err := rx.ReadBatch(func(d []byte) { sink += len(d) })
					w.fail(err)
					got += k
				}
				sending += t1.Sub(t0)
				receiving += time.Since(t1)
			}
			w.tr.add(w.root, name, from, time.Now(), dgramBatch)
			sendNs = append(sendNs, float64(sending)/dgramBatch)
			recvNs = append(recvNs, float64(receiving)/dgramBatch)
		}
		w.r.add(fmt.Sprintf("transport.send_ns_per_dgram.b%d", per), "ns", median(sendNs), len(sendNs))
		w.r.add(fmt.Sprintf("transport.recv_ns_per_dgram.b%d", per), "ns", median(recvNs), len(recvNs))
	}

	book := transport.NewAddressBook()
	for i := 0; i < 8; i++ {
		book.Set(packet.AddrFrom4(10, 0, 0, byte(i+1)), eps[i])
	}
	w.layer("transport.addrbook_get_ns", nil, func(i int) {
		ep, _ := book.Get(packet.AddrFrom4(10, 0, 0, byte(i%8+1)))
		sink += ep.Port
	})
}
