package experiments

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"netchain/internal/event"
	"netchain/internal/faultconn"
	"netchain/internal/kv"
	"netchain/internal/netsim"
	"netchain/internal/packet"
	"netchain/internal/query"
	"netchain/internal/simclient"
	"netchain/internal/transport"
)

// parityScript is what the far end does with one call: ignore its first
// drop attempts, answer the next with copies replies — or, if late, stay
// silent until the client has given up and answer then.
type parityScript struct {
	name   string
	drop   int
	copies int
	late   bool
}

// parityRow is everything about a scripted call that must not depend on
// the substrate.
type parityRow struct {
	QIDs    []uint64 // the id of every attempt the far end saw
	Outcome string
	Stats   query.Stats // the client's retry core once the call has settled
}

// parityPeer is the scripted far end, shared by both substrates: seen is
// told every query that arrives and returns how many replies to send now.
type parityPeer struct {
	mu     sync.Mutex
	script parityScript
	qids   []uint64
}

func (p *parityPeer) begin(s parityScript) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.script, p.qids = s, nil
}

func (p *parityPeer) seen(qid uint64) (replies int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.qids = append(p.qids, qid)
	if p.script.late || len(p.qids) != p.script.drop+1 {
		return 0
	}
	return p.script.copies
}

func (p *parityPeer) row(err error, st query.Stats) parityRow {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := "ok"
	if err != nil {
		out = err.Error()
		if errors.Is(err, kv.ErrTimeout) {
			out = "kv.ErrTimeout"
		}
	}
	return parityRow{QIDs: p.qids, Outcome: out, Stats: st}
}

// TestClientParitySimAndWire runs one scripted loss table through the
// simulator's client over netsim and through the wire client over real UDP
// behind a faultconn pipe. Both drive query.Pending, so attempts, the ids
// they carry, the outcome and the counters must agree row for row — the
// gap PR 9's fresh-id-per-retry and PR 15's unmatched timeout error lived in.
func TestClientParitySimAndWire(t *testing.T) {
	const retries = 3
	var table []parityScript
	for n := 0; n <= retries+1; n++ {
		table = append(table, parityScript{name: fmt.Sprintf("first %d attempts lost", n), drop: n, copies: 1})
	}
	table = append(table,
		parityScript{name: "reply duplicated", copies: 2},
		parityScript{name: "reply after give-up", late: true})
	key := kv.KeyFromString("parity")
	call := query.Call{Op: kv.OpRead, Key: key}
	settled := func(s parityScript, st query.Stats, before query.Stats) bool {
		return !(s.copies == 2 || s.late) || st.Late > before.Late
	}

	// The simulator: the far end is a host on the testbed.
	simRows := func() []parityRow {
		sim := event.New()
		tb, err := netsim.NewFabric(sim, netsim.PaperProfile(1), 1, netsim.TopoSpec{Kind: "ring"}, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		mux, err := simclient.NewMux(sim, tb.Net, tb.Hosts[0])
		if err != nil {
			t.Fatal(err)
		}
		far := tb.Hosts[1]
		cfg := simclient.DefaultConfig()
		cfg.MaxRetries = retries
		c, err := mux.NewClient(cfg, func(kv.Key) query.Route { return query.Route{Hops: []packet.Addr{far}} })
		if err != nil {
			t.Fatal(err)
		}
		peer := &parityPeer{}
		var last *packet.Frame
		reply := func(n int) {
			for i := 0; i < n; i++ {
				r := last.Clone()
				r.ToReply(kv.StatusOK)
				tb.Net.Inject(far, r)
			}
		}
		if err := tb.Net.HostRecv(far, func(f *packet.Frame) {
			last = f.Clone()
			reply(peer.seen(f.NC.QueryID))
		}); err != nil {
			t.Fatal(err)
		}
		var rows []parityRow
		for _, s := range table {
			peer.begin(s)
			var res simclient.Result
			c.Do(call, func(r simclient.Result) {
				res = r
				if s.late {
					reply(1)
				}
			})
			sim.Run()
			_, err := res.Outcome()
			rows = append(rows, peer.row(err, c.Stats()))
		}
		return rows
	}()

	// The wire: the far end is a UDP socket, the client's datagrams pass a
	// (healthy) faultconn pipe on their way out and back.
	wireRows := func() []parityRow {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		far, cli := packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(10, 1, 0, 1)
		book := transport.NewAddressBook()
		book.Set(far, conn.LocalAddr().(*net.UDPAddr))
		inj := faultconn.New(1)
		defer inj.Stop()
		inj.RegisterEndpoint(far, conn.LocalAddr().(*net.UDPAddr))
		tc, err := transport.NewClient(book, transport.ClientConfig{
			Addr: cli, Gateway: far, Bind: "127.0.0.1:0",
			Timeout: 10 * time.Millisecond, Retries: retries, Faults: inj.Pipe(cli),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer tc.Close()
		inj.RegisterEndpoint(cli, tc.LocalEndpoint())
		ops := &transport.Ops{Client: tc, Dir: func(kv.Key) (query.Route, error) {
			return query.Route{Hops: []packet.Addr{far}}, nil
		}}
		peer := &parityPeer{}
		var mu sync.Mutex
		var last []byte
		reply := func(n int) {
			mu.Lock()
			defer mu.Unlock()
			for i := 0; i < n; i++ {
				if _, err := conn.WriteToUDP(last, tc.LocalEndpoint()); err != nil {
					t.Error(err)
				}
			}
		}
		go func() {
			buf := make([]byte, 2048)
			var f packet.Frame
			for {
				n, _, err := conn.ReadFromUDP(buf)
				if err != nil {
					return
				}
				if _, err := packet.NextFrame(&f, buf[:n]); err != nil {
					t.Error(err)
					continue
				}
				qid := f.NC.QueryID
				f.ToReply(kv.StatusOK)
				out, err := f.Serialize(nil)
				if err != nil {
					t.Error(err)
					continue
				}
				mu.Lock()
				last = out
				mu.Unlock()
				reply(peer.seen(qid))
			}
		}()
		var rows []parityRow
		for _, s := range table {
			peer.begin(s)
			before := tc.Stats().Stats
			_, err := ops.Do(call)
			if s.late {
				reply(1)
			}
			deadline := time.Now().Add(2 * time.Second)
			for !settled(s, tc.Stats().Stats, before) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			rows = append(rows, peer.row(err, tc.Stats().Stats))
		}
		return rows
	}()

	for i, s := range table {
		if !reflect.DeepEqual(simRows[i], wireRows[i]) {
			t.Errorf("%s:\n  sim  %+v\n  wire %+v", s.name, simRows[i], wireRows[i])
		}
	}
	// The table is only worth its agreement if the rows are the right ones.
	if got := simRows[retries+1]; got.Outcome != "kv.ErrTimeout" || len(got.QIDs) != retries+1 {
		t.Errorf("every attempt lost: %+v, want %d attempts then kv.ErrTimeout", got, retries+1)
	}
	if got := simRows[2]; got.Outcome != "ok" || len(got.QIDs) != 3 || got.QIDs[0] != got.QIDs[2] {
		t.Errorf("two attempts lost: %+v, want three attempts under one id, then ok", got)
	}
	if last := simRows[len(simRows)-1].Stats; last != (query.Stats{Sent: 19, Retries: 12, Timeouts: 2, Late: 2}) {
		t.Errorf("final counters %+v", last)
	}
}
