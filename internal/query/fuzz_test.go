package query

import (
	"reflect"
	"testing"

	"netchain/internal/kv"
	"netchain/internal/packet"
)

// FuzzParseEvent feeds arbitrary datagrams to the decoder a watch
// subscriber runs on everything its socket receives: frame decode, then
// ParseEvent. Garbage must come back as an error, never a panic, and any
// event it accepts must survive EventInto → wire → ParseEvent unchanged —
// epoch and stream sequence packed into one field included.
func FuzzParseEvent(f *testing.F) {
	src, dst := packet.AddrFrom4(10, 0, 0, 3), packet.AddrFrom4(10, 2, 0, 1)
	wire := func(ev Event) []byte {
		fr := NewEvent(src, dst, packet.Port, packet.Port, ev)
		defer packet.PutFrame(fr)
		out, err := fr.Serialize(nil)
		if err != nil {
			f.Fatal(err)
		}
		return out
	}
	seeds := []Event{
		{Key: kv.KeyFromString("cfg"), Value: kv.Value("v1"), Version: kv.Version{Session: 2, Seq: 9}, Group: 7, StreamSeq: 41, Epoch: 3},
		{Key: kv.KeyFromString("gone"), Version: kv.Version{Seq: 4}, Group: 1, StreamSeq: 1, Deleted: true},
		{Key: kv.KeyFromString("raw"), Value: kv.Value{}, StreamSeq: streamSeqMask, Epoch: 0xffff},
	}
	for _, ev := range seeds {
		whole := wire(ev)
		f.Add(whole)
		f.Add(whole[:len(whole)-3])
		flip := append([]byte(nil), whole...)
		flip[len(flip)/2] ^= 0x40
		f.Add(flip)
	}
	read, err := NewRead(Endpoint{Addr: src, Port: 4000}, 5, Route{Hops: []packet.Addr{dst}}, kv.KeyFromString("cfg"))
	if err != nil {
		f.Fatal(err)
	}
	notEvent, err := read.Serialize(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(notEvent)

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr packet.Frame
		if fr.Decode(data) != nil {
			return
		}
		ev, err := ParseEvent(&fr)
		if err != nil {
			if fr.NC.Op == kv.OpEvent {
				t.Fatalf("event frame rejected: %v", err)
			}
			return
		}
		if ev.Deleted && ev.Value != nil {
			t.Fatalf("tombstone carries a value: %+v", ev)
		}
		var back packet.Frame
		if err := back.Decode(wire(ev)); err != nil {
			t.Fatalf("re-encoded event fails to decode: %v", err)
		}
		again, err := ParseEvent(&back)
		if err != nil {
			t.Fatalf("re-encoded event fails to parse: %v", err)
		}
		if len(ev.Value) == 0 {
			ev.Value, again.Value = nil, nil // empty and absent are one value on the wire
		}
		if !reflect.DeepEqual(ev, again) {
			t.Fatalf("round trip drifted:\n %+v\n %+v", ev, again)
		}
	})
}
