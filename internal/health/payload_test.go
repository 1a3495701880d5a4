package health

import (
	"strings"
	"testing"
)

// TestPayloadV2RoundTrip pins the v2 wire form: every field — including
// the socket-level DecodeErrs/RcvBuf additions — survives encode→decode.
func TestPayloadV2RoundTrip(t *testing.T) {
	p := Payload{
		Queue:      7,
		Drops:      1 << 40,
		Processed:  123456789,
		Retries:    42,
		DecodeErrs: 9001,
		RcvBuf:     8 << 20,
	}
	wire := p.Encode(nil)
	if len(wire) != payloadLen {
		t.Fatalf("v2 payload is %d bytes, want %d", len(wire), payloadLen)
	}
	got, err := DecodePayload(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("round trip drifted: %+v != %+v", got, p)
	}
}

// TestPayloadRejectsGarbage: truncated and unknown-version payloads error
// instead of decoding nonsense — including the retired version 1, which no
// emitter writes any more.
func TestPayloadRejectsGarbage(t *testing.T) {
	full := Payload{Queue: 1}.Encode(nil)
	v1 := append([]byte{1}, full[1:29]...) // the 29-byte v1 form
	for _, b := range [][]byte{nil, {}, full[:5], full[:payloadLen-1], {99, 0, 0, 0, 0}, v1} {
		if _, err := DecodePayload(b); err == nil {
			t.Errorf("decoded %d-byte payload (version %v) without error", len(b), b)
		}
	}
	if _, err := DecodePayload(v1); err == nil || !strings.Contains(err.Error(), "unsupported payload version 1") {
		t.Errorf("version 1 payload: %v, want an unsupported-version error", err)
	}
}
