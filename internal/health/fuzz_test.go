package health

import (
	"bytes"
	"testing"
)

// FuzzDecodePayload feeds arbitrary bytes to the heartbeat payload decoder
// the monitor runs on every datagram it receives. Truncated and
// unknown-version input must be rejected, never panic, and whatever
// decodes must re-encode to the very bytes it came from.
func FuzzDecodePayload(f *testing.F) {
	whole := Payload{Queue: 7, Drops: 1 << 40, Processed: 123456789, Retries: 42, DecodeErrs: 9001, RcvBuf: 8 << 20}.Encode(nil)
	f.Add(whole)
	f.Add(append(append([]byte(nil), whole...), 0xee)) // trailing byte
	f.Add(whole[:payloadLen-1])
	f.Add(whole[:5])
	f.Add([]byte{})
	f.Add(append([]byte{1}, whole[1:29]...)) // the retired v1 form
	f.Add([]byte{99, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePayload(data)
		if err != nil {
			if len(data) >= payloadLen && data[0] == payloadVersion {
				t.Fatalf("well-formed payload rejected: %v", err)
			}
			return
		}
		if out := p.Encode(nil); !bytes.Equal(out, data[:payloadLen]) {
			t.Fatalf("re-encoded payload differs:\n %x\n %x", out, data[:payloadLen])
		}
	})
}
