package packet

import "sync"

// Pools backing the hot encode/decode path: transports churn through one
// frame and one wire buffer per query, so both are recycled here instead
// of being reallocated per packet. Frames returned by GetFrame are fully
// zeroed; buffers returned by GetBuf have length zero and retain their
// capacity across uses.

var framePool = sync.Pool{New: func() any { return new(Frame) }}

// GetFrame returns a zeroed frame from the pool.
func GetFrame() *Frame { return framePool.Get().(*Frame) }

// PutFrame resets f and returns it to the pool. The caller must not keep
// any reference to f, its NC.Value, or its NC.Chain afterwards.
func PutFrame(f *Frame) {
	f.Reset()
	framePool.Put(f)
}

// wireBufCap seeds new buffers large enough for a full-chain query with a
// typical (≤128 B line-rate) value, so steady state never grows them.
const wireBufCap = 512

// maxPooledBufCap bounds what PutBuf keeps: an oversized value (up to
// 64 KB) would otherwise pin its buffer in the pool forever.
const maxPooledBufCap = 64 * 1024

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, wireBufCap)
		return &b
	},
}

// GetBuf returns a length-zero wire buffer. Serialize into (*b)[:0] and
// store the result back through *b before PutBuf so capacity growth is
// retained.
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// SerializeBuf serializes f into a buffer from GetBuf, which the caller
// then owns: PutBuf it once sent, or hand it to a queue that does.
func SerializeBuf(f *Frame) (*[]byte, error) {
	b := GetBuf()
	out, err := f.Serialize((*b)[:0])
	if err != nil {
		PutBuf(b)
		return nil, err
	}
	*b = out
	return b, nil
}

// PutBuf recycles a buffer obtained from GetBuf.
func PutBuf(b *[]byte) {
	if cap(*b) > maxPooledBufCap {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}
