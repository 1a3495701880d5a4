package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"netchain"
)

// Values are f(key, seq) with a checksum, so every reply can be verified
// without remembering what was written:
//
//	[0:8)   seq, the writer's per-key sequence number (1 = the seeded value)
//	[8:12)  key index
//	[12:16) FNV-1a over the other bytes
//	[16:n)  filler derived from (key index, seq)
//
// so a value is at least 16 bytes.

func putValue(buf []byte, keyIdx uint32, seq uint64) {
	binary.LittleEndian.PutUint64(buf[0:], seq)
	binary.LittleEndian.PutUint32(buf[8:], keyIdx)
	x := byte(seq*31 + uint64(keyIdx)*7)
	for i := 16; i < len(buf); i++ {
		buf[i] = x + byte(i)
	}
	binary.LittleEndian.PutUint32(buf[12:], valueSum(buf))
}

func newValue(size int, keyIdx uint32, seq uint64) netchain.Value {
	v := make(netchain.Value, size)
	putValue(v, keyIdx, seq)
	return v
}

func valueSum(buf []byte) uint32 {
	h := uint32(2166136261)
	for i, b := range buf {
		if i >= 12 && i < 16 {
			continue
		}
		h = (h ^ uint32(b)) * 16777619
	}
	return h
}

// checkValue verifies a reply for keyIdx and returns the seq it carries.
func checkValue(v []byte, size int, keyIdx uint32) (uint64, error) {
	if len(v) != size {
		return 0, fmt.Errorf("value is %d bytes, want %d", len(v), size)
	}
	if got := binary.LittleEndian.Uint32(v[8:]); got != keyIdx {
		return 0, fmt.Errorf("value belongs to key %d", got)
	}
	if binary.LittleEndian.Uint32(v[12:]) != valueSum(v) {
		return 0, fmt.Errorf("value checksum mismatch")
	}
	return binary.LittleEndian.Uint64(v), nil
}

// keyspace is the state the correctness checks share between the two
// generators: per key, the next seq its single writer will use and the
// highest seq a reply has acknowledged.
type keyspace struct {
	size  int // value size in bytes
	keys  []netchain.Key
	next  []atomic.Uint64
	acked []atomic.Uint64
	busy  []atomic.Bool // failover-paced: a write is in flight on the key
}

func newKeyspace(n, valueSize int) *keyspace {
	ks := &keyspace{
		size:  valueSize,
		keys:  make([]netchain.Key, n),
		next:  make([]atomic.Uint64, n),
		acked: make([]atomic.Uint64, n),
		busy:  make([]atomic.Bool, n),
	}
	for i := range ks.keys {
		ks.keys[i] = netchain.KeyFromUint64(uint64(i) + 1)
	}
	return ks
}

// ack raises key i's acknowledged seq to at least seq.
func (ks *keyspace) ack(i int, seq uint64) {
	for {
		cur := ks.acked[i].Load()
		if cur >= seq || ks.acked[i].CompareAndSwap(cur, seq) {
			return
		}
	}
}

// own maps key index i to the nearest key written by client c: keys are
// split by parity so each has a single writer, which is what lets a read
// be checked against "the last seq acknowledged before it was issued".
func own(i, c int) int { return i&^1 | c }

// lockKey is one of client c's private lock keys.
func lockKey(c, j int) netchain.Key {
	return netchain.KeyFromUint64(1<<32 | uint64(c)<<8 | uint64(j))
}

const locksPerClient = 8

// keyPicker draws key indexes for one generator.
type keyPicker struct {
	rng  *rand.Rand
	n    int
	cdf  []float64 // nil = uniform
	perm []int     // popularity rank -> key index
}

// zipfScatter fixes which keys are the popular ones. It is not the run's
// seed: how far a key's chain is from a client's gateway decides whether a
// read takes two datagrams or three, so a hot set that moved with the seed
// would move the p50 with it. The seed orders the draws, not the ranking.
const zipfScatter = 0x6e63

// newKeyPicker builds a uniform picker (theta 0) or a zipf(theta) one
// whose popular keys are scattered over the key space.
func newKeyPicker(seed int64, n int, theta float64) *keyPicker {
	p := &keyPicker{rng: rand.New(rand.NewSource(seed)), n: n}
	if theta > 0 {
		p.cdf = make([]float64, n)
		sum := 0.0
		for i := range p.cdf {
			sum += 1 / math.Pow(float64(i+1), theta)
			p.cdf[i] = sum
		}
		for i := range p.cdf {
			p.cdf[i] /= sum
		}
		p.perm = rand.New(rand.NewSource(zipfScatter)).Perm(n)
	}
	return p
}

func (p *keyPicker) key() int {
	if p.cdf == nil {
		return p.rng.Intn(p.n)
	}
	r := sort.SearchFloat64s(p.cdf, p.rng.Float64())
	if r >= p.n {
		r = p.n - 1
	}
	return p.perm[r]
}

// kvClient is the part of the public façade the generators drive.
// *netchain.Client is the real one; memClient stands in for it when the
// generator's own cost is measured.
type kvClient interface {
	Read(k netchain.Key) (netchain.Value, netchain.Version, error)
	Write(k netchain.Key, v netchain.Value) (netchain.Version, error)
	Acquire(k netchain.Key, owner uint64) (bool, error)
	Release(k netchain.Key, owner uint64) (bool, error)
	ReadAsync(k netchain.Key, done func(netchain.Value, netchain.Version, error))
	WriteAsync(k netchain.Key, v netchain.Value, done func(netchain.Version, error))
}

// memClient answers every call at once from a map, so that a generator
// run against it costs only what the generator costs.
type memClient struct {
	mu sync.Mutex
	m  map[netchain.Key]netchain.Value
}

func newMemClient(ks *keyspace) *memClient {
	c := &memClient{m: make(map[netchain.Key]netchain.Value, len(ks.keys))}
	for i, k := range ks.keys {
		c.m[k] = newValue(ks.size, uint32(i), ks.acked[i].Load())
	}
	return c
}

func (c *memClient) Read(k netchain.Key) (netchain.Value, netchain.Version, error) {
	c.mu.Lock()
	v := c.m[k]
	c.mu.Unlock()
	return v, netchain.Version{}, nil
}

func (c *memClient) Write(k netchain.Key, v netchain.Value) (netchain.Version, error) {
	c.mu.Lock()
	c.m[k] = v
	c.mu.Unlock()
	return netchain.Version{}, nil
}

func (c *memClient) Acquire(netchain.Key, uint64) (bool, error) { return true, nil }
func (c *memClient) Release(netchain.Key, uint64) (bool, error) { return true, nil }

func (c *memClient) ReadAsync(k netchain.Key, done func(netchain.Value, netchain.Version, error)) {
	done(c.Read(k))
}

func (c *memClient) WriteAsync(k netchain.Key, v netchain.Value, done func(netchain.Version, error)) {
	done(c.Write(k, v))
}
