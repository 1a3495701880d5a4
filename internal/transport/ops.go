package transport

import (
	"fmt"

	"netchain/internal/kv"
	"netchain/internal/packet"
	"netchain/internal/query"
)

// Directory resolves a key to its current route (usually a
// ControllerClient's Route; static for fixed deployments).
type Directory func(k kv.Key) (query.Route, error)

// Ops binds a Client to a Directory, providing the key-value API the
// NetChain agent exposes to applications (§3). Every method is a thin
// wrapper over Do/DoAsync: query.Call builds the frames and reads the
// replies, exactly as it does for the simulator's clients.
type Ops struct {
	Client *Client
	Dir    Directory
}

// DoAsync issues one pipelined call. done runs on the client's receive or
// timer goroutine and must not block; use the client's Window for
// backpressure.
func (o *Ops) DoAsync(c query.Call, done func(query.Outcome, error)) {
	if o.Dir == nil {
		done(query.Outcome{}, fmt.Errorf("transport: no directory configured"))
		return
	}
	o.Client.Submit(func(qid uint64) (*packet.Frame, error) {
		rt, err := o.Dir(c.Key) // fresh per attempt: retries pick up new chains
		if err != nil {
			return nil, err
		}
		a, p := o.Client.Endpoint()
		return c.Frame(query.Endpoint{Addr: a, Port: p}, qid, rt)
	}, func(f *packet.Frame, err error) {
		if err != nil {
			done(query.Outcome{}, err)
			return
		}
		// f aliases the receive buffer; ParseReply clones the value out.
		rep, err := query.ParseReply(f)
		if err != nil {
			done(query.Outcome{}, err)
			return
		}
		done(c.Outcome(rep))
	})
}

// Do issues one call and blocks until it resolves.
func (o *Ops) Do(c query.Call) (query.Outcome, error) {
	type result struct {
		out query.Outcome
		err error
	}
	ch := make(chan result, 1)
	o.DoAsync(c, func(out query.Outcome, err error) { ch <- result{out, err} })
	r := <-ch
	return r.out, r.err
}

// Read returns the value and version of key k.
func (o *Ops) Read(k kv.Key) (kv.Value, kv.Version, error) {
	out, err := o.Do(query.Call{Op: kv.OpRead, Key: k})
	return out.Value, out.Version, err
}

// Write stores value under key k.
func (o *Ops) Write(k kv.Key, v kv.Value) (kv.Version, error) {
	out, err := o.Do(query.Call{Op: kv.OpWrite, Key: k, Value: v})
	return out.Version, err
}

// Delete tombstones key k (the controller garbage-collects later, §4.1).
func (o *Ops) Delete(k kv.Key) error {
	_, err := o.Do(query.Call{Op: kv.OpDelete, Key: k})
	return err
}

// CAS applies newValue iff the stored owner equals expect; it returns the
// stored value on failure so lock retries stay benign (§8.5, §4.3).
func (o *Ops) CAS(k kv.Key, expect uint64, newValue kv.Value) (swapped bool, stored kv.Value, err error) {
	out, err := o.Do(query.Call{Op: kv.OpCAS, Key: k, Expect: expect, Value: newValue})
	return out.Swapped, out.Value, err
}

// Acquire takes an exclusive lock for owner; ok reports success. A lost
// reply followed by a retry that sees our own ownership counts as success.
func (o *Ops) Acquire(lock kv.Key, owner uint64) (bool, error) {
	out, err := o.Do(query.Acquire(lock, owner))
	return out.Landed, err
}

// Release returns the lock held by owner.
func (o *Ops) Release(lock kv.Key, owner uint64) (bool, error) {
	out, err := o.Do(query.Release(lock, owner))
	return out.Landed, err
}

// ReadAsync issues a pipelined read; see DoAsync for the contract.
func (o *Ops) ReadAsync(k kv.Key, done func(kv.Value, kv.Version, error)) {
	o.DoAsync(query.Call{Op: kv.OpRead, Key: k}, func(out query.Outcome, err error) {
		done(out.Value, out.Version, err)
	})
}

// WriteAsync issues a pipelined write; done receives the committed version.
func (o *Ops) WriteAsync(k kv.Key, v kv.Value, done func(kv.Version, error)) {
	o.DoAsync(query.Call{Op: kv.OpWrite, Key: k, Value: v}, func(out query.Outcome, err error) {
		done(out.Version, err)
	})
}

// CASAsync issues a pipelined compare-and-swap; see CAS for the contract.
func (o *Ops) CASAsync(k kv.Key, expect uint64, newValue kv.Value,
	done func(swapped bool, stored kv.Value, err error)) {
	o.DoAsync(query.Call{Op: kv.OpCAS, Key: k, Expect: expect, Value: newValue},
		func(out query.Outcome, err error) { done(out.Swapped, out.Value, err) })
}
