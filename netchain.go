// Package netchain is a software reproduction of NetChain (NSDI 2018):
// scale-free sub-RTT coordination — a strongly-consistent, fault-tolerant
// key-value store that lives in the network dataplane, replicated with a
// chain-replication variant (Vertical Paxos steady state) and repaired by
// a controller (fast failover + two-phase failure recovery).
//
// Two substrates run the same protocol code:
//
//   - a real deployment: switch dataplanes behind UDP sockets, a
//     controller driving per-switch agents with batch verbs (in-process
//     agents, controller.LocalAgent, within one process; a framed binary
//     stream over TCP between processes), clients with timeout-based
//     retries — see StartLocalCluster;
//   - a deterministic discrete-event simulation of the paper's testbed
//     (four switches, four servers) or a multi-tier fabric — see
//     NewSimCluster. Its shared verbs take Cluster's shapes. The figure
//     reproductions (EXPERIMENTS.md) run on the same simulator through
//     internal/experiments, not through this package.
package netchain

import (
	"netchain/internal/kv"
	"netchain/internal/localcluster"
	"netchain/internal/query"
	"netchain/internal/transport"
)

// Key is a fixed 16-byte key (§7).
type Key = kv.Key

// Value is a bounded value (≤128 B at line rate in the paper's prototype).
type Value = kv.Value

// Version is the (session, sequence) write-ordering pair (§4.3, §5.2).
type Version = kv.Version

// Sentinel errors returned by clients.
var (
	ErrNotFound    = kv.ErrNotFound
	ErrCASFail     = kv.ErrCASFail
	ErrTimeout     = kv.ErrTimeout
	ErrUnavailable = kv.ErrUnavailable
)

// KeyFromString builds a key from text (truncated/padded to 16 bytes).
func KeyFromString(s string) Key { return kv.KeyFromString(s) }

// KeyFromUint64 builds a key from an integer (synthetic workloads).
func KeyFromUint64(v uint64) Key { return kv.KeyFromUint64(v) }

// ClusterConfig sizes a local real-network cluster: switch and replica
// counts, virtual groups, slots, the clients' window, timeout and retries,
// ingest sockets, the relay's lease TTL, and an optional wire nemesis.
// The README's "Configuring a local cluster" table documents each field.
type ClusterConfig = localcluster.Config

// Cluster is a real NetChain deployment on loopback: every switch is a
// dataplane goroutine behind its own UDP socket, and the controller
// programs them through in-process agents (controller.LocalAgent); a
// multi-process deployment sends the same verbs over TCP. The lifecycle
// verbs (FailSwitch, Recover, AddSwitch, RemoveSwitch, RestartRelay,
// Close) and accessors come from the embedded deployment, the same one
// the real-wire chaos harness boots.
type Cluster struct {
	*localcluster.Cluster
}

// StartLocalCluster boots a cluster. The first cfg.Replicas switches are
// ring members; the rest are spares available to Recover.
func StartLocalCluster(cfg ClusterConfig) (*Cluster, error) {
	c, err := localcluster.Start(cfg)
	if err != nil {
		return nil, err
	}
	return &Cluster{c}, nil
}

// Client is a blocking NetChain client: the agent of §3 translating API
// calls to in-network queries with retries. Its key-value calls come from
// the embedded transport.Ops: Read, Write, Delete, CAS (swap iff the
// stored owner field equals expect, §8.5), Acquire and Release block until
// the call resolves; ReadAsync, WriteAsync and CASAsync return once the
// query is on the wire (blocking only while the ClusterConfig.ClientWindow
// pipe is full) and run done on the receive goroutine, which must not
// block.
type Client struct {
	*transport.Ops
	cluster *Cluster
}

// NewClient attaches a client through the given live switch (its "ToR").
// Client addresses are 10.1.0.1–10.1.0.255 and never reused, so a cluster
// hands out at most 255 of them.
func (c *Cluster) NewClient(gateway int) (*Client, error) {
	ops, err := c.Cluster.NewClient(gateway)
	if err != nil {
		return nil, err
	}
	return &Client{Ops: ops, cluster: c}, nil
}

// Close releases the client socket.
func (cl *Client) Close() error { return cl.Ops.Client.Close() }

// TransportStats exposes the client's transport counters (sent datagrams,
// retries, timeouts, late/duplicate replies).
func (cl *Client) TransportStats() transport.ClientStats { return cl.Ops.Client.Stats() }

// LockValue builds a lock record: owner id plus payload.
func LockValue(owner uint64, payload []byte) Value { return query.OwnerValue(owner, payload) }

// LockOwner extracts the owner of a lock record (0 = free).
func LockOwner(v Value) uint64 { return query.Owner(v) }
