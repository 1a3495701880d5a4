// Package watch implements server-push watches on top of the NetChain
// key-value protocol — one of the features the paper explicitly defers
// ("e.g. hierarchical name space ..., watches (which notify clients when
// watched values are updated)", §6).
//
// The push pipeline: every applied mutation leaves the chain tail as one
// OpEvent frame (published by the tail's transport agent — switches cannot
// originate packets, their co-located agents can), a relay tier stamps a
// per-group stream sequence on each event and fans it out to subscribers
// over multicast groups keyed by virtual group. This package is the
// subscriber half: Sub is the substrate-neutral subscription state machine
// (version-exact dedup, stream-gap detection, versioned-read resync), fed
// by the real transport's watch socket or the simulator's multicast
// delivery; on the wire, Follower drives it from the relay stream and a
// read function.
//
// The protocol's monotonic (session, seq) pairs make change detection
// exact: no false positives from value re-writes of identical bytes, and
// any dropped, duplicated or reordered event frame is either suppressed by
// the version order or surfaced as a stream-sequence hole that triggers a
// linearizable read — so subscribers always converge to the store's state,
// even when nemesis faults eat events.
package watch

import (
	"fmt"

	"netchain/internal/kv"
)

// EventType classifies a change.
type EventType uint8

const (
	// Created fires on the first observed existence of a key (or its
	// reappearance after deletion).
	Created EventType = iota
	// Updated fires when the version advances on an existing key.
	Updated
	// Deleted fires when a previously present key is removed.
	Deleted
)

func (t EventType) String() string {
	switch t {
	case Created:
		return "created"
	case Updated:
		return "updated"
	case Deleted:
		return "deleted"
	}
	return fmt.Sprintf("event(%d)", uint8(t))
}

// Event is one observed change.
type Event struct {
	Type    EventType
	Key     kv.Key
	Value   kv.Value
	Version kv.Version
}
