// Package core is the executable heart of the reproduction: a library for
// running cooperating concurrent processes under backward error recovery
// with recovery blocks, in the three styles the paper analyzes:
//
//   - asynchronous recovery blocks: every process checkpoints on its own;
//     when an acceptance test fails, the system rolls back to the most
//     recent *recovery line* it can find among the saved checkpoints, and
//     the domino effect is possible;
//   - synchronized recovery blocks (conversations): processes meet at a
//     test line, run their acceptance tests together and save a recovery
//     line by construction (Section 3 protocol);
//   - pseudo recovery points: every recovery point of P_i implants a PRP in
//     each other process, so a pseudo recovery line always exists and
//     rollback is bounded (Section 4 algorithms).
//
// Processes exchange messages through a router that logs every interaction
// with sequence numbers, which is what makes consistent rollback decidable
// (the paper's assumption 4, "consistent communications").
//
// The processes are concurrent in the model, not in the Go scheduler:
// System.Run steps them in a fixed round-robin order, so a run depends only
// on its programs, fault and AT plans, and seed.
package core

// Value is a message payload. Payloads must be treated as immutable once
// sent: the router retains them for replay after rollback.
type Value interface{}

// State is the process-local state saved at recovery points. Clone must
// return a deep copy that shares no mutable structure with the receiver —
// checkpointed states must be immune to later in-place mutation.
type State interface {
	Clone() State
}

// Ints is a ready-made State for the common case of a slice of integers.
type Ints []int64

// Clone returns a deep copy.
func (s Ints) Clone() State {
	c := make(Ints, len(s))
	copy(c, s)
	return c
}

// Record is a ready-made State for keyed scalar data.
type Record map[string]float64

// Clone returns a deep copy.
func (r Record) Clone() State {
	c := make(Record, len(r))
	for k, v := range r {
		c[k] = v
	}
	return c
}

// Counter is a minimal single-value State.
type Counter struct{ V int64 }

// Clone returns a copy.
func (c *Counter) Clone() State {
	cc := *c
	return &cc
}
