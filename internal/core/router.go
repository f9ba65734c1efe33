package core

// message is one logged interaction. The router retains every message so
// that receivers can replay after rollback (the paper's "consistent
// communications" assumption plus the Section 4 requirement that messages
// sent before a commitment be retained in the saved state).
type message struct {
	seq      int
	payload  Value
	sendTime int64 // logical time of the send
}

// router is the interconnect: a fully logged, per-edge FIFO message store.
// Only the owning System's step loop touches it.
type router struct {
	n    int
	logs [][][]message // logs[from][to] = ordered messages
	// stats
	sent   int
	purged int
}

func newRouter(n int) *router {
	r := &router{n: n, logs: make([][][]message, n)}
	for i := range r.logs {
		r.logs[i] = make([][]message, n)
	}
	return r
}

// send appends a message on edge from→to with the sender's next sequence
// number and returns that sequence number.
func (r *router) send(from, to, seq int, payload Value, now int64) {
	r.logs[from][to] = append(r.logs[from][to], message{seq: seq, payload: payload, sendTime: now})
	r.sent++
}

// available reports whether the message with sequence number seq on edge
// from→to has been sent (and not purged by a sender rollback).
func (r *router) available(from, to, seq int) bool {
	log := r.logs[from][to]
	return seq < len(log)
}

// fetch returns message seq on edge from→to. The caller must have checked
// availability.
func (r *router) fetch(from, to, seq int) Value {
	return r.logs[from][to][seq].payload
}

// truncate discards messages on edge from→to with sequence number ≥ keep —
// the orphan purge after the sender rolled back to a checkpoint with
// SendSeq[to] = keep. Deterministic re-execution will regenerate them
// (possibly differently, if a different alternate runs).
func (r *router) truncate(from, to, keep int) {
	log := r.logs[from][to]
	if keep < len(log) {
		r.purged += len(log) - keep
		r.logs[from][to] = log[:keep]
	}
}

// edgeLen returns the number of retained messages on an edge.
func (r *router) edgeLen(from, to int) int { return len(r.logs[from][to]) }
