package core

// CheckpointKind distinguishes why a state was saved.
type CheckpointKind int

const (
	// KindStart is the implicit checkpoint of the initial state: the
	// "beginning" the domino effect can push a process back to.
	KindStart CheckpointKind = iota
	// KindRP is a proper recovery point saved at a BeginBlock, preceded (on
	// re-entry) or followed by an acceptance test.
	KindRP
	// KindPRP is a pseudo recovery point: a state saved on another process's
	// implantation request, with no acceptance test of its own (its contents
	// may be contaminated — Section 4, footnote 2).
	KindPRP
	// KindConversation is a state saved at a synchronized test line; the set
	// of same-name conversation checkpoints forms a recovery line.
	KindConversation
)

// String names the kind.
func (k CheckpointKind) String() string {
	switch k {
	case KindStart:
		return "start"
	case KindRP:
		return "RP"
	case KindPRP:
		return "PRP"
	case KindConversation:
		return "conversation"
	default:
		return "checkpoint"
	}
}

// Anchor identifies the recovery point that caused a PRP to be implanted:
// PRP^{Owner,Index} in the paper's notation.
type Anchor struct {
	Owner int // process whose RP triggered the implantation
	Index int // per-owner running RP number
}

// Checkpoint is everything needed to restore a process: deep-copied state,
// program counter, per-peer message cursors, and accounting. Cursors are
// what make global consistency checkable: a cut is consistent iff no
// receiver's cursor exceeds the matching sender's cursor on any edge
// (no orphan messages).
type Checkpoint struct {
	Kind     CheckpointKind
	Proc     int
	PC       int
	Time     int64 // logical (Lamport-style total order) timestamp
	State    State
	SendSeq  []int // messages sent to each peer so far
	RecvSeq  []int // messages consumed from each peer so far
	WorkDone int   // completed work units, for rollback-distance accounting
	Anchor   Anchor
	RPIndex  int  // for KindRP: per-process running RP number
	RPCount  int  // process's RP counter at snapshot time (restored on rollback)
	purged   bool // storage accounting: purged checkpoints stay indexed but drop state
}

// snapshot builds a checkpoint from the live process.
func (p *Process) snapshot(kind CheckpointKind) *Checkpoint {
	cp := &Checkpoint{
		Kind:     kind,
		Proc:     p.id,
		PC:       p.pc,
		Time:     p.sys.tick(),
		State:    p.state.Clone(),
		SendSeq:  append([]int(nil), p.sendSeq...),
		RecvSeq:  append([]int(nil), p.recvSeq...),
		WorkDone: p.workDone,
		RPCount:  p.rpCount,
	}
	return cp
}

// liveCheckpoints counts retained (not purged) checkpoints of a process.
func (p *Process) liveCheckpoints() int {
	n := 0
	for _, cp := range p.checkpoints {
		if !cp.purged {
			n++
		}
	}
	return n
}

// purgeCheckpoint drops the saved state of checkpoint i (storage reclaim)
// while keeping its metadata for the history. Start checkpoints and already
// purged ones are left alone.
func (p *Process) purgeCheckpoint(i int) {
	cp := p.checkpoints[i]
	if cp.Kind == KindStart || cp.purged {
		return
	}
	cp.purged = true
	cp.State = nil
	p.stats.CheckpointsPurged++
}
