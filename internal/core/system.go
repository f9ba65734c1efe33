package core

import (
	"errors"
	"fmt"
	"strings"

	"recoveryblocks/internal/trace"
)

// Strategy selects the backward-error-recovery organization of the system.
type Strategy int

const (
	// StrategyAsync is the paper's asynchronous recovery blocks: processes
	// checkpoint independently and recovery searches the checkpoint history
	// for the most recent recovery line (domino effect possible).
	StrategyAsync Strategy = iota
	// StrategyPRP additionally implants pseudo recovery points in every
	// other process whenever a recovery point is established (Section 4),
	// bounding rollback without synchronization.
	StrategyPRP
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyAsync:
		return "asynchronous"
	case StrategyPRP:
		return "pseudo-recovery-points"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ErrUnrecoverable is returned when recovery churned past Config.MaxRecoveries.
var ErrUnrecoverable = errors.New("core: recovery limit exceeded")

// ErrDeadlock is returned when no process can take a step but not all have
// finished. The wrapping error names each blocked process and its step.
var ErrDeadlock = errors.New("core: deadlock")

// Config configures a System.
type Config struct {
	Strategy      Strategy
	Seed          int64      // seeds the deterministic per-step RNG streams
	Faults        *FaultPlan // scheduled error injections (may be nil)
	ATs           *ATPlan    // scheduled acceptance-test failures (may be nil)
	MaxRecoveries int        // safety valve; default 1000
	Trace         bool       // record a history diagram of the run
}

type failKindT int

const (
	failInjected failKindT = iota
	failAcceptance
	failConversation
)

type failure struct {
	kind    failKindT
	fault   FaultKind // for failInjected
	beginPC int       // for failAcceptance
	proc    *Process
}

// System runs n processes under a recovery strategy and collects metrics.
type System struct {
	n         int
	procs     []*Process
	router    *router
	opts      Config
	faults    *FaultPlan
	atplan    *ATPlan
	enclosing [][]int // per proc, per pc: innermost BeginBlock pc or -1

	clock int64 // logical time of checkpoints, messages and trace events
	steps int   // steps run so far, the unit of ProcStats.ConversationWait

	recoveries    int
	exhaustions   int
	dominoToStart int
	deepest       int
	runErr        error
	started       bool
	events        []trace.Event
}

// New assembles a system of len(programs) processes; initial[i] seeds the
// state of process i (it is cloned, the caller's copy is not retained).
func New(cfg Config, programs []Program, initial []State) (*System, error) {
	if len(programs) == 0 {
		return nil, errors.New("core: need at least one process")
	}
	if len(initial) != len(programs) {
		return nil, fmt.Errorf("core: %d programs but %d initial states", len(programs), len(initial))
	}
	if cfg.MaxRecoveries <= 0 {
		cfg.MaxRecoveries = 1000
	}
	n := len(programs)
	s := &System{
		n:      n,
		router: newRouter(n),
		opts:   cfg,
		faults: cfg.Faults,
		atplan: cfg.ATs,
	}
	s.enclosing = make([][]int, n)
	for i, prog := range programs {
		enc, err := computeEnclosing(prog)
		if err != nil {
			return nil, fmt.Errorf("core: process %d: %w", i, err)
		}
		s.enclosing[i] = enc
	}
	for i := range programs {
		if initial[i] == nil {
			return nil, fmt.Errorf("core: process %d has nil initial state", i)
		}
		p := &Process{
			id:       i,
			sys:      s,
			prog:     programs[i],
			state:    initial[i].Clone(),
			sendSeq:  make([]int, n),
			recvSeq:  make([]int, n),
			attempts: make(map[int]int),
		}
		start := p.snapshot(KindStart)
		start.PC = 0
		start.Time = 0
		p.checkpoints = []*Checkpoint{start}
		s.procs = append(s.procs, p)
	}
	return s, nil
}

func computeEnclosing(prog Program) ([]int, error) {
	enc := make([]int, len(prog.steps))
	var stack []int
	for i, st := range prog.steps {
		top := -1
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		switch st.kind {
		case stepBegin:
			enc[i] = top
			stack = append(stack, i)
		case stepEnd:
			if len(stack) == 0 {
				return nil, errors.New("unbalanced EndBlock")
			}
			enc[i] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		default:
			enc[i] = top
		}
	}
	if len(stack) != 0 {
		return nil, errors.New("unclosed BeginBlock")
	}
	return enc, nil
}

// tick advances the logical clock.
func (s *System) tick() int64 {
	s.clock++
	return s.clock
}

// emit appends a history event when tracing is enabled.
func (s *System) emit(proc int, kind trace.Kind, peer int, label string) {
	if !s.opts.Trace {
		return
	}
	s.events = append(s.events, trace.Event{
		Time: s.tick(), Proc: proc, Kind: kind, Peer: peer, Label: label,
	})
}

// Trace returns the recorded history diagram (empty unless Config.Trace).
// Call it after Run has returned.
func (s *System) Trace() *trace.Diagram {
	return &trace.Diagram{N: s.n, Events: append([]trace.Event(nil), s.events...)}
}

// FinalStates returns a deep copy of each process's state. Call after Run.
func (s *System) FinalStates() []State {
	out := make([]State, s.n)
	for i, p := range s.procs {
		out[i] = p.state.Clone()
	}
	return out
}

// Run executes all processes to completion and returns the collected
// metrics. The processes are concurrent in the model, not in the Go
// runtime: one loop takes turns in round-robin order, running one step of
// each process, in id order, that can run. A process that has finished,
// waits on an empty Recv edge or waits at a test line is skipped. The
// schedule therefore depends only on the programs, the fault and AT plans
// and Config.Seed, and since no process is ever mid-step, failures, PRP
// implantation and test-line commits all take effect on the spot.
func (s *System) Run() (Metrics, error) {
	if s.started {
		return Metrics{}, errors.New("core: system already ran")
	}
	s.started = true
	for s.runErr == nil {
		ran := false
		for _, p := range s.procs {
			if s.runErr == nil && p.runnable() {
				p.step()
				ran = true
			}
		}
		if !ran {
			s.runErr = s.deadlock()
			break
		}
	}
	return s.metrics(), s.runErr
}

// deadlock returns nil when every process has finished, and otherwise an
// ErrDeadlock naming each blocked process and the step it is blocked at.
func (s *System) deadlock() error {
	var blocked []string
	for _, p := range s.procs {
		if p.pc >= len(p.prog.steps) {
			continue
		}
		st := &p.prog.steps[p.pc]
		what := fmt.Sprintf("Conversation %q", st.name)
		if st.kind == stepRecv {
			what = fmt.Sprintf("Recv %q from process %d", st.name, st.peer)
		}
		blocked = append(blocked, fmt.Sprintf("process %d at step %d (%s)", p.id, p.pc, what))
	}
	if len(blocked) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrDeadlock, strings.Join(blocked, "; "))
}

func (s *System) metrics() Metrics {
	m := Metrics{
		Procs:           make([]ProcStats, s.n),
		Recoveries:      s.recoveries,
		MessagesPurged:  s.router.purged,
		MessagesSent:    s.router.sent,
		DominoToStart:   s.dominoToStart,
		DeepestRollback: s.deepest,
	}
	for i, p := range s.procs {
		m.Procs[i] = p.stats
	}
	return m
}

// fail is the single entry point for every failure. The step that detects
// the failure recovers from it on the spot, so recovery is decentralized as
// in the paper's Section 4 algorithm, with no dedicated recovery server. It
// chooses restore targets per strategy and failure kind, finds the maximal
// consistent cut at or below them, and applies it.
func (s *System) fail(f failure) {
	s.recoveries++
	if s.recoveries > s.opts.MaxRecoveries {
		s.runErr = ErrUnrecoverable
		return
	}
	// Candidate lists: each process's unpurged checkpoints in order, plus
	// (where admissible) the live "now" position.
	cands := make([][]*Checkpoint, s.n)
	cpIdx := make([][]int, s.n)
	for i, p := range s.procs {
		for j, cp := range p.checkpoints {
			if cp.purged {
				continue
			}
			cands[i] = append(cands[i], cp)
			cpIdx[i] = append(cpIdx[i], j)
		}
	}

	start := make([]int, s.n)
	useNow := make([]bool, s.n)
	failer := f.proc

	switch f.kind {
	case failConversation:
		// Every participant restarts from the previous recovery line: its
		// latest conversation checkpoint (or the very beginning).
		for i := range s.procs {
			start[i] = clampIndex(latestInList(cands[i], func(cp *Checkpoint) bool {
				return cp.Kind == KindConversation || cp.Kind == KindStart
			}))
		}
	case failAcceptance:
		st := failer.prog.steps[f.beginPC]
		failer.attempts[f.beginPC]++
		rp := clampIndex(latestInList(cands[failer.id], func(cp *Checkpoint) bool {
			return cp.Kind == KindRP && cp.PC == f.beginPC+1
		}))
		if failer.attempts[f.beginPC] >= st.alternates {
			// All alternates rejected: escalate past this block's RP —
			// the error presumably entered with the block's inputs.
			failer.attempts[f.beginPC] = 0
			s.exhaustions++
			rp = previousNonPRP(cands[failer.id], rp)
		}
		start[failer.id] = rp
		for i := range s.procs {
			if i != failer.id {
				useNow[i] = true
				start[i] = len(cands[i]) // the appended "now" candidate
			}
		}
	case failInjected:
		if s.opts.Strategy == StrategyPRP && f.fault == FaultPropagated {
			// Section 4 rollback algorithm: the pointer p migrates until
			// every process has rolled back past one of its own recovery
			// points; the fixpoint is the pseudo recovery line anchored at
			// the process whose most recent own RP is oldest.
			owner, anchorIdx, anchorTime := s.oldestLatestRP(cands)
			for i := range s.procs {
				if i == owner {
					start[i] = clampIndex(latestInList(cands[i], func(cp *Checkpoint) bool {
						return cp.Kind == KindRP || cp.Kind == KindStart
					}))
					continue
				}
				// Prefer the PRP implanted for the anchor RP, or the newest
				// one for an earlier RP of the owner when a rollback of this
				// process discarded it; the match is by anchor identity.
				idx := latestInList(cands[i], func(cp *Checkpoint) bool {
					return cp.Kind == KindPRP && cp.Anchor.Owner == owner && cp.Anchor.Index <= anchorIdx
				})
				if idx < 0 {
					idx = latestAtOrBefore(cands[i], anchorTime)
				}
				start[i] = idx
			}
		} else if f.fault == FaultPropagated {
			// Propagated error without PRPs: the failing process's own saved
			// states are suspect (the contamination arrived by message before
			// they were recorded), so the whole system restarts from the most
			// recent recovery line among the saved checkpoints — Section 2's
			// rollback propagation, domino effect included.
			for i := range s.procs {
				start[i] = len(cands[i]) - 1
			}
		} else {
			// Local error: the failing process restarts from its previous
			// recovery point; everyone else rolls back only as far as orphan
			// messages force (which, under StrategyPRP, lands on implanted
			// PRPs).
			start[failer.id] = clampIndex(latestInList(cands[failer.id], func(cp *Checkpoint) bool {
				return cp.Kind != KindPRP
			}))
			for i := range s.procs {
				if i != failer.id {
					useNow[i] = true
					start[i] = len(cands[i])
				}
			}
		}
	}

	// Assemble cursor views (checkpoints plus the virtual "now") and find
	// the maximal consistent cut at or below the start indices.
	views := make([][]CutCandidate, s.n)
	for i, p := range s.procs {
		for _, cp := range cands[i] {
			views[i] = append(views[i], CutCandidate{SendSeq: cp.SendSeq, RecvSeq: cp.RecvSeq})
		}
		if useNow[i] {
			views[i] = append(views[i], CutCandidate{SendSeq: p.sendSeq, RecvSeq: p.recvSeq})
		}
	}
	cut := findRecoveryLine(views, start)

	// Apply: restore every process whose cut point is a real checkpoint.
	for i, p := range s.procs {
		if useNow[i] && cut[i] == len(cands[i]) {
			continue // stays live
		}
		s.restore(p, cands[i][cut[i]], cpIdx[i][cut[i]])
	}
	// Purge orphan messages: anything beyond the (restored) senders'
	// cursors was never sent on the surviving timeline.
	for i, p := range s.procs {
		for j := 0; j < s.n; j++ {
			if i != j {
				s.router.truncate(i, j, p.sendSeq[j])
			}
		}
	}
	// Any conversation in flight is void; participants will re-arrive.
	s.leaveLines()
}

// restore rolls proc back to checkpoint cp (index origIdx in the full
// checkpoint history).
func (s *System) restore(p *Process, cp *Checkpoint, origIdx int) {
	discarded := p.workDone - cp.WorkDone
	if discarded > s.deepest {
		s.deepest = discarded
	}
	s.emit(p.id, trace.EvRollback, 0,
		fmt.Sprintf("%s checkpoint (t=%d, discarding %d work units)", cp.Kind, cp.Time, discarded))
	p.stats.WorkDiscarded += discarded
	p.stats.Rollbacks++
	if cp.Kind == KindStart {
		s.dominoToStart++
	}
	p.state = cp.State.Clone()
	p.pc = cp.PC
	copy(p.sendSeq, cp.SendSeq)
	copy(p.recvSeq, cp.RecvSeq)
	p.workDone = cp.WorkDone
	// Rewind the RP counter so re-executed blocks reuse their original RP
	// indices and PRP anchors stay coherent across the rollback.
	p.rpCount = cp.RPCount
	// Checkpoints taken after the restore point belong to the abandoned
	// timeline.
	p.checkpoints = p.checkpoints[:origIdx+1]
}

// oldestLatestRP returns the process whose most recent own recovery
// point is oldest, that RP's per-owner index, and its logical time (index -1
// and time 0 when a process has no RP yet — its start counts).
func (s *System) oldestLatestRP(cands [][]*Checkpoint) (owner, anchorIdx int, anchorTime int64) {
	owner = 0
	anchorIdx = -1
	anchorTime = int64(1) << 62
	for i := range s.procs {
		t := int64(0) // no RP yet: the process start anchors at time zero
		rpIdx := -1
		if idx := latestInList(cands[i], func(cp *Checkpoint) bool { return cp.Kind == KindRP }); idx >= 0 {
			t = cands[i][idx].Time
			rpIdx = cands[i][idx].RPIndex
		}
		if t < anchorTime {
			anchorTime = t
			anchorIdx = rpIdx
			owner = i
		}
	}
	return owner, anchorIdx, anchorTime
}

// purgeForNewRP applies the Section 4 purging rule when proc saved a new
// recovery point: older own RPs and the PRPs they anchored elsewhere are
// reclaimable once the newer pseudo recovery lines exist. We retain the two
// most recent generations, so the cut search can still fall back one
// generation when the newest line is inconsistent.
func (s *System) purgeForNewRP(p *Process) {
	keepFrom := p.rpCount - 2 // rpCount was already advanced past the new RP
	if keepFrom < 0 {
		return
	}
	for i, cp := range p.checkpoints {
		if cp.Kind == KindRP && cp.RPIndex < keepFrom {
			p.purgeCheckpoint(i)
		}
	}
	for _, q := range s.procs {
		if q.id == p.id {
			continue
		}
		for i, cp := range q.checkpoints {
			if cp.Kind == KindPRP && cp.Anchor.Owner == p.id && cp.Anchor.Index < keepFrom {
				q.purgeCheckpoint(i)
			}
		}
	}
}

// latestInList returns the largest index in cands whose checkpoint satisfies
// pred, or -1 when none does.
func latestInList(cands []*Checkpoint, pred func(*Checkpoint) bool) int {
	for i := len(cands) - 1; i >= 0; i-- {
		if pred(cands[i]) {
			return i
		}
	}
	return -1
}

// clampIndex maps "not found" to the start checkpoint.
func clampIndex(i int) int {
	if i < 0 {
		return 0
	}
	return i
}

// previousNonPRP returns the newest non-PRP candidate strictly older than
// index idx (falling back to 0, the start checkpoint).
func previousNonPRP(cands []*Checkpoint, idx int) int {
	for i := idx - 1; i >= 0; i-- {
		if cands[i].Kind != KindPRP {
			return i
		}
	}
	return 0
}

// latestAtOrBefore returns the newest candidate with Time ≤ t (preferring
// PRPs and RPs over nothing; index 0 — the start — as a last resort).
func latestAtOrBefore(cands []*Checkpoint, t int64) int {
	for i := len(cands) - 1; i >= 0; i-- {
		if cands[i].Time <= t {
			return i
		}
	}
	return 0
}
