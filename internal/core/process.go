package core

import (
	"fmt"

	"recoveryblocks/internal/dist"
	"recoveryblocks/internal/trace"
)

// Process is one concurrent process: a straight-line program of work,
// message and recovery-block steps against private state. System.Run steps
// it in turn with the others.
type Process struct {
	id   int
	sys  *System
	prog Program

	// Execution position, rewritten by every restore.
	state    State
	pc       int
	sendSeq  []int
	recvSeq  []int
	workDone int

	atLine    bool // ready flag set at the Conversation step at pc
	lineSince int  // System.steps when the ready flag was set

	checkpoints []*Checkpoint
	attempts    map[int]int // BeginBlock pc → attempt counter
	rpCount     int         // running index of proper RPs (anchors PRPs)

	stats ProcStats
}

// mix64 derives a per-(seed, proc, pc) RNG seed, SplitMix64-style, so that
// re-executing a step after rollback replays the identical variate sequence
// (deterministic re-execution keeps regenerated messages consistent).
func mix64(seed int64, proc, pc int) int64 {
	z := uint64(seed) ^ uint64(proc)*0x9e3779b97f4a7c15 ^ uint64(pc)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// ctx builds the user-function context for the current step. attempt is the
// attempt counter of the innermost enclosing recovery block.
func (p *Process) ctx() *Ctx {
	attempt := 0
	if bp := p.sys.enclosing[p.id][p.pc]; bp >= 0 {
		attempt = p.attempts[bp]
	}
	return &Ctx{
		Self:    p.id,
		State:   p.state,
		Rng:     dist.NewStream(mix64(p.sys.opts.Seed, p.id, p.pc)),
		Attempt: attempt,
	}
}

// runnable reports whether p can take a step: it has not finished, is not
// waiting at a test line, and is not receiving on an empty edge.
func (p *Process) runnable() bool {
	if p.pc >= len(p.prog.steps) || p.atLine {
		return false
	}
	st := &p.prog.steps[p.pc]
	return st.kind != stepRecv || p.sys.router.available(st.peer, p.id, p.recvSeq[st.peer])
}

// step runs the step at p.pc. On success it advances the program counter;
// a failure is recovered before step returns.
func (p *Process) step() {
	s := p.sys
	s.steps++
	st := &p.prog.steps[p.pc]

	// Scheduled fault injection fires before the step body: the error is
	// detected "during normal execution" (Section 1) and triggers recovery.
	if kind, ok := s.faults.fire(p.id, p.pc); ok {
		if kind == FaultPropagated {
			s.emit(p.id, trace.EvFault, 0, "propagated from another process")
		} else {
			s.emit(p.id, trace.EvFault, 0, "local")
		}
		s.fail(failure{kind: failInjected, fault: kind, proc: p})
		return
	}

	switch st.kind {
	case stepWork:
		c := p.ctx()
		st.work(c)
		p.state = c.State
		p.workDone++
		p.stats.WorkDone++
	case stepSend:
		c := p.ctx()
		payload := st.payload(c)
		p.state = c.State
		s.router.send(p.id, st.peer, p.sendSeq[st.peer], payload, s.tick())
		s.emit(p.id, trace.EvSend, st.peer, st.name)
		p.sendSeq[st.peer]++
		p.stats.MessagesSent++
	case stepRecv:
		v := s.router.fetch(st.peer, p.id, p.recvSeq[st.peer])
		s.emit(p.id, trace.EvRecv, st.peer, st.name)
		p.recvSeq[st.peer]++
		p.stats.MessagesReceived++
		c := p.ctx()
		st.onRecv(c, v)
		p.state = c.State
	case stepBegin:
		p.saveRP()
	case stepEnd:
		if !p.passes(st) {
			s.fail(failure{kind: failAcceptance, beginPC: st.beginPC, proc: p})
			return
		}
	case stepConversation:
		p.arrive(st)
		return
	}
	p.pc++
}

// passes runs the acceptance test of step st against p's state, applies the
// AT plan, and records a rejection.
func (p *Process) passes(st *step) bool {
	c := p.ctx()
	ok := st.accept(c)
	p.state = c.State
	if p.sys.atplan.forceFail(p.id, p.pc) {
		ok = false
	}
	if !ok {
		p.stats.ATFailures++
		p.sys.emit(p.id, trace.EvATFail, 0, st.name)
	}
	return ok
}

// saveRP establishes a proper recovery point at a BeginBlock and, under the
// PRP strategy, implants a pseudo recovery point in every other process.
func (p *Process) saveRP() {
	s := p.sys
	cp := p.snapshot(KindRP)
	cp.PC = p.pc + 1 // restart position: just inside the block
	cp.RPIndex = p.rpCount
	p.rpCount++
	p.checkpoints = append(p.checkpoints, cp)
	p.stats.RPsSaved++
	s.emit(p.id, trace.EvRP, 0, p.prog.steps[p.pc].name)
	if s.opts.Strategy == StrategyPRP {
		s.purgeForNewRP(p)
		// Each other process "records its state as PRP upon the completion
		// of the current instruction without an acceptance test" (Section
		// 4, implantation step 2). No process is ever mid-instruction, so
		// that is now.
		anchor := Anchor{Owner: p.id, Index: cp.RPIndex}
		for _, q := range s.procs {
			if q != p {
				q.implantPRP(anchor)
			}
		}
	}
	p.updateLiveHighWater()
}

// implantPRP records p's current state as the pseudo recovery point
// PRP^{anchor}.
func (p *Process) implantPRP(anchor Anchor) {
	cp := p.snapshot(KindPRP)
	cp.Anchor = anchor
	p.checkpoints = append(p.checkpoints, cp)
	p.stats.PRPsSaved++
	p.sys.emit(p.id, trace.EvPRP, anchor.Owner,
		fmt.Sprintf("RP%d of P%d", anchor.Index+1, anchor.Owner+1))
	p.updateLiveHighWater()
}

func (p *Process) updateLiveHighWater() {
	if live := p.liveCheckpoints(); live > p.stats.MaxLiveCheckpoints {
		p.stats.MaxLiveCheckpoints = live
	}
}

// arrive implements steps 2–3 of the Section 3 protocol: p sets its ready
// flag at the test line of conversation st and waits for every other
// process's commitment. Conversations span all processes of the system;
// every program must contain the conversation steps in the same order. The
// arrival that completes the line runs step 4 for every participant.
func (p *Process) arrive(st *step) {
	s := p.sys
	p.atLine = true
	p.lineSince = s.steps
	for _, q := range s.procs {
		if !q.atLine || q.prog.steps[q.pc].name != st.name {
			return
		}
	}
	s.closeLine(st.name)
}

// closeLine runs every participant's acceptance test at the test line
// `name`, each against its own process's state. If all pass it records the
// line, a recovery line by construction, and every participant moves past
// it. Otherwise every participant rolls back to the previous recovery line.
func (s *System) closeLine(name string) {
	ok := true
	for _, q := range s.procs {
		if !q.passes(&q.prog.steps[q.pc]) {
			ok = false
		}
	}
	if !ok {
		s.fail(failure{kind: failConversation})
		return
	}
	s.leaveLines()
	for _, q := range s.procs {
		cp := q.snapshot(KindConversation)
		cp.PC = q.pc + 1
		q.checkpoints = append(q.checkpoints, cp)
		q.stats.ConversationsSaved++
		q.updateLiveHighWater()
		s.emit(q.id, trace.EvConversation, 0, name)
		q.pc++
	}
}

// leaveLines clears every ready flag, because the line committed or a
// recovery voided it, and charges each waiter the steps the others ran
// while it waited.
func (s *System) leaveLines() {
	for _, q := range s.procs {
		if q.atLine {
			q.stats.ConversationWait += s.steps - q.lineSince
			q.atLine = false
		}
	}
}
