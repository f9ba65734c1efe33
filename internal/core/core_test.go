package core

import (
	"errors"
	"strings"
	"testing"
)

// runSys builds and runs a system, failing the test on setup errors.
func runSys(t *testing.T, cfg Config, progs []Program, states []State) (Metrics, error) {
	t.Helper()
	sys, err := New(cfg, progs, states)
	if err != nil {
		t.Fatal(err)
	}
	return sys.Run()
}

func counterState(v int64) State { return &Counter{V: v} }

// addWork returns a WorkFn incrementing the counter state by d.
func addWork(d int64) WorkFn {
	return func(c *Ctx) { c.State.(*Counter).V += d }
}

func TestSingleProcessPlainRun(t *testing.T) {
	prog := NewBuilder().
		Work("a", addWork(1)).
		Work("b", addWork(10)).
		MustBuild()
	sys, err := New(Config{}, []Program{prog}, []State{counterState(0)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.procs[0].state.(*Counter).V; got != 11 {
		t.Fatalf("final state = %d, want 11", got)
	}
	if m.Procs[0].WorkDone != 2 {
		t.Fatalf("work done = %d", m.Procs[0].WorkDone)
	}
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewBuilder().BeginBlock("b", 1).Build(); err == nil {
		t.Fatal("unclosed block accepted")
	}
	if _, err := NewBuilder().EndBlock("e", func(*Ctx) bool { return true }).Build(); err == nil {
		t.Fatal("dangling EndBlock accepted")
	}
	if _, err := NewBuilder().BeginBlock("b", 0).Build(); err == nil {
		t.Fatal("zero alternates accepted")
	}
	if _, err := NewBuilder().Work("w", nil).Build(); err == nil {
		t.Fatal("nil work fn accepted")
	}
}

func TestNewValidation(t *testing.T) {
	prog := NewBuilder().Work("w", addWork(1)).MustBuild()
	if _, err := New(Config{}, nil, nil); err == nil {
		t.Fatal("accepted zero processes")
	}
	if _, err := New(Config{}, []Program{prog}, []State{}); err == nil {
		t.Fatal("accepted mismatched states")
	}
	if _, err := New(Config{}, []Program{prog}, []State{nil}); err == nil {
		t.Fatal("accepted nil state")
	}
}

func TestMessagePassing(t *testing.T) {
	// P0 computes and sends; P1 receives and accumulates.
	p0 := NewBuilder().
		Work("compute", addWork(5)).
		Send(1, "tell", func(c *Ctx) Value { return c.State.(*Counter).V }).
		MustBuild()
	p1 := NewBuilder().
		Recv(0, "hear", func(c *Ctx, v Value) { c.State.(*Counter).V += v.(int64) }).
		MustBuild()
	sys, err := New(Config{}, []Program{p0, p1}, []State{counterState(0), counterState(100)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.procs[1].state.(*Counter).V; got != 105 {
		t.Fatalf("receiver state = %d, want 105", got)
	}
	if m.MessagesSent != 1 || m.Procs[1].MessagesReceived != 1 {
		t.Fatalf("message accounting wrong: %+v", m)
	}
}

func TestFIFOOrderAcrossManyMessages(t *testing.T) {
	const k = 50
	b0 := NewBuilder()
	for i := 0; i < k; i++ {
		i := i
		b0.Send(1, "m", func(c *Ctx) Value { return int64(i) })
	}
	b1 := NewBuilder()
	for i := 0; i < k; i++ {
		b1.Recv(0, "m", func(c *Ctx, v Value) {
			// Encode order violations as a poisoned counter.
			st := c.State.(*Counter)
			if v.(int64) != st.V {
				st.V = -1 << 40
			} else {
				st.V++
			}
		})
	}
	sys, err := New(Config{}, []Program{b0.MustBuild(), b1.MustBuild()},
		[]State{counterState(0), counterState(0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got := sys.procs[1].state.(*Counter).V; got != k {
		t.Fatalf("FIFO violated: final %d, want %d", got, k)
	}
}

func TestRecoveryBlockPrimaryPasses(t *testing.T) {
	prog := NewBuilder().
		BeginBlock("blk", 2).
		Work("w", addWork(7)).
		EndBlock("blk", func(c *Ctx) bool { return c.State.(*Counter).V == 7 }).
		MustBuild()
	sys, err := New(Config{}, []Program{prog}, []State{counterState(0)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Procs[0].RPsSaved != 1 || m.Procs[0].ATFailures != 0 || m.Recoveries != 0 {
		t.Fatalf("unexpected metrics: %+v", m.Procs[0])
	}
}

func TestRecoveryBlockAlternateRuns(t *testing.T) {
	// The primary (attempt 0) computes a wrong value; the acceptance test
	// rejects it; the alternate (attempt 1) fixes it. Classic
	// "ensure AT by primary else by alternate".
	prog := NewBuilder().
		BeginBlock("blk", 2).
		Work("algo", func(c *Ctx) {
			if c.Attempt == 0 {
				c.State.(*Counter).V = 13 // wrong answer
			} else {
				c.State.(*Counter).V = 42
			}
		}).
		EndBlock("blk", func(c *Ctx) bool { return c.State.(*Counter).V == 42 }).
		MustBuild()
	sys, err := New(Config{}, []Program{prog}, []State{counterState(0)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.procs[0].state.(*Counter).V; got != 42 {
		t.Fatalf("final = %d, want 42 (alternate result)", got)
	}
	if m.Procs[0].ATFailures != 1 || m.Procs[0].Rollbacks != 1 {
		t.Fatalf("AT failures %d rollbacks %d, want 1 and 1",
			m.Procs[0].ATFailures, m.Procs[0].Rollbacks)
	}
	if m.Procs[0].WorkDiscarded != 1 {
		t.Fatalf("work discarded = %d, want 1", m.Procs[0].WorkDiscarded)
	}
}

func TestRecoveryBlockStateRestoredBetweenAlternates(t *testing.T) {
	// The failing primary corrupts state; the alternate must see the
	// checkpointed (pre-block) state, not the corruption.
	prog := NewBuilder().
		Work("init", func(c *Ctx) { c.State.(*Counter).V = 1000 }).
		BeginBlock("blk", 2).
		Work("algo", func(c *Ctx) {
			st := c.State.(*Counter)
			if c.Attempt == 0 {
				st.V = -999 // corrupt
			} else {
				st.V += 1 // alternate sees restored 1000
			}
		}).
		EndBlock("blk", func(c *Ctx) bool { return c.State.(*Counter).V == 1001 }).
		MustBuild()
	sys, err := New(Config{}, []Program{prog}, []State{counterState(0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got := sys.procs[0].state.(*Counter).V; got != 1001 {
		t.Fatalf("final = %d, want 1001 (alternate on restored state)", got)
	}
}

func TestExhaustedAlternatesEscalate(t *testing.T) {
	// Both alternates fail; the block escalates past its own RP to the
	// process start, where re-execution (fresh attempt counters) tries the
	// primary again — and the AT plan only forces two failures, so the third
	// evaluation passes.
	prog := NewBuilder().
		Work("pre", addWork(1)).
		BeginBlock("blk", 2).
		Work("algo", addWork(10)).
		EndBlock("blk", func(c *Ctx) bool { return true }). // would pass, but the plan overrides
		MustBuild()
	at := NewATPlan(ATOverride{Proc: 0, PC: 3, Fails: 2})
	sys, err := New(Config{ATs: at}, []Program{prog}, []State{counterState(0)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.procs[0].state.(*Counter).V; got != 11 {
		t.Fatalf("final = %d, want 11", got)
	}
	if m.Procs[0].ATFailures != 2 {
		t.Fatalf("AT failures = %d, want 2", m.Procs[0].ATFailures)
	}
	if sys.exhaustions != 1 {
		t.Fatalf("exhaustions = %d, want 1", sys.exhaustions)
	}
	if m.DominoToStart == 0 {
		t.Fatal("expected an escalation to the start checkpoint")
	}
}

func TestInjectedFaultRollsBackToRP(t *testing.T) {
	// A fault between RP and AT: the process restarts from the RP and the
	// re-execution succeeds (fault is one-shot).
	prog := NewBuilder().
		BeginBlock("blk", 1).
		Work("w1", addWork(1)).
		Work("w2", addWork(1)).
		EndBlock("blk", func(c *Ctx) bool { return c.State.(*Counter).V == 2 }).
		MustBuild()
	faults := NewFaultPlan(Fault{Proc: 0, PC: 2, Visit: 1, Kind: FaultLocal})
	sys, err := New(Config{Faults: faults}, []Program{prog}, []State{counterState(0)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.procs[0].state.(*Counter).V; got != 2 {
		t.Fatalf("final = %d, want 2", got)
	}
	if m.Procs[0].Rollbacks != 1 || m.Recoveries != 1 {
		t.Fatalf("rollbacks %d recoveries %d", m.Procs[0].Rollbacks, m.Recoveries)
	}
	// One work unit (w1) was redone.
	if m.Procs[0].WorkDiscarded != 1 {
		t.Fatalf("discarded = %d, want 1", m.Procs[0].WorkDiscarded)
	}
}

func TestRollbackPropagationThroughMessage(t *testing.T) {
	// P0 checkpoints, sends to P1, waits for P1's acknowledgement, then
	// faults. The ack guarantees P1 consumed the message before the fault,
	// so restoring P0 to its RP (before the send) orphans it: P1 must roll
	// back too (rollback propagation, Section 1).
	p0 := NewBuilder().
		BeginBlock("b0", 1).
		Work("w", addWork(3)).
		Send(1, "m", func(c *Ctx) Value { return c.State.(*Counter).V }).
		Recv(1, "ack", func(*Ctx, Value) {}).
		Work("after", addWork(1)).
		EndBlock("b0", func(c *Ctx) bool { return true }).
		MustBuild()
	p1 := NewBuilder().
		Recv(0, "m", func(c *Ctx, v Value) { c.State.(*Counter).V += v.(int64) }).
		Send(0, "ack", func(*Ctx) Value { return int64(0) }).
		Work("use", addWork(100)).
		MustBuild()
	faults := NewFaultPlan(Fault{Proc: 0, PC: 4, Visit: 1, Kind: FaultLocal})
	sys, err := New(Config{Faults: faults}, []Program{p0, p1},
		[]State{counterState(0), counterState(0)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Final values: deterministic re-execution reproduces the same message.
	if got := sys.procs[1].state.(*Counter).V; got != 103 {
		t.Fatalf("P1 final = %d, want 103", got)
	}
	if m.Procs[1].Rollbacks == 0 {
		t.Fatal("P1 should have been rolled back by propagation")
	}
	if m.MessagesPurged == 0 {
		t.Fatal("the orphaned message should have been purged")
	}
}

func TestNoPropagationWithoutMessages(t *testing.T) {
	// Independent processes: a fault in P0 must not touch P1.
	p0 := NewBuilder().
		BeginBlock("b", 1).
		Work("w", addWork(1)).
		EndBlock("b", func(*Ctx) bool { return true }).
		MustBuild()
	p1 := NewBuilder().
		Work("w1", addWork(1)).
		Work("w2", addWork(1)).
		MustBuild()
	faults := NewFaultPlan(Fault{Proc: 0, PC: 1, Visit: 1, Kind: FaultLocal})
	sys, err := New(Config{Faults: faults}, []Program{p0, p1},
		[]State{counterState(0), counterState(0)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Procs[1].Rollbacks != 0 {
		t.Fatalf("P1 rolled back %d times; expected isolation", m.Procs[1].Rollbacks)
	}
}

func TestDominoEffectToStart(t *testing.T) {
	// Figure 1's scenario in miniature: checkpoints interleaved with
	// messages such that no recovery line exists except the start.
	// P0: RP, send, recv, fault  — its RP is invalidated by the recv.
	// P1: recv, RP, send         — its RP is invalidated by P0's rollback.
	p0 := NewBuilder().
		BeginBlock("rp0", 1).
		Work("w", addWork(1)).
		Send(1, "a", func(c *Ctx) Value { return int64(1) }).
		Recv(1, "b", func(c *Ctx, v Value) { c.State.(*Counter).V += v.(int64) }).
		Work("after", addWork(1)).
		EndBlock("rp0", func(*Ctx) bool { return true }).
		MustBuild()
	p1 := NewBuilder().
		Recv(0, "a", func(c *Ctx, v Value) { c.State.(*Counter).V += v.(int64) }).
		BeginBlock("rp1", 1).
		Work("w", addWork(1)).
		Send(0, "b", func(c *Ctx) Value { return int64(2) }).
		Work("tail", addWork(1)).
		EndBlock("rp1", func(*Ctx) bool { return true }).
		MustBuild()
	// Fault strikes P0 after it consumed P1's message.
	faults := NewFaultPlan(Fault{Proc: 0, PC: 4, Visit: 1, Kind: FaultLocal})
	sys, err := New(Config{Faults: faults}, []Program{p0, p1},
		[]State{counterState(0), counterState(0)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	// P0 restores to rp0 (before its send)? No: rp0 precedes the send, so
	// P0's own RP is consistent for edge 0→1 only if P1 re-receives. P1's
	// rp1 has consumed "a", which P0 (restored before sending "a") orphans →
	// P1 falls to start; P1's fall orphans nothing at P0's rp0 (recv "b"
	// happened after rp0... but P0 restores to rp0 which precedes its recv,
	// consistent). The net effect must be a consistent cut; the invariant
	// checked here is global consistency and completion, plus that P1 was
	// dragged below its own RP (true domino propagation).
	if m.Procs[1].Rollbacks == 0 {
		t.Fatal("domino should have reached P1")
	}
	if got := sys.procs[0].state.(*Counter).V; got != 4 {
		t.Fatalf("P0 final = %d, want 4", got)
	}
	if got := sys.procs[1].state.(*Counter).V; got != 3 {
		t.Fatalf("P1 final = %d, want 3", got)
	}
}

func TestConversationFormsLineAndCompletes(t *testing.T) {
	mk := func(id int) Program {
		return NewBuilder().
			Work("pre", addWork(1)).
			Conversation("sync1", func(*Ctx) bool { return true }).
			Work("post", addWork(1)).
			MustBuild()
	}
	sys, err := New(Config{}, []Program{mk(0), mk(1), mk(2)},
		[]State{counterState(0), counterState(0), counterState(0)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Procs {
		if m.Procs[i].ConversationsSaved != 1 {
			t.Fatalf("P%d conversations = %d", i, m.Procs[i].ConversationsSaved)
		}
		if got := sys.procs[i].state.(*Counter).V; got != 2 {
			t.Fatalf("P%d final = %d", i, got)
		}
	}
}

func TestConversationATFailureRollsAllBack(t *testing.T) {
	mk := func() Program {
		return NewBuilder().
			Work("pre", addWork(1)).
			Conversation("sync1", func(*Ctx) bool { return true }).
			Work("post", addWork(1)).
			MustBuild()
	}
	// Force P1's conversation AT to fail once (pc 1 = the conversation).
	at := NewATPlan(ATOverride{Proc: 1, PC: 1, Fails: 1})
	sys, err := New(Config{ATs: at}, []Program{mk(), mk(), mk()},
		[]State{counterState(0), counterState(0), counterState(0)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", m.Recoveries)
	}
	for i := range m.Procs {
		if m.Procs[i].Rollbacks != 1 {
			t.Fatalf("P%d rollbacks = %d, want 1 (all participants roll back)", i, m.Procs[i].Rollbacks)
		}
		if got := sys.procs[i].state.(*Counter).V; got != 2 {
			t.Fatalf("P%d final = %d, want 2", i, got)
		}
	}
}

func TestConversationBoundsRollback(t *testing.T) {
	// A fault after a conversation must not roll anyone behind the line.
	mk := func(faulty bool) Program {
		b := NewBuilder().
			Work("pre", addWork(1)).
			Conversation("line", func(*Ctx) bool { return true }).
			BeginBlock("blk", 1).
			Work("post", addWork(1)).
			EndBlock("blk", func(*Ctx) bool { return true })
		return b.MustBuild()
	}
	faults := NewFaultPlan(Fault{Proc: 0, PC: 3, Visit: 1, Kind: FaultLocal})
	sys, err := New(Config{Faults: faults}, []Program{mk(true), mk(false)},
		[]State{counterState(0), counterState(0)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	// P0's WorkDiscarded must be at most the post-line work (1 unit), and
	// the pre-line unit must never be redone.
	if m.Procs[0].WorkDiscarded > 1 {
		t.Fatalf("rollback crossed the conversation line: discarded %d", m.Procs[0].WorkDiscarded)
	}
	if m.Procs[1].Rollbacks != 0 {
		t.Fatalf("P1 rolled back needlessly")
	}
}

func TestPRPImplantation(t *testing.T) {
	// Under StrategyPRP every RP of P0 implants a PRP in P1 and P2.
	p0 := NewBuilder().
		BeginBlock("b", 1).
		Work("w", addWork(1)).
		EndBlock("b", func(*Ctx) bool { return true }).
		Work("tail", addWork(1)).
		MustBuild()
	busy := func() Program {
		return NewBuilder().
			Work("w1", addWork(1)).
			Work("w2", addWork(1)).
			Work("w3", addWork(1)).
			MustBuild()
	}
	sys, err := New(Config{Strategy: StrategyPRP}, []Program{p0, busy(), busy()},
		[]State{counterState(0), counterState(0), counterState(0)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Procs[1].PRPsSaved != 1 || m.Procs[2].PRPsSaved != 1 {
		t.Fatalf("PRPs saved = %d, %d; want 1 each", m.Procs[1].PRPsSaved, m.Procs[2].PRPsSaved)
	}
	if m.TotalPRPs() != 2 {
		t.Fatalf("total PRPs = %d", m.TotalPRPs())
	}
}

func TestPRPBoundsPropagatedRollback(t *testing.T) {
	// Two communicating processes; a propagated fault under PRP restores to
	// the pseudo recovery line anchored at the oldest latest-RP, NOT to the
	// process start — even though the message pattern would domino the
	// asynchronous strategy to the beginning.
	mkSender := func() Program {
		b := NewBuilder()
		for i := 0; i < 4; i++ {
			b.BeginBlock("b", 1).
				Work("w", addWork(1)).
				EndBlock("b", func(*Ctx) bool { return true }).
				Send(1, "m", func(c *Ctx) Value { return c.State.(*Counter).V })
		}
		b.Work("tail", addWork(1))
		return b.MustBuild()
	}
	mkReceiver := func() Program {
		b := NewBuilder()
		for i := 0; i < 4; i++ {
			b.Recv(0, "m", func(c *Ctx, v Value) { c.State.(*Counter).V = v.(int64) }).
				BeginBlock("rb", 1).
				Work("use", addWork(0)).
				EndBlock("rb", func(*Ctx) bool { return true })
		}
		b.Work("tail2", addWork(1))
		return b.MustBuild()
	}
	// Propagated fault late in the receiver.
	faults := NewFaultPlan(Fault{Proc: 1, PC: 16, Visit: 1, Kind: FaultPropagated})
	sys, err := New(Config{Strategy: StrategyPRP, Faults: faults},
		[]Program{mkSender(), mkReceiver()},
		[]State{counterState(0), counterState(0)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.DominoToStart != 0 {
		t.Fatalf("PRP strategy hit the start checkpoint %d times", m.DominoToStart)
	}
	if m.Procs[0].Rollbacks == 0 && m.Procs[1].Rollbacks == 0 {
		t.Fatal("the propagated fault caused no rollback at all")
	}
	// Everyone completes with correct final values.
	if got := sys.procs[1].state.(*Counter).V; got != 5 {
		t.Fatalf("receiver final = %d, want 5", got)
	}
}

func TestPRPPurgingBoundsStorage(t *testing.T) {
	// Many RPs in sequence: purging must keep the live checkpoint count
	// bounded (≈ 2 generations of lines) rather than linear in RPs.
	const blocks = 20
	mk := func() Program {
		b := NewBuilder()
		for i := 0; i < blocks; i++ {
			b.BeginBlock("b", 1).
				Work("w", addWork(1)).
				EndBlock("b", func(*Ctx) bool { return true })
		}
		return b.MustBuild()
	}
	sys, err := New(Config{Strategy: StrategyPRP}, []Program{mk(), mk(), mk()},
		[]State{counterState(0), counterState(0), counterState(0)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, ps := range m.Procs {
		if ps.RPsSaved != blocks {
			t.Fatalf("P%d RPs = %d, want %d", i, ps.RPsSaved, blocks)
		}
		if ps.CheckpointsPurged == 0 {
			t.Fatalf("P%d purged nothing", i)
		}
		// Live bound: own 2 RPs + 2 PRPs per other process + start, with
		// slack for in-flight implantation.
		bound := 2 + 2*2 + 1 + 6
		if live := sys.procs[i].liveCheckpoints(); live > bound {
			t.Fatalf("P%d live checkpoints = %d, want ≤ %d", i, live, bound)
		}
	}
}

func TestAsyncKeepsAllCheckpoints(t *testing.T) {
	mk := func() Program {
		b := NewBuilder()
		for i := 0; i < 10; i++ {
			b.BeginBlock("b", 1).Work("w", addWork(1)).EndBlock("b", func(*Ctx) bool { return true })
		}
		return b.MustBuild()
	}
	sys, err := New(Config{Strategy: StrategyAsync}, []Program{mk()}, []State{counterState(0)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Procs[0].CheckpointsPurged != 0 {
		t.Fatal("async strategy must not purge")
	}
	if live := sys.procs[0].liveCheckpoints(); live != 11 { // 10 RPs + start
		t.Fatalf("live checkpoints = %d, want 11", live)
	}
}

func TestDeterministicReplayAfterRollback(t *testing.T) {
	// A work step drawing from ctx.Rng must produce the same value when
	// re-executed after a rollback (same seed, proc, pc).
	prog := NewBuilder().
		BeginBlock("b", 1).
		Work("draw", func(c *Ctx) { c.State.(*Counter).V = int64(c.Rng.Intn(1 << 30)) }).
		Work("mark", addWork(0)).
		EndBlock("b", func(*Ctx) bool { return true }).
		MustBuild()
	run := func(faults *FaultPlan) int64 {
		sys, err := New(Config{Seed: 5, Faults: faults}, []Program{prog}, []State{counterState(0)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return sys.procs[0].state.(*Counter).V
	}
	clean := run(nil)
	faulted := run(NewFaultPlan(Fault{Proc: 0, PC: 2, Visit: 1, Kind: FaultLocal}))
	if clean != faulted {
		t.Fatalf("replay diverged: clean %d vs faulted %d", clean, faulted)
	}
}

func TestRunTwiceRejected(t *testing.T) {
	prog := NewBuilder().Work("w", addWork(1)).MustBuild()
	sys, err := New(Config{}, []Program{prog}, []State{counterState(0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestDeadlockOnStuckRecv(t *testing.T) {
	// A Recv with no matching sender must end the run with ErrDeadlock, not
	// hang.
	prog := NewBuilder().
		Recv(0+1, "never", func(*Ctx, Value) {}).
		MustBuild()
	idle := NewBuilder().Work("w", addWork(1)).MustBuild()
	sys, err := New(Config{},
		[]Program{prog, idle}, []State{counterState(0), counterState(0)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if want := `process 0 at step 0 (Recv "never" from process 1)`; !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to name %s", err, want)
	}
}

func TestDeadlockOnMissedConversation(t *testing.T) {
	// P0 and P1 wait at a test line that P2 never reaches: no process can
	// run, and the error names the two waiters.
	line := func() Program {
		return NewBuilder().
			Work("pre", addWork(1)).
			Conversation("line", func(*Ctx) bool { return true }).
			MustBuild()
	}
	skip := NewBuilder().Work("w", addWork(1)).MustBuild()
	sys, err := New(Config{}, []Program{line(), line(), skip},
		[]State{counterState(0), counterState(0), counterState(0)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	for _, want := range []string{
		`process 0 at step 1 (Conversation "line")`,
		`process 1 at step 1 (Conversation "line")`,
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want it to name %s", err, want)
		}
	}
	if strings.Contains(err.Error(), "process 2") {
		t.Errorf("err = %v names the finished process", err)
	}
	if m.Procs[0].ConversationsSaved != 0 {
		t.Fatal("a line committed without every participant")
	}
}

func TestRecoveryLimit(t *testing.T) {
	// A fault that refires forever must stop at MaxRecoveries.
	prog := NewBuilder().
		BeginBlock("b", 1).
		Work("w", addWork(1)).
		EndBlock("b", func(*Ctx) bool { return true }).
		MustBuild()
	var faults []Fault
	for v := 1; v <= 100; v++ {
		faults = append(faults, Fault{Proc: 0, PC: 1, Visit: v, Kind: FaultLocal})
	}
	sys, err := New(Config{Faults: NewFaultPlan(faults...), MaxRecoveries: 5},
		[]Program{prog}, []State{counterState(0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != ErrUnrecoverable {
		t.Fatalf("err = %v, want ErrUnrecoverable", err)
	}
}

func TestManyProcessesStress(t *testing.T) {
	// A ring of processes passing tokens with blocks and faults: exercises
	// concurrency, propagation and conversation machinery together.
	const n = 6
	progs := make([]Program, n)
	states := make([]State, n)
	for i := 0; i < n; i++ {
		next := (i + 1) % n
		prev := (i - 1 + n) % n
		b := NewBuilder().
			BeginBlock("b", 1).
			Work("w", addWork(1)).
			EndBlock("b", func(*Ctx) bool { return true }).
			Send(next, "tok", func(c *Ctx) Value { return c.State.(*Counter).V })
		b.Recv(prev, "tok", func(c *Ctx, v Value) { c.State.(*Counter).V += v.(int64) }).
			Conversation("mid", func(*Ctx) bool { return true }).
			Work("tail", addWork(1))
		progs[i] = b.MustBuild()
		states[i] = counterState(0)
	}
	faults := NewFaultPlan(
		Fault{Proc: 2, PC: 5, Visit: 1, Kind: FaultLocal},
		Fault{Proc: 4, PC: 6, Visit: 1, Kind: FaultLocal},
	)
	sys, err := New(Config{Faults: faults}, progs, states)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Procs {
		if got := sys.procs[i].state.(*Counter).V; got != 3 {
			t.Fatalf("P%d final = %d, want 3", i, got)
		}
	}
	if m.Recoveries < 2 {
		t.Fatalf("recoveries = %d, want ≥ 2", m.Recoveries)
	}
}

func TestFindRecoveryLineUnit(t *testing.T) {
	// Two processes, cursors by hand:
	// P0 checkpoints: start(0,0) cp1(send=1) ; P1: start, cp1(recv=1).
	cands := [][]CutCandidate{
		{
			{SendSeq: []int{0, 0}, RecvSeq: []int{0, 0}},
			{SendSeq: []int{0, 1}, RecvSeq: []int{0, 0}},
		},
		{
			{SendSeq: []int{0, 0}, RecvSeq: []int{0, 0}},
			{SendSeq: []int{0, 0}, RecvSeq: []int{1, 0}},
		},
	}
	// Both at latest: P1 consumed 1 from P0, P0 sent 1 → consistent.
	cut := findRecoveryLine(cands, []int{1, 1})
	if cut[0] != 1 || cut[1] != 1 {
		t.Fatalf("cut = %v, want [1 1]", cut)
	}
	// Force P0 down to start: P1's cp1 recv=1 > send=0 → P1 must fall too.
	cut = findRecoveryLine(cands, []int{0, 1})
	if cut[0] != 0 || cut[1] != 0 {
		t.Fatalf("cut = %v, want [0 0] (propagation)", cut)
	}
	if !cutConsistent(cands, cut) {
		t.Fatal("returned cut inconsistent")
	}
}

func TestFindRecoveryLineNoFalsePropagation(t *testing.T) {
	// Messages flowing the other way (P0 consumed from P1) must not force
	// P1 down when P0 rolls back.
	cands := [][]CutCandidate{
		{
			{SendSeq: []int{0, 0}, RecvSeq: []int{0, 0}},
			{SendSeq: []int{0, 0}, RecvSeq: []int{0, 1}},
		},
		{
			{SendSeq: []int{0, 0}, RecvSeq: []int{0, 0}},
			{SendSeq: []int{1, 0}, RecvSeq: []int{0, 0}},
		},
	}
	cut := findRecoveryLine(cands, []int{0, 1})
	if cut[1] != 1 {
		t.Fatalf("P1 dragged down needlessly: cut = %v", cut)
	}
}

func TestCheckpointKindString(t *testing.T) {
	kinds := map[CheckpointKind]string{
		KindStart: "start", KindRP: "RP", KindPRP: "PRP", KindConversation: "conversation",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Fatalf("%v.String() = %q", int(k), k.String())
		}
	}
	if StrategyAsync.String() != "asynchronous" || StrategyPRP.String() != "pseudo-recovery-points" {
		t.Fatal("strategy names wrong")
	}
}

func TestFaultPlanVisitCounting(t *testing.T) {
	f := NewFaultPlan(Fault{Proc: 0, PC: 3, Visit: 2, Kind: FaultLocal})
	if _, ok := f.fire(0, 3); ok {
		t.Fatal("fired on first visit, want second")
	}
	if kind, ok := f.fire(0, 3); !ok || kind != FaultLocal {
		t.Fatal("did not fire on second visit")
	}
	if _, ok := f.fire(0, 3); ok {
		t.Fatal("fired a third time")
	}
	if _, ok := (*FaultPlan)(nil).fire(0, 0); ok {
		t.Fatal("nil plan fired")
	}
}

func TestATPlanCounts(t *testing.T) {
	a := NewATPlan(ATOverride{Proc: 1, PC: 2, Fails: 2})
	if !a.forceFail(1, 2) || !a.forceFail(1, 2) {
		t.Fatal("first two evaluations should fail")
	}
	if a.forceFail(1, 2) {
		t.Fatal("third evaluation should pass")
	}
	if a.forceFail(0, 2) {
		t.Fatal("wrong process failed")
	}
	if (*ATPlan)(nil).forceFail(0, 0) {
		t.Fatal("nil plan failed an AT")
	}
}
