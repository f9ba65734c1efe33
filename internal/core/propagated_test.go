package core

import "testing"

// TestAsyncPropagatedRestartsFromLine: under the asynchronous strategy a
// propagated error must push the whole system back to a recovery line —
// the victim's own latest RP alone is not trustworthy (Section 2
// semantics), so BOTH processes roll back, landing on a consistent cut.
// Note the subtlety this test documents: in this lockstep ping-pong the
// latest RPs of the two processes DO form a recovery line (each RP precedes
// its round's send, and the in-transit message is logged and replayed), so
// rollback is bounded even without PRPs — sandwiching needs less convenient
// interleavings, which the stochastic model in internal/sim provides.
func TestAsyncPropagatedRestartsFromLine(t *testing.T) {
	mk := func(id int) Program {
		peer := 1 - id
		b := NewBuilder()
		for r := 0; r < 3; r++ {
			b.BeginBlock("b", 1).
				Work("w", addWork(1)).
				EndBlock("b", func(*Ctx) bool { return true }).
				Send(peer, "x", func(c *Ctx) Value { return c.State.(*Counter).V })
			b.Recv(peer, "x", func(c *Ctx, v Value) { c.State.(*Counter).V += v.(int64) })
		}
		b.Work("tail", addWork(1))
		return b.MustBuild()
	}
	// The propagated fault strikes P1 at the tail (pc 15 after 3 rounds of
	// 5 steps).
	faults := NewFaultPlan(Fault{Proc: 1, PC: 15, Visit: 1, Kind: FaultPropagated})
	sys, err := New(Config{Strategy: StrategyAsync, Faults: faults},
		[]Program{mk(0), mk(1)}, []State{counterState(0), counterState(0)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Both processes must roll back: restarting from a line involves both
	// sides, unlike a local error where the peer keeps running.
	if m.Procs[0].Rollbacks == 0 || m.Procs[1].Rollbacks == 0 {
		t.Fatalf("both processes must roll back from a propagated error: %+v", m.Procs)
	}
	// Deterministic replay still finishes with the right values; the two
	// symmetric processes must agree.
	a := sys.procs[0].state.(*Counter).V
	b := sys.procs[1].state.(*Counter).V
	if a != b {
		t.Fatalf("symmetric processes diverged: %d vs %d", a, b)
	}
}

// TestPRPPropagatedBoundedByAnchorGeneration: the PRP pointer algorithm
// restores to the pseudo recovery line anchored at the oldest latest-RP.
// With per-round recovery points that is at most about one round of work per
// process — the Section 4 bound — regardless of how long the run is.
func TestPRPPropagatedBoundedByAnchorGeneration(t *testing.T) {
	const rounds = 8
	mk := func(id int) Program {
		peer := 1 - id
		b := NewBuilder()
		for r := 0; r < rounds; r++ {
			b.BeginBlock("b", 1).
				Work("w", addWork(1)).
				EndBlock("b", func(*Ctx) bool { return true }).
				Send(peer, "x", func(c *Ctx) Value { return int64(1) }).
				Recv(peer, "x", func(c *Ctx, v Value) {})
		}
		b.Work("tail", addWork(1))
		return b.MustBuild()
	}
	faults := NewFaultPlan(Fault{Proc: 1, PC: 5 * rounds, Visit: 1, Kind: FaultPropagated})
	sys, err := New(Config{Strategy: StrategyPRP, Faults: faults},
		[]Program{mk(0), mk(1)}, []State{counterState(0), counterState(0)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.DominoToStart != 0 {
		t.Fatal("PRP rollback reached the start")
	}
	if m.TotalWorkDiscarded() == 0 {
		t.Fatal("a propagated fault must discard some work")
	}
	// Bound: the anchor is at worst two RP generations old (the purge keeps
	// two), i.e. ≤ 2 work units per process here, 4 total — far below the
	// rounds*2 = 16 units a domino would cost.
	if m.TotalWorkDiscarded() > 4 {
		t.Fatalf("discarded %d units, beyond the pseudo-line bound", m.TotalWorkDiscarded())
	}
}
