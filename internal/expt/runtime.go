package expt

import (
	"fmt"
	"strings"

	"recoveryblocks/internal/core"
	"recoveryblocks/internal/trace"
)

// TraceResult is a runtime reproduction: a rendered history diagram plus the
// run metrics it produced.
type TraceResult struct {
	Title   string
	Diagram string
	Metrics core.Metrics
	Err     error
	// FinalStates records each process's final counter value for
	// verification by tests and examples.
	FinalStates []int64
}

// Format renders the trace with its legend and a metrics summary.
func (r *TraceResult) Format() string {
	var b strings.Builder
	b.WriteString(r.Title + "\n\n")
	b.WriteString(trace.Legend() + "\n\n")
	b.WriteString(r.Diagram)
	b.WriteString("\n")
	fmt.Fprintf(&b, "recoveries: %d   messages purged: %d   domino-to-start: %d\n",
		r.Metrics.Recoveries, r.Metrics.MessagesPurged, r.Metrics.DominoToStart)
	for i, ps := range r.Metrics.Procs {
		fmt.Fprintf(&b, "P%d: work %d (discarded %d), RPs %d, PRPs %d, conv %d, rollbacks %d, AT failures %d, conv wait %d\n",
			i+1, ps.WorkDone, ps.WorkDiscarded, ps.RPsSaved, ps.PRPsSaved,
			ps.ConversationsSaved, ps.Rollbacks, ps.ATFailures, ps.ConversationWait)
	}
	return b.String()
}

func counter(v int64) core.State { return &core.Counter{V: v} }

func add(d int64) core.WorkFn {
	return func(c *core.Ctx) { c.State.(*core.Counter).V += d }
}

func pass(*core.Ctx) bool { return true }

// Figure1Domino reproduces the Figure 1 scenario: three processes
// establishing recovery points interleaved with ring interactions; P1 fails
// its fourth acceptance test, and rollback propagates through the message
// log until the system restarts from the last recovery line (the paper's
// RL2) — not from the very beginning, and not from the invalidated later
// recovery points.
func Figure1Domino(seed int64) (*TraceResult, error) {
	const n = 3
	progs := make([]core.Program, n)
	states := make([]core.State, n)
	for i := 0; i < n; i++ {
		next := (i + 1) % n
		prev := (i + n - 1) % n
		b := core.NewBuilder().
			// Stage A: independent recovery blocks — their RPs form a
			// recovery line (no interactions cross them): the paper's RL2.
			BeginBlock(fmt.Sprintf("RP%d_A", i+1), 1).
			Work("stageA", add(1)).
			EndBlock(fmt.Sprintf("AT%d_A", i+1), pass).
			// Ring interactions that entangle the processes.
			Send(next, "ring1", func(c *core.Ctx) core.Value { return c.State.(*core.Counter).V }).
			Recv(prev, "ring1", func(c *core.Ctx, v core.Value) { c.State.(*core.Counter).V += v.(int64) }).
			// Stage B: more recovery points — each invalidated by the second
			// message round that crosses them.
			BeginBlock(fmt.Sprintf("RP%d_B", i+1), 1).
			Work("stageB", add(1)).
			EndBlock(fmt.Sprintf("AT%d_B", i+1), pass).
			Send(next, "ring2", func(c *core.Ctx) core.Value { return c.State.(*core.Counter).V }).
			Recv(prev, "ring2", func(c *core.Ctx, v core.Value) { c.State.(*core.Counter).V += v.(int64) })
		// Backward acknowledgement chain P3 → P2 → P1: P1 proceeds to its
		// failing stage only after every process has provably consumed the
		// ring2 message that its rollback will orphan — this is what makes
		// the propagation of Figure 1 deterministic rather than a race.
		switch i {
		case 2:
			b.Send(prev, "ack", func(*core.Ctx) core.Value { return int64(0) })
		case 1:
			b.Recv(next, "ack", func(*core.Ctx, core.Value) {}).
				Send(prev, "ack", func(*core.Ctx) core.Value { return int64(0) })
		case 0:
			// Stage C only in P1, whose acceptance test AT1_4 fails once.
			b.Recv(next, "ack", func(*core.Ctx, core.Value) {}).
				BeginBlock("RP1_C", 1).
				Work("stageC", add(1)).
				EndBlock("AT1_4", pass)
		}
		b.Work("tail", add(1))
		progs[i] = b.MustBuild()
		states[i] = counter(0)
	}
	// P1's final acceptance test fails on its first evaluation (pc 13 = the
	// EndBlock closing RP1_C, after the ack receive at pc 10).
	at := core.NewATPlan(core.ATOverride{Proc: 0, PC: 13, Fails: 1})
	sys, err := core.New(core.Config{
		Strategy: core.StrategyAsync,
		Seed:     seed,
		ATs:      at,
		Trace:    true,
	}, progs, states)
	if err != nil {
		return nil, err
	}
	m, runErr := sys.Run()
	res := &TraceResult{
		Title:   "Figure 1 — history diagram: P1 fails AT1_4; rollback propagates to the last recovery line",
		Diagram: sys.Trace().Render(),
		Metrics: m,
		Err:     runErr,
	}
	for _, st := range sys.FinalStates() {
		res.FinalStates = append(res.FinalStates, st.(*core.Counter).V)
	}
	return res, runErr
}

// Figure7SyncTrace reproduces Figure 7: processes reach their acceptance
// tests at different times after a synchronization request; each sets its
// ready flag and waits for the others' commitments; the recovery line forms
// at the common test line and the waiting is the computation loss CL.
func Figure7SyncTrace(seed int64) (*TraceResult, error) {
	const n = 3
	progs := make([]core.Program, n)
	states := make([]core.State, n)
	for i := 0; i < n; i++ {
		b := core.NewBuilder()
		// Different amounts of work before the test line: y_i differs, so
		// the earlier arrivals wait (the paper's y_i / Z picture).
		for k := 0; k <= 2*i; k++ {
			b.Work(fmt.Sprintf("y%d_%d", i+1, k), add(1))
		}
		b.Conversation("test-line-1", pass)
		for k := 0; k <= i; k++ {
			b.Work(fmt.Sprintf("z%d_%d", i+1, k), add(1))
		}
		b.Conversation("test-line-2", pass)
		progs[i] = b.MustBuild()
		states[i] = counter(0)
	}
	sys, err := core.New(core.Config{
		Strategy: core.StrategyAsync,
		Seed:     seed,
		Trace:    true,
	}, progs, states)
	if err != nil {
		return nil, err
	}
	m, runErr := sys.Run()
	res := &TraceResult{
		Title:   "Figure 7 — establishment of recovery lines upon synchronization requests",
		Diagram: sys.Trace().Render(),
		Metrics: m,
		Err:     runErr,
	}
	for _, st := range sys.FinalStates() {
		res.FinalStates = append(res.FinalStates, st.(*core.Counter).V)
	}
	return res, runErr
}

// Figure8PRPTrace reproduces Figure 8: every recovery point implants PRPs in
// the other processes; when P3 detects a propagated error at its acceptance
// test, the system restarts from the pseudo recovery line (RP, PRP, PRP) —
// bounded rollback without synchronization.
func Figure8PRPTrace(seed int64) (*TraceResult, error) {
	const n = 3
	progs := make([]core.Program, n)
	states := make([]core.State, n)
	for i := 0; i < n; i++ {
		next := (i + 1) % n
		prev := (i + n - 1) % n
		b := core.NewBuilder().
			BeginBlock(fmt.Sprintf("RP%d_1", i+1), 1).
			Work("round1", add(1)).
			EndBlock(fmt.Sprintf("AT%d_1", i+1), pass).
			Send(next, "m1", func(c *core.Ctx) core.Value { return c.State.(*core.Counter).V }).
			Recv(prev, "m1", func(c *core.Ctx, v core.Value) { c.State.(*core.Counter).V += v.(int64) }).
			BeginBlock(fmt.Sprintf("RP%d_2", i+1), 1).
			Work("round2", add(1)).
			EndBlock(fmt.Sprintf("AT%d_2", i+1), pass).
			Work("tail", add(1))
		progs[i] = b.MustBuild()
		states[i] = counter(0)
	}
	// P3 detects an error that propagated from another process right after
	// its second block's acceptance test position (pc 8 = the tail work).
	faults := core.NewFaultPlan(core.Fault{Proc: 2, PC: 8, Visit: 1, Kind: core.FaultPropagated})
	sys, err := core.New(core.Config{
		Strategy: core.StrategyPRP,
		Seed:     seed,
		Faults:   faults,
		Trace:    true,
	}, progs, states)
	if err != nil {
		return nil, err
	}
	m, runErr := sys.Run()
	res := &TraceResult{
		Title:   "Figure 8 — pseudo recovery points and the restart line after P3's failure",
		Diagram: sys.Trace().Render(),
		Metrics: m,
		Err:     runErr,
	}
	for _, st := range sys.FinalStates() {
		res.FinalStates = append(res.FinalStates, st.(*core.Counter).V)
	}
	return res, runErr
}
