package chaos

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"recoveryblocks/internal/guard"
	"recoveryblocks/internal/scenario"
	"recoveryblocks/internal/strategy"
)

// TestSolverFaultSweepDegradesEveryDraw is the solver-fault acceptance test:
// at the magnitude bound every perturbed advisement must ride the recovery
// blocks' last (Monte Carlo) rung — every draw degraded, zero crashes — while
// the clean baseline stays on its exact primary, the wide-margin ranking
// survives the sampling noise, and the knife-edge floor inflates to the
// stack's magnitude so flips there could never gate.
func TestSolverFaultSweepDegradesEveryDraw(t *testing.T) {
	stacks, err := ParseStacks("solver-fault:16")
	if err != nil {
		t.Fatal(err)
	}
	if got := stacks[0].FaultDepth(); got != 16 {
		t.Fatalf("FaultDepth() = %d, want 16", got)
	}
	rep, err := Run([]scenario.Scenario{stableScenario()}, Options{Stacks: stacks, Draws: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unstable != 0 {
		t.Errorf("solver-fault sweep judged %d cell(s) unstable on a 110%%-margin winner", rep.Unstable)
	}
	if rep.Degraded != 4 {
		t.Errorf("Report.Degraded = %d, want 4 (every draw)", rep.Degraded)
	}
	sc := rep.Scenarios[0]
	if sc.Confidence != scenario.ConfidenceExact {
		t.Errorf("clean advice confidence %q, want exact — faults must only touch the draws", sc.Confidence)
	}
	cell := sc.Cells[0]
	if cell.DegradedDraws != cell.Draws {
		t.Errorf("DegradedDraws = %d/%d, want all", cell.DegradedDraws, cell.Draws)
	}
	if cell.Floor != 16 {
		t.Errorf("knife-edge floor %v, want the stack magnitude 16", cell.Floor)
	}
	if !strings.Contains(rep.Format(), "priced on fallback routes") {
		t.Error("Format() does not surface the degraded draws")
	}
}

// TestRunCancelledContextAborts pins the budget semantics of the sweep
// entry: a dead context aborts the run with ErrBudget instead of producing a
// partial report.
func TestRunCancelledContextAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run([]scenario.Scenario{stableScenario()}, Options{Ctx: ctx}); !errors.Is(err, guard.ErrBudget) {
		t.Fatalf("cancelled Run returned %v, want ErrBudget", err)
	}
}

// TestMemoKeepsAdviceConfidence runs clean and solver-fault:1 advisements of
// one scenario through one shared memo, in both orders, and demands each
// advice equal the advice of the same context without a memo — numbers,
// Confidence and FallbackRoutes alike. A fault-injected advisement must
// neither read the clean answers nor leave its fallback answers behind.
func TestMemoKeepsAdviceConfidence(t *testing.T) {
	sc := baseScenario()
	clean := context.Background()
	faulted := guard.WithFaults(clean, guard.FaultSpec{Depth: 1})
	advise := func(ctx context.Context) *scenario.Advice {
		adv, err := scenario.AdviseCtx(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		return adv
	}
	wantClean, wantFaulted := advise(clean), advise(faulted)
	if wantClean.Confidence != scenario.ConfidenceExact || wantFaulted.Confidence == scenario.ConfidenceExact {
		t.Fatalf("confidences clean %q, faulted %q: the test needs a clean exact advice and a faulted fallback one",
			wantClean.Confidence, wantFaulted.Confidence)
	}
	for _, order := range [][]bool{{false, true, false}, {true, false, true}} {
		memo := &strategy.Memo{}
		for i, fault := range order {
			ctx, ref := clean, wantClean
			if fault {
				ctx, ref = faulted, wantFaulted
			}
			got := advise(strategy.WithMemo(ctx, memo))
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("order %v, advisement %d (fault %v): advice with the memo\n%+v\nwant\n%+v", order, i, fault, got, ref)
			}
		}
	}
}
