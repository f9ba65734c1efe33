package expt

import (
	"math"
	"strings"
	"testing"
)

func TestTable1ReproducesPaperEL(t *testing.T) {
	res, err := Table1(QuickSizes())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// The paper's E(L) columns match our exact solutions to the printed
	// precision (0.001) — except the known case-5 E(L2) typo.
	for i, row := range res.Rows {
		for k := 0; k < 3; k++ {
			if i == 4 && k == 1 {
				// paper prints 3.111; its own sum row implies 3.311
				if math.Abs(row.ExactEL[k]-3.311) > 5e-4 {
					t.Errorf("case 5 E(L2) exact %v, want 3.311 (typo-corrected)", row.ExactEL[k])
				}
				continue
			}
			if math.Abs(row.ExactEL[k]-row.PaperEL[k]) > 5e-4 {
				t.Errorf("%s: exact E(L%d) = %v vs paper %v", row.Name, k+1, row.ExactEL[k], row.PaperEL[k])
			}
			if math.Abs(row.SplitEL[k]-row.ExactEL[k]) > 1e-6 {
				t.Errorf("%s: split chain diverges from Wald at L%d", row.Name, k+1)
			}
		}
		// Simulation within a loose band of exact at quick sizes.
		if math.Abs(row.SimEX-row.ExactEX) > 0.25 {
			t.Errorf("%s: sim E(X) = %v far from exact %v", row.Name, row.SimEX, row.ExactEX)
		}
	}
	out := res.Format()
	for _, want := range []string{"Table 1", "case 1", "case 5", "2.5000"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q", want)
		}
	}
}

func TestFigure5GrowthShape(t *testing.T) {
	res, err := Figure5([]int{2, 3, 4, 5, 6}, []float64{2.0}, 6, Sizes{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, p := range res.Points {
		if p.LumpEX <= prev {
			t.Fatalf("E[X] not growing at n=%d: %v <= %v", p.N, p.LumpEX, prev)
		}
		if p.ExactEX != 0 && math.Abs(p.ExactEX-p.LumpEX) > 1e-6*(1+p.ExactEX) {
			t.Fatalf("full vs lumped mismatch at n=%d", p.N)
		}
		prev = p.LumpEX
	}
	if !strings.Contains(res.Format(), "Figure 5") {
		t.Error("Format missing title")
	}
}

func TestFigure5RejectsBadN(t *testing.T) {
	if _, err := Figure5([]int{1}, []float64{2}, 4, Sizes{}); err == nil {
		t.Fatal("accepted n=1")
	}
}

func TestFigure6PeakAndKS(t *testing.T) {
	res, err := Figure6(41, 2.0, QuickSizes())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("%d series", len(res.Series))
	}
	for _, s := range res.Series {
		if s.Density[0] <= s.Density[len(s.Density)/2] {
			t.Errorf("%s: no sharp peak near 0", s.Name)
		}
		if s.KS > 2*s.KSCrit {
			t.Errorf("%s: KS %v way beyond critical %v", s.Name, s.KS, s.KSCrit)
		}
	}
	out := res.Format()
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "*") {
		t.Error("Format missing plot")
	}
}

func TestSection3ClosedFormsAgree(t *testing.T) {
	res, err := Section3(QuickSizes())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if math.Abs(row.EZExact-row.EZInt) > 1e-5 {
			t.Errorf("mu=%v: E[Z] disagreement", row.Mu)
		}
		if math.Abs(row.CLSim-row.CLExact) > 5*row.CLSimCI+1e-3 {
			t.Errorf("mu=%v: CL sim %v vs exact %v", row.Mu, row.CLSim, row.CLExact)
		}
	}
	// Growth rows strictly increasing.
	prev := -1.0
	for _, g := range res.Growth {
		if g.CL <= prev {
			t.Fatalf("CL not growing at n=%d", g.N)
		}
		prev = g.CL
	}
	if !strings.Contains(res.Format(), "Section 3") {
		t.Error("Format missing title")
	}
}

func TestSection4BoundAndComparison(t *testing.T) {
	res, err := Section4([]int{2, 3, 4}, 0.05, 2.0, QuickSizes())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if math.Abs(row.SimPropagated-row.Bound) > 0.15*row.Bound {
			t.Errorf("n=%d: propagated distance %v vs bound %v", row.N, row.SimPropagated, row.Bound)
		}
		if row.SimAsync <= row.SimPropagated {
			t.Errorf("n=%d: async %v should exceed PRP %v at lambda=2", row.N, row.SimAsync, row.SimPropagated)
		}
		// The renewal-age estimator is autocorrelated within a run (probes
		// repeatedly observe the same stationary process), so at the quick
		// 10k-probe budget its effective sample size is a few hundred
		// intervals and seed-to-seed swings of ±15% are routine. A loose
		// fixed tolerance keeps this a smoke check; the statistically
		// principled version (batch-means t-test at a derived critical
		// value) runs in internal/xval on every grid.
		if row.AnalyticAsyncAge > 0 && math.Abs(row.SimAsync-row.AnalyticAsyncAge) > 0.3*row.AnalyticAsyncAge {
			t.Errorf("n=%d: async age sim %v vs exact %v", row.N, row.SimAsync, row.AnalyticAsyncAge)
		}
	}
	if !strings.Contains(res.Format(), "Section 4") {
		t.Error("Format missing title")
	}
}

func TestModelGraphs(t *testing.T) {
	res, err := ModelGraphs()
	if err != nil {
		t.Fatal(err)
	}
	if res.FullStates != 9 {
		t.Fatalf("full states = %d, want 2^3+1", res.FullStates)
	}
	if res.SplitStates != 13 {
		t.Fatalf("split states = %d", res.SplitStates)
	}
	for _, dot := range []string{res.FullDOT, res.SymmetricDOT, res.SplitDOT} {
		if !strings.HasPrefix(dot, "digraph") {
			t.Fatal("bad DOT output")
		}
	}
}

func TestFigure1DominoScenario(t *testing.T) {
	res, err := Figure1Domino(7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Recoveries < 1 {
		t.Fatal("no recovery happened")
	}
	if res.Metrics.DominoToStart != 0 {
		t.Fatal("rollback should stop at the stage-A line, not the start")
	}
	rolled := 0
	for _, ps := range res.Metrics.Procs {
		if ps.Rollbacks > 0 {
			rolled++
		}
	}
	if rolled < 2 {
		t.Fatalf("rollback propagated to %d processes, want ≥ 2", rolled)
	}
	want := []int64{8, 7, 7}
	for i, v := range res.FinalStates {
		if v != want[i] {
			t.Fatalf("P%d final = %d, want %d", i+1, v, want[i])
		}
	}
	out := res.Format()
	for _, s := range []string{"Figure 1", "[O]", "FAILS acceptance test AT1_4", "rolls back"} {
		if !strings.Contains(out, s) {
			t.Errorf("diagram missing %q", s)
		}
	}
}

func TestFigure7SyncScenario(t *testing.T) {
	res, err := Figure7SyncTrace(7)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{2, 5, 8}
	for i, v := range res.FinalStates {
		if v != want[i] {
			t.Fatalf("P%d final = %d, want %d", i+1, v, want[i])
		}
	}
	for _, ps := range res.Metrics.Procs {
		if ps.ConversationsSaved != 2 {
			t.Fatalf("conversations = %d, want 2", ps.ConversationsSaved)
		}
	}
	if !strings.Contains(res.Format(), "[=]") {
		t.Error("diagram missing test-line markers")
	}
}

func TestFigure8PRPScenario(t *testing.T) {
	res, err := Figure8PRPTrace(7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.TotalPRPs() == 0 {
		t.Fatal("no PRPs implanted")
	}
	if res.Metrics.DominoToStart != 0 {
		t.Fatal("PRP rollback must not reach the start")
	}
	want := []int64{4, 4, 4}
	for i, v := range res.FinalStates {
		if v != want[i] {
			t.Fatalf("P%d final = %d, want %d", i+1, v, want[i])
		}
	}
	out := res.Format()
	for _, s := range []string{"Figure 8", "[#]", "detects error"} {
		if !strings.Contains(out, s) {
			t.Errorf("diagram missing %q", s)
		}
	}
	// The restart line is the paper's (RP, PRP, PRP): P1 returns to its own
	// recovery point, P2 and P3 to pseudo recovery points.
	for _, s := range []string{
		"P1 rolls back to RP checkpoint",
		"P2 rolls back to PRP checkpoint",
		"P3 rolls back to PRP checkpoint",
	} {
		if n := strings.Count(res.Diagram, s); n != 1 {
			t.Errorf("diagram has %d lines %q, want 1", n, s)
		}
	}
}

func TestTraceRenderShapes(t *testing.T) {
	res, err := Figure1Domino(3)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(res.Diagram, "\n")
	if len(lines) < 10 {
		t.Fatalf("diagram too small: %d lines", len(lines))
	}
	if !strings.Contains(lines[0], "P1") || !strings.Contains(lines[0], "P3") {
		t.Fatalf("header wrong: %q", lines[0])
	}
}

func TestTable1BitIdenticalAcrossWorkers(t *testing.T) {
	sz := QuickSizes()
	sz.Workers = 1
	base, err := Table1(sz)
	if err != nil {
		t.Fatal(err)
	}
	sz.Workers = 8
	got, err := Table1(sz)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Rows {
		b, g := base.Rows[i], got.Rows[i]
		if g.SimEX != b.SimEX || g.SimEXCI != b.SimEXCI || g.SimEL != b.SimEL {
			t.Fatalf("row %s: workers=8 simulation differs from workers=1", b.Name)
		}
	}
	if base.Format() != got.Format() {
		t.Fatal("formatted Table 1 differs across worker counts")
	}
}

func TestSection3and4BitIdenticalAcrossWorkers(t *testing.T) {
	sz := QuickSizes()
	sz.Workers = 1
	s3a, err := Section3(sz)
	if err != nil {
		t.Fatal(err)
	}
	s4a, err := Section4([]int{2, 3}, 0.05, 2.0, sz)
	if err != nil {
		t.Fatal(err)
	}
	sz.Workers = 8
	s3b, err := Section3(sz)
	if err != nil {
		t.Fatal(err)
	}
	s4b, err := Section4([]int{2, 3}, 0.05, 2.0, sz)
	if err != nil {
		t.Fatal(err)
	}
	if s3a.Format() != s3b.Format() {
		t.Fatal("Section 3 differs across worker counts")
	}
	if s4a.Format() != s4b.Format() {
		t.Fatal("Section 4 differs across worker counts")
	}
}
