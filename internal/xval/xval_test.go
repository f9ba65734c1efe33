package xval

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"recoveryblocks/internal/stats"
	"recoveryblocks/internal/strategy"
)

// ones returns n unit rates (a valid μ vector of length n).
func ones(n int) []float64 {
	mu := make([]float64, n)
	for i := range mu {
		mu[i] = 1
	}
	return mu
}

var update = flag.Bool("update", false, "rewrite golden files from current output")

func TestShortGridPasses(t *testing.T) {
	rep, err := Run(ShortGrid(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 0 {
		for _, c := range rep.Failed() {
			t.Errorf("disagreement %s/%s: model %v, estimate %v, stat %v > crit %v",
				c.Scenario, c.Name, c.Ref, c.Est, c.Stat, c.Crit)
		}
		t.Fatalf("%d model/simulator disagreements on the short grid", rep.Failures)
	}
	if rep.K < 40 {
		t.Fatalf("short grid only ran %d statistical comparisons; the grid has shrunk", rep.K)
	}
	// Every simulator/model pair must appear in the report.
	want := []string{
		"async.meanX", "async.meanL[0]", "split.meanL[0].sim", "split.meanL[0].wald",
		"symmetric.meanX", "deadline.missProb", "async.selfX",
		"synch.meanZ", "synch.meanCL", "syncsim.meanCL", "syncsim.cycle", "syncsim.saved",
		"prp.propagated", "prp.local", "prp.asyncAge",
	}
	seen := map[string]bool{}
	for _, c := range rep.Checks {
		seen[c.Name] = true
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("check %q missing from the short-grid report", name)
		}
	}
}

func TestTolerancesAreDerived(t *testing.T) {
	rep, err := Run(ShortGrid()[:1], Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Checks {
		switch c.Kind {
		case KindNumeric:
			if c.Crit != rep.RelTol {
				t.Errorf("%s: numeric tolerance %v is not the configured rel tol %v", c.Name, c.Crit, rep.RelTol)
			}
		case KindBatchT:
			if c.Crit <= rep.Crit {
				t.Errorf("%s: batch-t critical value %v must exceed the normal one %v", c.Name, c.Crit, rep.Crit)
			}
			if c.DOF < 10 {
				t.Errorf("%s: too few batch degrees of freedom (%d)", c.Name, c.DOF)
			}
			if c.CIHalf != c.Crit*c.SE {
				t.Errorf("%s: CI half-width %v is not crit×SE = %v", c.Name, c.CIHalf, c.Crit*c.SE)
			}
		default:
			if c.Crit != rep.Crit {
				t.Errorf("%s: critical value %v is not the family-wise one %v", c.Name, c.Crit, rep.Crit)
			}
			if c.SE <= 0 || c.CIHalf != c.Crit*c.SE {
				t.Errorf("%s: tolerance not derived from the standard error (se=%v, half=%v)", c.Name, c.SE, c.CIHalf)
			}
		}
	}
}

// welfordWith builds a two-observation accumulator with the given mean and
// standard error (samples mean±se: for n = 2 the standard error equals the
// half-spread exactly).
func welfordWith(mean, se float64) stats.Welford {
	var w stats.Welford
	w.Add(mean - se)
	w.Add(mean + se)
	return w
}

func TestJudgeFlagsDisagreement(t *testing.T) {
	// A simulated mean 10 standard errors away from the model must fail the
	// z-test (and, at this distance, the CI-overlap check too).
	m := strategy.Measurement{Scenario: "s", Name: "c", Kind: strategy.KindZ, Ref: 1.0, W: welfordWith(1.1, 0.01)}
	c := judgeMeasurement(m, 4, 1e-9)
	if c.Pass || c.Overlap {
		t.Fatalf("10-sigma discrepancy passed: %+v", c)
	}
	if c.Stat < 9.99 || c.Stat > 10.01 {
		t.Fatalf("z = %v, want 10", c.Stat)
	}
	// Two-sample: overlap is coarser than the z-test. With equal standard
	// errors se, the z-test fails beyond crit·se·√2 ≈ 0.028 while the
	// intervals still overlap up to crit·2se = 0.04; a gap of 0.035 sits
	// between the two bounds.
	refW := welfordWith(1.0, 0.01)
	m2 := strategy.Measurement{Scenario: "s", Name: "c2", Kind: KindTwoSampleZ,
		RefW: &refW, W: welfordWith(1.035, 0.01)}
	c2 := judgeMeasurement(m2, 2, 1e-9)
	if c2.Pass {
		t.Fatal("3-sigma two-sample discrepancy passed the z-test at crit 2")
	}
	if !c2.Overlap {
		t.Fatal("CI-overlap should be coarser than the two-sample z here")
	}
	// Numeric route: a relative gap above tolerance fails.
	m3 := strategy.Measurement{Scenario: "s", Name: "c3", Kind: KindNumeric, Ref: 2.5, Est: 2.5000001}
	if c3 := judgeMeasurement(m3, 4, 1e-9); c3.Pass {
		t.Fatal("numeric mismatch above rel tol passed")
	}
	if c3 := judgeMeasurement(m3, 4, 1e-6); !c3.Pass {
		t.Fatal("numeric match within rel tol failed")
	}
}

func TestDegenerateSamplesDoNotPoisonJSON(t *testing.T) {
	m := strategy.Measurement{Scenario: "s", Name: "flat", Kind: strategy.KindZ, Ref: 1, W: welfordWith(2, 0)}
	c := judgeMeasurement(m, 4, 1e-9)
	if c.Pass {
		t.Fatal("zero-spread mismatch passed")
	}
	if c.Stat != -1 {
		t.Fatalf("degenerate sentinel = %v, want -1", c.Stat)
	}
	rep := &Report{Checks: []Check{c}, Failures: 1}
	if _, err := rep.JSON(); err != nil {
		t.Fatalf("degenerate check broke JSON encoding: %v", err)
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{},
		{Name: "no-mu", Reps: 100},
		{Name: "neg-mu", Mu: []float64{-1}, Reps: 100},
		{Name: "neg-lambda", Mu: []float64{1}, Lambda: -1, Reps: 100},
		{Name: "no-reps", Mu: []float64{1}},
		{Name: "huge", Mu: ones(25), Reps: 100}, // exceeds MaxExactProcesses = 24
	}
	for _, sc := range bad {
		if _, err := Run([]Scenario{sc}, Options{}); err == nil {
			t.Errorf("scenario %+v was accepted", sc)
		}
	}
}

// TestWorkerCountInvariance pins the mc determinism contract end to end
// through the harness: the whole report must be byte-identical for 1 worker
// and for all CPUs.
func TestWorkerCountInvariance(t *testing.T) {
	grid := ShortGrid()[:2]
	a, err := Run(grid, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(grid, Options{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatal("report differs between worker counts — the determinism contract broke")
	}
}

// TestGoldenShortGrid is the fixed-seed regression oracle: any change to a
// model, a simulator, the RNG, or the judging machinery that alters a single
// bit of the short-grid report fails here. Refresh intentionally with
//
//	go test ./internal/xval -run TestGoldenShortGrid -update
func TestGoldenShortGrid(t *testing.T) {
	rep, err := Run(ShortGrid(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "xval_short.golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("short-grid report drifted from the golden file.\n"+
			"If the change is intentional, refresh with: go test ./internal/xval -run TestGoldenShortGrid -update\n"+
			"diff hint: got %d bytes, want %d bytes; first divergence at byte %d",
			len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func TestFormatMentionsVerdicts(t *testing.T) {
	rep, err := Run(ShortGrid()[2:3], Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Format()
	for _, want := range []string{"scenario", "model", "estimate", "verdict", "n2-light"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q", want)
		}
	}
	if rep.Failures == 0 && !strings.Contains(out, "agree") {
		t.Error("passing report should say the pairs agree")
	}
}

// TestJudgeBinomZScoreTest: the binom-z kind must be judged against H0's own
// variance, so an all-zero indicator sample agrees with a tiny positive
// model probability instead of failing as degenerate — the rare-event case
// the kind exists for, now part of the shared strategy.Measurement contract.
func TestJudgeBinomZScoreTest(t *testing.T) {
	var zeros stats.Welford
	for i := 0; i < 5000; i++ {
		zeros.Add(0)
	}
	m := strategy.Measurement{Scenario: "s", Name: "rare", Kind: KindBinomZ, Ref: 1e-5, W: zeros}
	c := judgeMeasurement(m, 4, 1e-9)
	if !c.Pass {
		t.Fatalf("all-zero sample vs tiny model probability failed the score test: %+v", c)
	}
	if c.Stat < 0 {
		t.Fatalf("score test fell into the degenerate branch: %+v", c)
	}
	// And it still has teeth: a gross excess fails.
	var often stats.Welford
	for i := 0; i < 5000; i++ {
		if i%10 == 0 {
			often.Add(1)
		} else {
			often.Add(0)
		}
	}
	m.W = often
	if c := judgeMeasurement(m, 4, 1e-9); c.Pass {
		t.Fatalf("10%% hit rate passed against a 1e-5 model probability: %+v", c)
	}
	// Ref exactly 0: only an exact match passes.
	m.Ref = 0
	m.W = zeros
	if c := judgeMeasurement(m, 4, 1e-9); !c.Pass || c.Stat != -1 {
		t.Fatalf("exact zero-vs-zero should pass degenerately: %+v", c)
	}
}
