package rbmodel

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"recoveryblocks/internal/guard"
)

func mustAsync(t *testing.T, p Params) *AsyncModel {
	t.Helper()
	m, err := NewAsync(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParamsValidate(t *testing.T) {
	good := Uniform(3, 1, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{},                              // empty
		{Mu: []float64{1}, Lambda: nil}, // missing lambda
		{Mu: []float64{0}, Lambda: [][]float64{{0}}},                 // zero mu
		{Mu: []float64{1, 1}, Lambda: [][]float64{{0, 1}, {2, 0}}},   // asymmetric
		{Mu: []float64{1, 1}, Lambda: [][]float64{{1, 1}, {1, 0}}},   // nonzero diagonal
		{Mu: []float64{1, 1}, Lambda: [][]float64{{0, -1}, {-1, 0}}}, // negative
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestThreeProcessLayout(t *testing.T) {
	p := ThreeProcess(1, 2, 3, 10, 20, 30)
	if p.Lambda[0][1] != 10 || p.Lambda[1][2] != 20 || p.Lambda[0][2] != 30 {
		t.Fatalf("λ layout wrong: %v", p.Lambda)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRho(t *testing.T) {
	// Table 1 caption: all five cases have ρ = 2.
	for _, c := range Table1Cases() {
		if r := c.Params.Rho(); math.Abs(r-2) > 1e-12 {
			t.Errorf("%s: ρ = %v, want 2", c.Name, r)
		}
	}
}

func TestStateSpaceSize(t *testing.T) {
	// Section 2.2: "The number of states for a set of n processes is 2^n+1."
	for n := 1; n <= 6; n++ {
		m := mustAsync(t, Uniform(n, 1, 1))
		if m.NumStates() != (1<<n)+1 {
			t.Fatalf("n=%d: %d states, want %d", n, m.NumStates(), (1<<n)+1)
		}
	}
}

func TestStateIndexingMatchesPaper(t *testing.T) {
	// Paper: intermediate (x_1..x_n) → Σ x_i 2^{i-1} + 1; S_r → 0; S_{r+1} → 2^n.
	m := mustAsync(t, Uniform(3, 1, 1))
	if m.Entry() != 0 || m.Absorbing() != 8 {
		t.Fatalf("entry %d absorbing %d", m.Entry(), m.Absorbing())
	}
	// (1,0,0) → mask 1 → state 2? Paper: Σ x_i 2^{i-1}+1 = 1+1 = 2.
	if m.StateOf(1) != 2 {
		t.Fatalf("state of (1,0,0) = %d, want 2", m.StateOf(1))
	}
}

func TestSingleProcessIsExponential(t *testing.T) {
	// One process: lines form at every RP, so X ~ Exp(μ).
	m := mustAsync(t, Uniform(1, 2.5, 0))
	ex, err := m.MeanX()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ex-1/2.5) > 1e-12 {
		t.Fatalf("E[X] = %v, want 0.4", ex)
	}
}

func TestNoInteractionsMeanX(t *testing.T) {
	// λ = 0: from entry, first RP forms the next line immediately, so
	// X ~ Exp(Σμ) and E[X] = 1/Σμ.
	m := mustAsync(t, Uniform(4, 1.5, 0))
	ex, err := m.MeanX()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ex-1.0/6) > 1e-12 {
		t.Fatalf("E[X] = %v, want 1/6", ex)
	}
}

func TestCase1ExactMeanByHand(t *testing.T) {
	// For n = 3, μ = λ = 1 the lumped chain solves by hand to E[X] = 5/2
	// (states E, S_2, S_1, S_0 — see DESIGN.md §4.2 derivation).
	m := mustAsync(t, Uniform(3, 1, 1))
	ex, err := m.MeanX()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ex-2.5) > 1e-10 {
		t.Fatalf("E[X] = %v, want 2.5 exactly", ex)
	}
}

func TestLumpabilityFullVsSymmetric(t *testing.T) {
	// The full chain with uniform rates must lump exactly to the Figure 3
	// chain: the symmetric model's one-class count form gives the E[X] and
	// E[X²] that dense LU gives on the full enumerated chain.
	for n := 2; n <= 7; n++ {
		for _, rates := range [][2]float64{{1, 1}, {0.5, 2}, {2, 0.25}} {
			mu, lambda := rates[0], rates[1]
			full := mustAsync(t, Uniform(n, mu, lambda))
			sym, err := NewSymmetric(n, mu, lambda)
			if err != nil {
				t.Fatal(err)
			}
			f1, f2, err := mustEnumerate(t, full.P).AbsorptionMomentsDense(full.Entry())
			if err != nil {
				t.Fatal(err)
			}
			s1, s2, err := sym.MomentsX()
			if err != nil {
				t.Fatal(err)
			}
			// E[X] spans ten orders of magnitude across these rate ratios
			// (≈ 1.7e7 at n=7, λ/μ=4), so compare in relative terms.
			if math.Abs(f1-s1) > 1e-6*(1+f1) || math.Abs(f2-s2) > 1e-5*(1+f2) {
				t.Fatalf("n=%d μ=%v λ=%v: full (%v,%v) vs symmetric (%v,%v)",
					n, mu, lambda, f1, f2, s1, s2)
			}
		}
	}
}

// TestSymmetricMomentsCancellation: SymmetricModel answers with no ladder,
// but a done context still fails it with the budget taxonomy.
func TestSymmetricMomentsCancellation(t *testing.T) {
	sym, err := NewSymmetric(5, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := sym.MomentsXCtx(ctx); !errors.Is(err, guard.ErrBudget) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrBudget wrapping Canceled", err)
	}
}

func TestDensityIntegratesToOneAndMatchesMean(t *testing.T) {
	m := mustAsync(t, Table1Cases()[1].Params) // an asymmetric case
	const dt = 0.0125                          // horizon 100: the slowest decay mode needs a long tail
	times := make([]float64, 8001)
	for i := range times {
		times[i] = float64(i) * dt
	}
	f := m.DensityX(times)
	mass, mean := 0.0, 0.0
	for i := 1; i < len(times); i++ {
		mass += (f[i] + f[i-1]) / 2 * dt
		mean += (times[i]*f[i] + times[i-1]*f[i-1]) / 2 * dt
	}
	if math.Abs(mass-1) > 2e-3 {
		t.Fatalf("∫f = %v", mass)
	}
	ex, err := m.MeanX()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-ex) > 0.01*ex {
		t.Fatalf("∫t·f = %v vs E[X] = %v", mean, ex)
	}
}

func TestDensityPeakNearZero(t *testing.T) {
	// Figure 6: "a sharp peak near t=0 … due to direct transition between
	// S_r and S_{r+1}". At t→0 the density equals the direct rate Σμ.
	for _, c := range Fig6Cases() {
		m := mustAsync(t, c.Params)
		f := m.DensityX([]float64{0, 0.4, 1.0})
		if math.Abs(f[0]-c.Params.SumMu()) > 1e-8 {
			t.Errorf("%s: f(0) = %v, want Σμ = %v", c.Name, f[0], c.Params.SumMu())
		}
		if f[0] <= f[1] || f[0] <= f[2] {
			t.Errorf("%s: density not peaked at 0: %v", c.Name, f)
		}
	}
}

func TestCDFXMonotoneToOne(t *testing.T) {
	m := mustAsync(t, Uniform(3, 1, 1))
	times := []float64{0, 0.5, 1, 2, 4, 8, 16, 32, 64, 96}
	cdf := m.CDFX(times)
	prev := -1.0
	for i, v := range cdf {
		if v < prev-1e-12 {
			t.Fatalf("CDF not monotone at %v", times[i])
		}
		prev = v
	}
	if cdf[0] != 0 {
		t.Fatalf("CDF(0) = %v", cdf[0])
	}
	if math.Abs(cdf[len(cdf)-1]-1) > 1e-4 {
		t.Fatalf("CDF(96) = %v, want ≈ 1", cdf[len(cdf)-1])
	}
}

func TestMeanLWaldProportionalToMu(t *testing.T) {
	c := Table1Cases()[1] // μ = (1.5, 1.0, 0.5)
	m := mustAsync(t, c.Params)
	ls, err := m.MeanLWald()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ls[0]/ls[2]-3) > 1e-9 {
		t.Fatalf("E[L1]/E[L3] = %v, want 3 (= μ1/μ3)", ls[0]/ls[2])
	}
	if math.Abs(ls[0]/ls[1]-1.5) > 1e-9 {
		t.Fatalf("E[L1]/E[L2] = %v, want 1.5", ls[0]/ls[1])
	}
}

func TestMoreInteractionsLongerIntervals(t *testing.T) {
	// Increasing λ makes recovery lines rarer: E[X] must be nondecreasing.
	prev := 0.0
	for _, lambda := range []float64{0, 0.5, 1, 2, 4, 8} {
		m := mustAsync(t, Uniform(3, 1, lambda))
		ex, err := m.MeanX()
		if err != nil {
			t.Fatal(err)
		}
		if ex < prev {
			t.Fatalf("E[X] decreased at λ=%v: %v < %v", lambda, ex, prev)
		}
		prev = ex
	}
}

func TestMeanXGrowsWithN(t *testing.T) {
	// Figure 5: "X increases drastically when there is an increase in the
	// number of processes" (fixed ρ, μ = 1).
	const rho = 2.0
	prev := 0.0
	for n := 2; n <= 8; n++ {
		lambda := rho / float64(n-1) // ρ = (n-1)λ for uniform rates with μ=1
		m := mustAsync(t, Uniform(n, 1, lambda))
		ex, err := m.MeanX()
		if err != nil {
			t.Fatal(err)
		}
		if ex <= prev {
			t.Fatalf("E[X] did not grow at n=%d: %v <= %v", n, ex, prev)
		}
		prev = ex
	}
}

func TestGeneratorConservation(t *testing.T) {
	// Out-rate of every transient state equals the total rate of
	// state-changing events in that state.
	p := Table1Cases()[4].Params
	m := mustAsync(t, p)
	c := mustEnumerate(t, p)
	// Entry: all RPs (Σμ) plus all pairs (Σλ) are state-changing.
	wantEntry := p.SumMu() + p.SumLambdaPairs()
	if got := c.OutRate(m.Entry()); math.Abs(got-wantEntry) > 1e-12 {
		t.Fatalf("entry out-rate %v, want %v", got, wantEntry)
	}
	// State (0,0,0): only RPs change the state.
	if got := c.OutRate(m.StateOf(0)); math.Abs(got-p.SumMu()) > 1e-12 {
		t.Fatalf("(0,0,0) out-rate %v, want Σμ = %v", got, p.SumMu())
	}
}

func TestUnreachableLambdaZeroPairStillSolves(t *testing.T) {
	// A zero λ between a pair must not break anything.
	p := ThreeProcess(1, 1, 1, 0, 1, 1)
	m := mustAsync(t, p)
	if _, err := m.MeanX(); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncRejectsTooManyProcesses(t *testing.T) {
	if _, err := NewAsync(Uniform(MaxExactProcesses+1, 1, 1)); err == nil {
		t.Fatal("accepted oversized model")
	}
}

func TestMeanXIterativeAgreesWithDirect(t *testing.T) {
	m := mustAsync(t, Table1Cases()[2].Params)
	direct, err := m.MeanX()
	if err != nil {
		t.Fatal(err)
	}
	iter, err := mustEnumerate(t, m.P).MeanAbsorptionTimeIterative(m.Entry(), 1e-12, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(direct-iter) > 1e-8 {
		t.Fatalf("direct %v vs iterative %v", direct, iter)
	}
}

func TestScaleInvarianceProperty(t *testing.T) {
	// Scaling all rates by c > 0 scales E[X] by 1/c and leaves E[L] fixed.
	f := func(seed uint8) bool {
		c := 0.25 + float64(seed%16)/4
		base := Table1Cases()[1].Params
		scaled := Params{Mu: make([]float64, 3), Lambda: make([][]float64, 3)}
		for i := range base.Mu {
			scaled.Mu[i] = base.Mu[i] * c
			scaled.Lambda[i] = make([]float64, 3)
			for j := range base.Lambda[i] {
				scaled.Lambda[i][j] = base.Lambda[i][j] * c
			}
		}
		m1, err1 := NewAsync(base)
		m2, err2 := NewAsync(scaled)
		if err1 != nil || err2 != nil {
			return false
		}
		e1, err1 := m1.MeanX()
		e2, err2 := m2.MeanX()
		if err1 != nil || err2 != nil {
			return false
		}
		if math.Abs(e1/c-e2) > 1e-9*(1+e2) {
			return false
		}
		l1, _ := m1.MeanLWald()
		l2, _ := m2.MeanLWald()
		for i := range l1 {
			if math.Abs(l1[i]-l2[i]) > 1e-9*(1+l1[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDOTExportsNonEmpty(t *testing.T) {
	m := mustAsync(t, Uniform(3, 1, 1))
	dot := m.DOT()
	if len(dot) < 100 || dot[:7] != "digraph" {
		t.Fatalf("suspicious DOT output: %q", dot[:min(40, len(dot))])
	}
	sym, err := NewSymmetric(3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := sym.DOT(); len(d) < 100 {
		t.Fatal("symmetric DOT too short")
	}
}

// TestDOTRendersEveryRoute: neither form holds a chain, yet both render
// the same Figure 2 graph as the enumerated chain: 2^n+1 states and one
// edge per merged transition.
func TestDOTRendersEveryRoute(t *testing.T) {
	for _, p := range []Params{Uniform(9, 1, 0.5), wallRamp(9, 1)} {
		m := mustAsync(t, p)
		dot := m.DOT()
		if want := build(p, nil).DOT(); dot != want {
			t.Fatalf("%s n=9: DOT differs from the cube form's", m.Route())
		}
		c, err := EnumerateAsync(p)
		if err != nil {
			t.Fatal(err)
		}
		edges := 0
		for u := 0; u < 1<<p.N(); u++ { // the absorbing state has none
			edges += len(c.Transitions(u))
		}
		if got := strings.Count(dot, " -> "); got != edges {
			t.Errorf("%s n=9: %d edges, chain has %d", m.Route(), got, edges)
		}
		if got := strings.Count(dot, "[label=\"(") + 2; got != m.NumStates() {
			t.Errorf("%s n=9: %d states, want %d", m.Route(), got, m.NumStates())
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
