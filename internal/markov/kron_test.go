package markov

import (
	"context"
	"errors"
	"math"
	"testing"

	"recoveryblocks/internal/guard"
	"recoveryblocks/internal/linalg"
)

// ladderChain builds a birth–death absorbing chain with n transient states:
// state i moves up at rate 2 (toward absorption at state n) and back down at
// rate 1, so absorption is certain but paths wander. Its moments have no
// simple closed form, which is what the cross-route tests want.
func ladderChain(n int) *CTMC {
	c := NewCTMC(n + 1)
	for i := 0; i < n; i++ {
		c.AddRate(i, i+1, 2)
		if i > 0 {
			c.AddRate(i, i-1, 1)
		}
	}
	c.SetAbsorbing(n)
	return c
}

// buildAbsorbing assembles a CTMC shaped like the paper's full model on a
// bitmask state space: RP events set bits (rates mu[i]), interactions clear
// pairs (rate lambda), the all-ones completion absorbs. State 2^n is the
// absorbing state, masks 0..2^n−2 are intermediate, and the all-ones mask
// doubles as the entry state.
func buildAbsorbing(mu []float64, lambda float64) *CTMC {
	n := len(mu)
	ones := 1<<n - 1
	c := NewCTMC(1<<n + 1)
	c.SetAbsorbing(1 << n)
	for mask := 0; mask <= ones; mask++ {
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				continue
			}
			if next := mask | 1<<i; next == ones {
				c.AddRate(mask, 1<<n, mu[i])
			} else {
				c.AddRate(mask, next, mu[i])
			}
		}
		if mask == ones {
			for i := 0; i < n; i++ {
				c.AddRate(mask, 1<<n, mu[i])
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if mask&(1<<i) != 0 || mask&(1<<j) != 0 {
					c.AddRate(mask, mask&^(1<<i|1<<j), lambda)
				}
			}
		}
	}
	return c
}

// rampRates spreads n rates linearly from lo to hi, a strongly asymmetric
// vector that breaks exact lumpability; lo = hi gives identical rates.
func rampRates(n int, lo, hi float64) []float64 {
	mu := make([]float64, n)
	for i := range mu {
		mu[i] = lo + (hi-lo)*float64(i)/float64(max(n-1, 1))
	}
	return mu
}

// faulted runs mf's moment ladder with the first depth rungs force-failed
// and returns the moments and the one fallback event the ladder recorded.
func faulted(t *testing.T, mf *MatrixFree, depth int) (m1, m2 float64, ev guard.Event) {
	t.Helper()
	return faultedLadder(t, nil, mf, depth)
}

// faultedLadder is faulted on the ladder led by the closed form closed.
func faultedLadder(t *testing.T, closed func() (float64, float64), mf *MatrixFree, depth int) (m1, m2 float64, ev guard.Event) {
	t.Helper()
	rec := &guard.Recorder{}
	ctx := guard.WithRecorder(guard.WithFaults(context.Background(), guard.FaultSpec{Depth: depth}), rec)
	m1, m2, err := AbsorptionMomentsLadder(ctx, closed, func() *MatrixFree { return mf })
	if err != nil {
		t.Fatalf("depth %d: %v", depth, err)
	}
	if evs := rec.Events(); len(evs) != 1 {
		t.Fatalf("depth %d: events = %+v, want one fallback", depth, evs)
	}
	return m1, m2, rec.Events()[0]
}

// matrixFreeFromChain mirrors a CTMC's transient block into a MatrixFree
// engine over a CSR operator, assuming states 0..nt−1 are transient and the
// rest absorbing — the harness for judging the matrix-free routes against
// the enumerated ones on one chain.
func matrixFreeFromChain(c *CTMC, start int) *MatrixFree {
	nt := 0
	for u := 0; u < c.n; u++ {
		if !c.IsAbsorbing(u) {
			nt++
		}
	}
	b := linalg.NewCSRBuilder(nt, nt*4)
	var absIdx []int
	var absRate []float64
	rows := func(u int, yield func(to int, rate float64)) {
		for _, e := range c.Transitions(u) {
			if c.IsAbsorbing(e.To) {
				yield(-1, e.Rate)
			} else {
				yield(e.To, e.Rate)
			}
		}
	}
	for u := 0; u < nt; u++ {
		if c.IsAbsorbing(u) {
			panic("matrixFreeFromChain wants transient states first")
		}
		b.Add(u, u, -c.OutRate(u))
		a := 0.0
		for _, e := range c.Transitions(u) {
			if c.IsAbsorbing(e.To) {
				a += e.Rate
			} else {
				b.Add(u, e.To, e.Rate)
			}
		}
		if a > 0 {
			absIdx = append(absIdx, u)
			absRate = append(absRate, a)
		}
	}
	return NewMatrixFree(MatrixFreeSpec{
		Op:         b.Build(),
		Gamma:      c.MaxOutRate(),
		Start:      start,
		AbsorbIdx:  absIdx,
		AbsorbRate: absRate,
		Rows:       rows,
	})
}

// TestMatrixFreeMatchesEnumerated runs every MatrixFree route against the
// enumerated CTMC answers on the wandering birth–death chain.
func TestMatrixFreeMatchesEnumerated(t *testing.T) {
	c := ladderChain(60)
	mf := matrixFreeFromChain(c, 0)

	m1, m2, err := c.AbsorptionMomentsDense(0)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2, err := mf.AbsorptionMoments()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k1-m1) > 1e-8*m1 || math.Abs(k2-m2) > 1e-8*m2 {
		t.Fatalf("kron moments (%g, %g) deviate from enumerated (%g, %g)", k1, k2, m1, m2)
	}

	times := []float64{0, 5, 20, 50, 100}
	pi0 := make([]float64, c.n)
	pi0[0] = 1
	cdf := sequenceAt(c, pi0, times, 1e-12, false)
	den := sequenceAt(c, pi0, times, 1e-12, true)
	kcdf, err := mf.AbsorptionCDF(times, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	kden, err := mf.AbsorptionDensity(times, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	for i := range times {
		if math.Abs(kcdf[i]-cdf[i]) > 1e-8 {
			t.Fatalf("CDF(%g) = %g, enumerated says %g", times[i], kcdf[i], cdf[i])
		}
		if math.Abs(kden[i]-den[i]) > 1e-8 {
			t.Fatalf("density(%g) = %g, enumerated says %g", times[i], kden[i], den[i])
		}
	}

	// The operator-stepped absorption sequence against the CSR-stepped one
	// and the Krylov sweep.
	q := mf.NewAbsorptionSequence()
	for i, tt := range times {
		qcdf, qden, err := q.At(context.Background(), tt, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(qcdf-cdf[i]) > 1e-10 || math.Abs(qden-den[i]) > 1e-10 {
			t.Fatalf("sequence at t=%g: CDF %g density %g, enumerated says %g %g", tt, qcdf, qden, cdf[i], den[i])
		}
		if math.Abs(qcdf-kcdf[i]) > 1e-8 || math.Abs(qden-kden[i]) > 1e-8 {
			t.Fatalf("sequence at t=%g: CDF %g density %g, Krylov sweep says %g %g", tt, qcdf, qden, kcdf[i], kden[i])
		}
	}
}

// TestMatrixFreeLadderFallbacks forces each rung of a moment ladder without
// a closed form (it starts at kron-krylov) and checks the fallback
// reproduces the healthy answer: the uniformization rung exactly to solver
// tolerance, deeper faults on the on-the-fly MC rung within a few standard
// errors with the Degraded flag set. Saturating depths clamp to the last
// rung (the recovery-block contract: some alternate always runs).
// TestMomentLadderRouteAgreement walks the closed-form-led ladder.
func TestMatrixFreeLadderFallbacks(t *testing.T) {
	mf := matrixFreeFromChain(ladderChain(40), 0)
	rungs := []string{"kron-krylov", "kron-uniformization", "kron-mc"}
	last := len(rungs) - 1
	m1, m2, err := mf.AbsorptionMoments()
	if err != nil {
		t.Fatalf("healthy solve: %v", err)
	}
	for _, depth := range []int{1, 2, 3, 4, 9, 16} {
		f1, f2, ev := faulted(t, mf, depth)
		wantRung := min(depth, last)
		if ev.Attempt != wantRung || ev.Route != rungs[wantRung] {
			t.Fatalf("depth %d: event %+v, want a fallback at rung %d (%s)", depth, ev, wantRung, rungs[wantRung])
		}
		if wantRung < last {
			if ev.Degraded {
				t.Fatalf("depth %d: exact rung flagged degraded", depth)
			}
			if math.Abs(f1-m1) > 1e-6*m1 || math.Abs(f2-m2) > 1e-6*m2 {
				t.Fatalf("depth %d: fallback moments (%g, %g) deviate from (%g, %g)", depth, f1, f2, m1, m2)
			}
			continue
		}
		if !ev.Degraded {
			t.Fatalf("depth %d: MC rung not flagged degraded", depth)
		}
		se1 := math.Sqrt((m2 - m1*m1) / kronMCReps)
		if math.Abs(f1-m1) > 6*se1 {
			t.Fatalf("depth %d: MC mean %g is %g SE from exact %g", depth, f1, math.Abs(f1-m1)/se1, m1)
		}
	}
}

// TestMatrixFreeCancellation: a canceled context aborts the ladder with the
// budget taxonomy, ErrBudget wrapping context.Canceled, rather than hanging
// or mislabeling.
func TestMatrixFreeCancellation(t *testing.T) {
	mf := matrixFreeFromChain(ladderChain(40), 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := mf.AbsorptionMomentsCtx(ctx)
	if !errors.Is(err, guard.ErrBudget) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrBudget wrapping Canceled", err)
	}
}

// TestMomentLadderCancellation: on a ladder led by a closed form, the shape
// every asynchronous model runs, a canceled context aborts before the
// closed form runs, with the same taxonomy.
func TestMomentLadderCancellation(t *testing.T) {
	closed := func() (float64, float64) {
		t.Fatal("closed form ran under a canceled context")
		return 0, 0
	}
	engine := func() *MatrixFree {
		t.Fatal("engine built under a canceled context")
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := AbsorptionMomentsLadder(ctx, closed, engine)
	if !errors.Is(err, guard.ErrBudget) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrBudget wrapping Canceled", err)
	}
}

// TestSparseMatchesDenseMoments runs the moment ladder over a sparse (CSR)
// copy of chains shaped like the paper's full model and checks its primary, the Krylov
// rung (there being no closed form), against dense LU within 1e-8 relative:
// for identical rates, where popcount levels lump exactly, and for a
// strongly asymmetric ramp, where they do not.
func TestSparseMatchesDenseMoments(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mu     []float64
		lambda float64
	}{
		{"n8-uniform", rampRates(8, 1, 1), 2.0 / 7},
		{"n9-asym", rampRates(9, 0.5, 2.5), 2.0 / 8},
		{"n8-light", rampRates(8, 1, 1), 0.1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := buildAbsorbing(tc.mu, tc.lambda)
			start := 1<<len(tc.mu) - 1 // entry = all-ones mask
			d1, d2, err := c.AbsorptionMomentsDense(start)
			if err != nil {
				t.Fatal(err)
			}
			mf := matrixFreeFromChain(c, start)
			k1, k2, err := mf.AbsorptionMoments()
			if err != nil {
				t.Fatal(err)
			}
			if rel := max(math.Abs(k1-d1)/d1, math.Abs(k2-d2)/d2); rel > 1e-8 {
				t.Errorf("kron-krylov (%v, %v) vs dense (%v, %v): rel %.2e", k1, k2, d1, d2, rel)
			}
		})
	}
}

// TestMomentLadderRouteAgreement forces each rung of the moment ladder in
// turn on the wandering birth–death chain, the ladder led by a closed form
// that returns the dense-LU pair, and checks every alternate reproduces
// it: the exact rungs to solver tolerance, the kron-mc estimate of E[T] to
// five of its own standard errors with the Degraded flag set.
func TestMomentLadderRouteAgreement(t *testing.T) {
	c := ladderChain(40)
	m1, m2, err := c.AbsorptionMomentsDense(0)
	if err != nil {
		t.Fatal(err)
	}
	closed := func() (float64, float64) { return m1, m2 }
	mf := matrixFreeFromChain(c, 0)
	for depth, rung := range []string{"kron-krylov", "kron-uniformization", "kron-mc"} {
		f1, f2, ev := faultedLadder(t, closed, mf, depth+1)
		if ev.Route != rung || ev.Attempt != depth+1 {
			t.Fatalf("depth %d: event %+v, want %s", depth+1, ev, rung)
		}
		if rung != "kron-mc" {
			if ev.Degraded || math.Abs(f1-m1) > 1e-6*m1 || math.Abs(f2-m2) > 1e-6*m2 {
				t.Fatalf("%s: (%v, %v, degraded %v), want (%v, %v) exact", rung, f1, f2, ev.Degraded, m1, m2)
			}
			continue
		}
		se := math.Sqrt((m2 - m1*m1) / kronMCReps)
		if !ev.Degraded || math.Abs(f1-m1) > 5*se {
			t.Fatalf("kron-mc: E[T] = %v (degraded %v), want %v ± 5·%v", f1, ev.Degraded, m1, se)
		}
	}
}

// TestMomentLadderSaturatingDepth pins the recovery-block contract: at any
// injection depth, chaos's largest included, the solve still answers, from
// the last (degraded) rung.
func TestMomentLadderSaturatingDepth(t *testing.T) {
	m1, _, ev := faulted(t, matrixFreeFromChain(ladderChain(12), 0), 16)
	if !ev.Degraded {
		t.Fatal("saturating depth must land on the degraded rung")
	}
	if !(m1 > 0) || math.IsInf(m1, 0) {
		t.Fatalf("m1 = %v, want positive finite", m1)
	}
}

// TestMomentLadderUnreachableAbsorptionAborts: on a chain whose start state
// cannot reach absorption, every rung must fail (no rung hangs or returns a
// number) and the ladder must report the typed numerical failure.
func TestMomentLadderUnreachableAbsorptionAborts(t *testing.T) {
	c := NewCTMC(4)
	c.AddRate(0, 1, 1)
	c.AddRate(1, 0, 0.5) // states 0, 1 cycle forever
	c.AddRate(2, 3, 1)   // state 2 absorbs, but 0 and 1 never reach it
	c.SetAbsorbing(3)
	_, _, err := matrixFreeFromChain(c, 0).AbsorptionMoments()
	if !errors.Is(err, guard.ErrNumerical) {
		t.Fatalf("err = %v, want ErrNumerical after every rung failed", err)
	}
}

// TestSparseSolveUnreachableAbsorption runs the same check on a long sparse
// (CSR) chain: a 298-state birth–death walk that never reaches absorption
// beside one state that does. The ladder must fail, not hang or return a
// number, and fail fast: the uniformization rung's reachability check
// rejects the chain before summing a step.
func TestSparseSolveUnreachableAbsorption(t *testing.T) {
	c := NewCTMC(300)
	c.SetAbsorbing(299)
	for i := 0; i < 297; i++ {
		c.AddRate(i, i+1, 1)
		c.AddRate(i+1, i, 0.5)
	}
	// States 0..297 form a chain that never reaches 299; 298 does.
	c.AddRate(298, 299, 1)
	_, _, err := matrixFreeFromChain(c, 0).AbsorptionMoments()
	if !errors.Is(err, guard.ErrNumerical) {
		t.Fatalf("err = %v, want ErrNumerical: unreachable absorption must fail", err)
	}
}

// TestUniformizedMomentsLongPath: the uniformization rung's reachability
// check walks a 300-state path whose only exit to absorption is at its far
// end, where a path probability after 300 uniformized steps is about 4^−300,
// and the rung still answers: E[T] = 1/4 + 299 and Var[T] = 1/16 + 299 for
// the sum of one Exp(4) and 299 Exp(1) stages.
func TestUniformizedMomentsLongPath(t *testing.T) {
	const n = 300
	c := NewCTMC(n + 1)
	c.SetAbsorbing(n)
	c.AddRate(0, 1, 4)
	for i := 1; i < n; i++ {
		c.AddRate(i, i+1, 1)
	}
	s, err := matrixFreeFromChain(c, 0).momentsUniformized(context.Background())
	if err != nil {
		t.Fatalf("uniformized: %v", err)
	}
	m1, v := 0.25+299, 1.0/16+299
	if math.Abs(s.m1-m1) > 1e-9*m1 || math.Abs(s.m2-(v+m1*m1)) > 1e-9*(v+m1*m1) {
		t.Fatalf("moments (%v, %v), want (%v, %v)", s.m1, s.m2, m1, v+m1*m1)
	}
}

// TestMomentMCDeterministic pins the last-resort estimate's reproducibility:
// it draws from fixed internal substreams, so repeated runs are bit-equal.
func TestMomentMCDeterministic(t *testing.T) {
	mf := matrixFreeFromChain(ladderChain(10), 0)
	a, err := mf.momentsMC(context.Background())
	if err != nil {
		t.Fatalf("mc: %v", err)
	}
	b, err := mf.momentsMC(context.Background())
	if err != nil {
		t.Fatalf("mc: %v", err)
	}
	if a.m1 != b.m1 || a.m2 != b.m2 {
		t.Fatalf("MC estimate not deterministic: (%v,%v) vs (%v,%v)", a.m1, a.m2, b.m1, b.m2)
	}
}

// TestUniformizedMomentsMassConservation exercises the uniformization rung
// on a chain with an exact answer: a pure Exp(4) absorption has E[T] = 1/4
// and E[T²] = 2/16.
func TestUniformizedMomentsMassConservation(t *testing.T) {
	c := NewCTMC(2)
	c.AddRate(0, 1, 4)
	c.SetAbsorbing(1)
	s, err := matrixFreeFromChain(c, 0).momentsUniformized(context.Background())
	if err != nil {
		t.Fatalf("uniformized: %v", err)
	}
	if math.Abs(s.m1-0.25) > 1e-10 || math.Abs(s.m2-0.125) > 1e-10 {
		t.Fatalf("moments (%v, %v), want (0.25, 0.125)", s.m1, s.m2)
	}
}
