package markov

import (
	"context"
	"math"
	"testing"

	"recoveryblocks/internal/guard"
	"recoveryblocks/internal/linalg"
)

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

	m1, m2, err := c.AbsorptionMoments(0)
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
	cdf := c.AbsorptionCDF(pi0, times, 1e-12)
	den := c.AbsorptionDensity(pi0, times, 1e-12)
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

// TestMatrixFreeLadderFallbacks forces each rung of the matrix-free moment
// ladder and checks the fallback reproduces the healthy answer: depth 1 lands
// on the GMRES rung and depth 2 on the uniformization rung, both exact to
// solver tolerance; deeper faults land on the on-the-fly MC rung, within a few
// standard errors with the Degraded flag set. Saturating depths clamp to the
// last rung (the recovery-block contract: some alternate always runs).
func TestMatrixFreeLadderFallbacks(t *testing.T) {
	c := ladderChain(40)
	mf := matrixFreeFromChain(c, 0)
	m1, m2, err := mf.AbsorptionMoments()
	if err != nil {
		t.Fatalf("healthy solve: %v", err)
	}

	rungs := []string{"kron-krylov", "kron-gmres", "kron-uniformization", "kron-mc"}
	for _, depth := range []int{1, 2, 3, 9, 16} {
		ctx := guard.WithFaults(context.Background(), guard.FaultSpec{Depth: depth})
		rec := &guard.Recorder{}
		ctx = guard.WithRecorder(ctx, rec)
		f1, f2, err := mf.AbsorptionMomentsCtx(ctx)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		ev := rec.Events()
		wantRung := min(depth, 3)
		if len(ev) != 1 || ev[0].Attempt != wantRung || ev[0].Route != rungs[wantRung] {
			t.Fatalf("depth %d: events = %+v, want one fallback at rung %d (%s)", depth, ev, wantRung, rungs[wantRung])
		}
		if wantRung < 3 {
			if ev[0].Degraded {
				t.Fatalf("depth %d: exact rung flagged degraded", depth)
			}
			if math.Abs(f1-m1) > 1e-6*m1 || math.Abs(f2-m2) > 1e-6*m2 {
				t.Fatalf("depth %d: fallback moments (%g, %g) deviate from (%g, %g)", depth, f1, f2, m1, m2)
			}
		} else {
			if !ev[0].Degraded {
				t.Fatalf("depth %d: MC rung not flagged degraded", depth)
			}
			se1 := math.Sqrt((m2 - m1*m1) / kronMCReps)
			if math.Abs(f1-m1) > 6*se1 {
				t.Fatalf("depth %d: MC mean %g is %g SE from exact %g", depth, f1, math.Abs(f1-m1)/se1, m1)
			}
		}
	}
}

// TestMatrixFreeCancellation: a canceled context aborts the ladder with the
// budget taxonomy rather than hanging or mislabeling.
func TestMatrixFreeCancellation(t *testing.T) {
	c := ladderChain(40)
	mf := matrixFreeFromChain(c, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := mf.AbsorptionMomentsCtx(ctx); err == nil {
		t.Fatal("canceled context did not abort the matrix-free ladder")
	}
}
