package rbmodel

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"testing"

	"recoveryblocks/internal/guard"
	"recoveryblocks/internal/linalg"
	"recoveryblocks/internal/markov"
	"recoveryblocks/internal/obs"
)

// jitteredRamp is the exact-wall benchmark's chain: μ_i = 0.8 + 0.05·(i + j_i)
// with a seeded shape jitter j_i ∈ [−0.4, 0.4) drawn from PCG(seed,
// "exactwal"), and the uniform λ that puts interaction intensity at ρ. The
// rates stay pairwise distinct, so the model always takes the cube form.
func jitteredRamp(n int, rho float64, seed uint64) Params {
	rng := randv2.New(randv2.NewPCG(seed, 0x657861637477616c))
	mu := make([]float64, n)
	sum := 0.0
	for i := range mu {
		mu[i] = 0.8 + 0.05*(float64(i)+0.8*(rng.Float64()-0.5))
		sum += mu[i]
	}
	p := Uniform(n, 1, rho*sum/float64(n*(n-1)))
	p.Mu = mu
	return p
}

// krylovRungMoments answers m's moment pair from the kron-krylov rung: the
// kron-renewal primary is forced to fail, and the pair must come from the
// next rung with no further fallback.
func krylovRungMoments(t testing.TB, m *AsyncModel) (m1, m2 float64) {
	t.Helper()
	rec := &guard.Recorder{}
	ctx := guard.WithRecorder(guard.WithFaults(context.Background(), guard.FaultSpec{Depth: 1}), rec)
	m1, m2, err := m.MomentsXCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ev := rec.Events(); len(ev) != 1 || ev[0].Route != "kron-krylov" {
		t.Fatalf("a fault on kron-renewal landed on %+v, want kron-krylov", ev)
	}
	return m1, m2
}

// TestExactWallMomentsStayOnPrimary: every moment pair of the exact-wall
// ramp at n = 8..14, ρ ∈ {0.25, 1, 4}, seeds 1–3 is answered by the
// kron-renewal rung with no fallback event. An answer taken from a fallback
// rung is a failed answer to the benchmark. With the closed form forced to
// fail, each pair must be answered by the first alternate, kron-krylov
// (BiCGSTAB), with no further fallback.
func TestExactWallMomentsStayOnPrimary(t *testing.T) {
	for n := 8; n <= 14; n++ {
		for _, rho := range []float64{0.25, 1, 4} {
			for seed := uint64(1); seed <= 3; seed++ {
				m := mustAsync(t, jitteredRamp(n, rho, seed))
				if m.Route() != "cube" {
					t.Fatalf("n=%d ρ=%g seed %d: form %s, want cube", n, rho, seed, m.Route())
				}
				rec := &guard.Recorder{}
				if _, _, err := m.MomentsXCtx(guard.WithRecorder(context.Background(), rec)); err != nil {
					t.Fatalf("n=%d ρ=%g seed %d: %v", n, rho, seed, err)
				}
				if ev := rec.Events(); len(ev) != 0 {
					t.Errorf("n=%d ρ=%g seed %d: moment pair fell back: %+v", n, rho, seed, ev)
				}
				krylovRungMoments(t, m)
			}
		}
	}
}

// TestKronMomentMatvecsPinned pins the operator applications and the answer
// of one moment pair: none on the kron-renewal primary, and 48 on the
// kron-krylov rung behind it, acceptance residuals included. Under the
// Jacobi fine level BiCGSTAB took 100, and under the additive two-level
// preconditioner 64. The pinned pair is the kron-krylov rung's, bit for
// bit; the closed form lies 1.8e-13 and 3.5e-13 relative from it.
func TestKronMomentMatvecsPinned(t *testing.T) {
	const (
		wantMatvecs       = 0
		wantKrylovMatvecs = 48
		wantM1            = 45.527911405408069
		wantM2            = 13002.299820508273
	)
	reg := obs.Enable()
	defer obs.Disable()
	m := mustAsync(t, wallRamp(12, 1))
	matvecs := reg.Counter("markov_kron_matvecs_total")
	m1, m2, err := m.MomentsX()
	if err != nil {
		t.Fatal(err)
	}
	if got := matvecs.Value(); m.Route() != "cube" || got != wantMatvecs {
		t.Errorf("%s n=12: moment pair took %d operator applications, want %d on cube", m.Route(), got, wantMatvecs)
	}
	if math.Abs(m1-wantM1) > 1e-12*wantM1 || math.Abs(m2-wantM2) > 1e-12*wantM2 {
		t.Errorf("n=12 moments = (%.17g, %.17g), want (%.17g, %.17g)", m1, m2, wantM1, wantM2)
	}
	k1, k2 := krylovRungMoments(t, m)
	if got := matvecs.Value(); got != wantKrylovMatvecs {
		t.Errorf("n=12: kron-krylov moment pair took %d operator applications, want %d", got, wantKrylovMatvecs)
	}
	if k1 != wantM1 || k2 != wantM2 {
		t.Errorf("n=12 kron-krylov moments = (%.17g, %.17g), want (%.17g, %.17g)", k1, k2, wantM1, wantM2)
	}
}

// krylovMoments solves the moment pair Q_T·h = −1, Q_T·h2 = −2h on the
// engine's operator with BiCGSTAB under the options of the matrix-free
// ladder, and returns the two solution vectors with the
// a-posteriori forward-error bounds of their ∞-norms, computed from explicit
// residuals. With N = −Q_T⁻¹ ≥ 0 and row sums h, ‖Q_T⁻¹‖∞ = ‖h‖∞, so
//
//	‖ĥ − h‖∞   ≤ e₁ = ‖ĥ‖∞·‖r₁‖∞ / (1 − ‖r₁‖∞),  r₁ = Q_T·ĥ + 1,
//	‖ĥ2 − h2‖∞ ≤ e₂ = (‖ĥ‖∞ + e₁)·(2e₁ + ‖r₂‖∞), r₂ = Q_T·ĥ2 + 2ĥ.
func krylovMoments(t *testing.T, p Params) (h, h2 []float64, e1, e2 float64) {
	t.Helper()
	e := newKronEngine(p)
	opts := linalg.KrylovOpts{
		MaxIters: 4000,
		Tol:      markov.KronMomentTol,
		NormA:    2 * p.TotalEventRate(),
		Precond:  newKronPrecond(e.op, p).forward,
	}
	rhs := make([]float64, e.op.Dim())
	for i := range rhs {
		rhs[i] = -1
	}
	h, _, err := linalg.SolveBiCGSTAB(e.op, rhs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rhs {
		rhs[i] = -2 * h[i]
	}
	h2, _, err = linalg.SolveBiCGSTAB(e.op, rhs, opts)
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, len(h))
	var r1, r2 float64
	e.op.MulVecInto(r, h)
	for _, v := range r {
		r1 = max(r1, math.Abs(v+1))
	}
	e.op.MulVecInto(r, h2)
	for i, v := range r {
		r2 = max(r2, math.Abs(v+2*h[i]))
	}
	if r1 >= 1 {
		t.Fatalf("first-moment residual %g leaves no bound", r1)
	}
	normH := linalg.NormInf(h)
	e1 = normH * r1 / (1 - r1)
	e2 = (normH + e1) * (2*e1 + r2)
	return h, h2, e1, e2
}

// TestKrylovRungsForwardErrorAgree is the forward-error check of the
// kron-krylov rung against the closed form. BiCGSTAB stops on a normwise
// backward error, ‖r‖∞ ≤ 1e-13·(‖b‖∞ + 2γ·‖ĥ‖∞). That bounds the forward
// error only through the condition number: the relative forward error can
// reach about κ·1e-13 with κ = ‖Q_T‖∞·‖Q_T⁻¹‖∞ ≤ 2γ·‖h‖∞, which grows with n
// and ρ. So agreement is judged against the a-posteriori bounds of
// krylovMoments, not against a fixed tolerance: the ladder's closed-form
// answer must lie within the BiCGSTAB bound. The BiCGSTAB answer must also
// be the ladder's kron-krylov rung's, bit for bit, so the check covers the
// alternate the program falls onto.
func TestKrylovRungsForwardErrorAgree(t *testing.T) {
	var cases []Params
	for _, n := range []int{10, 12} {
		for _, rho := range []float64{0.25, 1, 4} {
			cases = append(cases, wallRamp(n, rho))
		}
	}
	rng := rand.New(rand.NewSource(53))
	for n := 8; n <= 10; n++ {
		cases = append(cases, randomParams(rng, n))
	}
	for _, p := range cases {
		name := fmt.Sprintf("n=%d ρ=%.3g", p.N(), p.Rho())
		start := 1<<p.N() - 1
		bh, bh2, be1, be2 := krylovMoments(t, p)
		m := build(p, nil)
		m1, m2, err := m.MomentsX()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m1-bh[start]) > be1 || math.Abs(m2-bh2[start]) > be2 {
			t.Errorf("%s: ladder moments (%.17g, %.17g), BiCGSTAB (%.17g, %.17g) ± (%.2g, %.2g)", name, m1, m2, bh[start], bh2[start], be1, be2)
		}
		if k1, k2 := krylovRungMoments(t, m); k1 != bh[start] || k2 != bh2[start] {
			t.Errorf("%s: kron-krylov rung moments (%.17g, %.17g), BiCGSTAB (%.17g, %.17g)", name, k1, k2, bh[start], bh2[start])
		}
		t.Logf("%s: E[X] rel diff %.2e (bound %.2e), E[X²] rel diff %.2e (bound %.2e)", name,
			math.Abs(m1-bh[start])/m1, be1/m1, math.Abs(m2-bh2[start])/m2, be2/m2)
	}
}
