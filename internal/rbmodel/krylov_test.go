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
// rates stay pairwise distinct, so past MaxEnumeratedProcesses the chain
// always takes the kron route.
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

// TestExactWallMomentsStayOnPrimary: every moment pair of the exact-wall
// ramp at n = 8..14, ρ ∈ {0.25, 1, 4}, seeds 1–3 is answered by the
// kron-krylov rung (BiCGSTAB) with no fallback event. An answer taken from a
// fallback rung is a failed answer to the benchmark.
func TestExactWallMomentsStayOnPrimary(t *testing.T) {
	for n := MaxEnumeratedProcesses + 1; n <= 14; n++ {
		for _, rho := range []float64{0.25, 1, 4} {
			for seed := uint64(1); seed <= 3; seed++ {
				m := mustAsync(t, jitteredRamp(n, rho, seed))
				if m.Route() != "kron" {
					t.Fatalf("n=%d ρ=%g seed %d: route %s, want kron", n, rho, seed, m.Route())
				}
				rec := &guard.Recorder{}
				if _, _, err := m.MomentsXCtx(guard.WithRecorder(context.Background(), rec)); err != nil {
					t.Fatalf("n=%d ρ=%g seed %d: %v", n, rho, seed, err)
				}
				if ev := rec.Events(); len(ev) != 0 {
					t.Errorf("n=%d ρ=%g seed %d: moment pair fell back: %+v", n, rho, seed, ev)
				}
			}
		}
	}
}

// TestKronMomentMatvecsPinned pins the operator applications and the answer
// of one moment pair on the primary rung, acceptance residuals included. The
// GMRES(40) rung this replaced took 86 applications here, but each of them
// paid a Gram–Schmidt sweep over up to 41 basis vectors; under the Jacobi
// fine level BiCGSTAB took 100, and under the additive two-level
// preconditioner 64. The enumerated chain gives
// (45.527911392830198, 13002.299813325539): the pinned pair lies 2.8e-10 and
// 5.5e-10 relative from it, the additive form's 2.6e-10 and 5.2e-10.
func TestKronMomentMatvecsPinned(t *testing.T) {
	const (
		wantMatvecs = 48
		wantM1      = 45.527911405408069
		wantM2      = 13002.299820508273
	)
	reg := obs.Enable()
	defer obs.Disable()
	m := mustAsync(t, wallRamp(12, 1))
	m1, m2, err := m.MomentsX()
	if err != nil {
		t.Fatal(err)
	}
	got := reg.Counter("markov_kron_matvecs_total").Value()
	if m.Route() != "kron" || got != wantMatvecs {
		t.Errorf("%s n=12: moment pair took %d operator applications, want %d on kron", m.Route(), got, wantMatvecs)
	}
	if math.Abs(m1-wantM1) > 1e-12*wantM1 || math.Abs(m2-wantM2) > 1e-12*wantM2 {
		t.Errorf("n=12 moments = (%.17g, %.17g), want (%.17g, %.17g)", m1, m2, wantM1, wantM2)
	}
}

// krylovMoments solves the moment pair Q_T·h = −1, Q_T·h2 = −2h on the
// engine's operator with one Krylov solver under the options of the
// matrix-free ladder, and returns the two solution vectors with the
// a-posteriori forward-error bounds of their ∞-norms, computed from explicit
// residuals. With N = −Q_T⁻¹ ≥ 0 and row sums h, ‖Q_T⁻¹‖∞ = ‖h‖∞, so
//
//	‖ĥ − h‖∞   ≤ e₁ = ‖ĥ‖∞·‖r₁‖∞ / (1 − ‖r₁‖∞),  r₁ = Q_T·ĥ + 1,
//	‖ĥ2 − h2‖∞ ≤ e₂ = (‖ĥ‖∞ + e₁)·(2e₁ + ‖r₂‖∞), r₂ = Q_T·ĥ2 + 2ĥ.
func krylovMoments(t *testing.T, p Params, solve func(linalg.Operator, []float64, linalg.GMRESOpts) ([]float64, int, error)) (h, h2 []float64, e1, e2 float64) {
	t.Helper()
	e := newKronEngine(p)
	opts := linalg.GMRESOpts{
		Restart:  40,
		MaxIters: 4000,
		Tol:      markov.KronMomentTol,
		NormA:    2 * p.TotalEventRate(),
		Precond:  newKronPrecond(e.op, p).forward,
	}
	rhs := make([]float64, e.op.Dim())
	for i := range rhs {
		rhs[i] = -1
	}
	h, _, err := solve(e.op, rhs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rhs {
		rhs[i] = -2 * h[i]
	}
	h2, _, err = solve(e.op, rhs, opts)
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

// TestKrylovRungsForwardErrorAgree is the cross-solver forward-error check of
// the two Krylov rungs. Both stop on the same normwise backward error,
// ‖r‖∞ ≤ 1e-12·(‖b‖∞ + 2γ·‖ĥ‖∞). That bounds the forward error only through
// the condition number: the relative forward error can reach about
// κ·1e-12 with κ = ‖Q_T‖∞·‖Q_T⁻¹‖∞ ≤ 2γ·‖h‖∞, which grows with n and ρ: at
// n = 12, ρ = 4 the two rungs differ by 5e-8 relative in E[X²] under a
// bound of 1.2e-4, against 2e-14 at ρ = 0.25. So agreement is judged against the a-posteriori bounds of krylovMoments, not against a
// fixed tolerance: the BiCGSTAB and GMRES moments must lie within the sum of
// their bounds. The BiCGSTAB answer must also be the ladder's answer, bit for
// bit, so the check covers the rung the program runs.
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
		bh, bh2, be1, be2 := krylovMoments(t, p, linalg.SolveBiCGSTAB)
		gh, gh2, ge1, ge2 := krylovMoments(t, p, linalg.SolveGMRES)
		if d := math.Abs(bh[start] - gh[start]); d > be1+ge1 {
			t.Errorf("%s: E[X] BiCGSTAB %.17g, GMRES %.17g differ by %g > bounds %g + %g", name, bh[start], gh[start], d, be1, ge1)
		}
		if d := math.Abs(bh2[start] - gh2[start]); d > be2+ge2 {
			t.Errorf("%s: E[X²] BiCGSTAB %.17g, GMRES %.17g differ by %g > bounds %g + %g", name, bh2[start], gh2[start], d, be2, ge2)
		}
		m1, m2, err := forceKron(p).MomentsX()
		if err != nil {
			t.Fatal(err)
		}
		if m1 != bh[start] || m2 != bh2[start] {
			t.Errorf("%s: ladder moments (%.17g, %.17g), BiCGSTAB rung (%.17g, %.17g)", name, m1, m2, bh[start], bh2[start])
		}
		t.Logf("%s: E[X] rel diff %.2e (bound %.2e), E[X²] rel diff %.2e (bound %.2e)", name,
			math.Abs(bh[start]-gh[start])/gh[start], (be1+ge1)/gh[start],
			math.Abs(bh2[start]-gh2[start])/gh2[start], (be2+ge2)/gh2[start])
	}
}
