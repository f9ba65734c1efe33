package rbmodel

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"

	"recoveryblocks/internal/guard"
	"recoveryblocks/internal/linalg"
)

// pipelineParams is wallRamp's μ with interactions between neighbours only
// (λ_{i,i+1}), at intensity ρ.
func pipelineParams(n int, rho float64) Params {
	p := wallRamp(n, 0)
	if n < 2 {
		return p
	}
	lambda := rho * p.SumMu() / float64(2*(n-1))
	for i := 0; i+1 < n; i++ {
		p.Lambda[i][i+1], p.Lambda[i+1][i] = lambda, lambda
	}
	return p
}

// transformAt returns P(s) = s·G(s) of x at complex s.
func transformAt(t testing.TB, x *transform, s complex128) complex128 {
	t.Helper()
	g, err := x.question(context.Background()).at(real(s), imag(s))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTransformCountMatchesCube: for lumpable rates the count form of
// P(s) = s·G(s) and the cube form agree within 1e-13 relative, on and off
// the real axis and at s = 0, at n = 3, 8 and 12, for two- and three-class
// rates.
func TestTransformCountMatchesCube(t *testing.T) {
	var worst float64
	for _, n := range []int{3, 8, 12} {
		two, three := make([]int, n), make([]int, n)
		for i := range two {
			two[i], three[i] = i%2, i%3
		}
		for _, p := range []Params{
			classParams(two, []float64{1, 2.5}, [][]float64{{0.3, 0.5}, {0.5, 0.8}}, 1),
			classParams(three, []float64{0.7, 1.3, 2}, [][]float64{{0.2, 0, 0.9}, {0, 1.1, 0.4}, {0.9, 0.4, 0.6}}, 4),
		} {
			cls := lumpClasses(p)
			if cls == nil {
				continue // three singleton classes at n = 3
			}
			count, cube := newTransform(p, cls), newTransform(p, nil)
			m1, _ := cubeMoments(p)
			for _, s := range []complex128{0, 0.5, 3, complex(0.2, 1.7), complex(-0.4, 6), complex(2, 40), complex(-0.05/m1, 1e-20)} {
				gc, gq := transformAt(t, count, s), transformAt(t, cube, s)
				d := cmplx.Abs(gc-gq) / cmplx.Abs(gq)
				worst = max(worst, d)
				if d > 1e-13 {
					t.Errorf("n=%d s=%v: count form %v, cube form %v", n, s, gc, gq)
				}
			}
		}
	}
	t.Logf("worst relative difference: %.2e", worst)
}

// resolventMGF returns E[e^{−sX}] = α·(sI − Q_T)⁻¹·a at real s > 0 by dense
// LU on the enumerated chain, α the entry state and a the absorption rates.
func resolventMGF(t testing.TB, p Params, s float64) float64 {
	t.Helper()
	c, err := EnumerateAsync(p)
	if err != nil {
		t.Fatal(err)
	}
	n := 1 << p.N() // transient states 0..2^n − 1, absorbing 2^n
	a := linalg.NewMatrix(n, n)
	abs := make([]float64, n)
	for u := 0; u < n; u++ {
		a.Add(u, u, s+c.OutRate(u))
		for _, e := range c.Transitions(u) {
			if c.IsAbsorbing(e.To) {
				abs[u] += e.Rate
			} else {
				a.Add(u, e.To, -e.Rate)
			}
		}
	}
	x, err := linalg.SolveLinear(a, abs)
	if err != nil {
		t.Fatal(err)
	}
	return x[0]
}

// survivalReference returns S(t) = Σ_u π_u(t) over the transient states of
// the enumerated chain, π(t) summed as a whole vector by
// CTMC.TransientDistribution at truncation 1e-14. Summing the transient
// mass keeps S's relative accuracy; 1 − F, the absorption sequence's
// reading, carries F's truncation and rounding into S (2.5e-10 absolute at
// γt ≈ 9e4 on a five-process chain, whatever the truncation).
func survivalReference(t testing.TB, p Params, tt float64) float64 {
	t.Helper()
	c, err := EnumerateAsync(p)
	if err != nil {
		t.Fatal(err)
	}
	n := 1 << p.N()
	pi := c.TransientDistribution(pointMass(n+1, 0), tt, 1e-14)
	S := 0.0
	for _, v := range pi[:n] {
		S += v
	}
	return S
}

// checkTransformAgreement holds one model to the transform's contract:
// E[e^{−sX}] = P/(s + P) at real s matches the dense resolvent of the
// enumerated chain within that solve's own error bound, 1/P(0) matches the cube recursion's E[X], and the
// transform rung's S(t), when it accepts, matches survivalReference within
// 1e-8·S + 1e-12.
func checkTransformAgreement(t testing.TB, p Params, s, tt float64) {
	t.Helper()
	m, err := NewAsync(p)
	if err != nil {
		t.Fatal(err)
	}
	// The dense LU's forward error is about κ·u, with
	// κ = ‖sI − Q_T‖∞·‖(sI − Q_T)⁻¹‖∞ ≤ (s + 2γ)/s.
	P := real(transformAt(t, m.transform(), complex(s, 0)))
	kappa := 1 + 2*p.TotalEventRate()/s
	if got, want := P/(s+P), resolventMGF(t, p, s); math.Abs(got-want) > (1e-13+1e-15*kappa)*want {
		t.Errorf("%v: E[e^{−sX}] at s = %v: transform %.15g, dense resolvent %.15g", p, s, got, want)
	}
	m1, _ := cubeMoments(p)
	if got := 1 / real(transformAt(t, m.transform(), 0)); math.Abs(got-m1) > 1e-13*m1 {
		t.Errorf("%v: 1/P(0) = %.17g, cube recursion E[X] = %.17g", p, got, m1)
	}
	S, err := m.transform().question(context.Background()).survival(tt)
	if err != nil {
		return // a rejected inversion falls to the alternate; that is the ladder's job
	}
	if want := survivalReference(t, p, tt); math.Abs(S-want) > 1e-8*want+1e-12 {
		t.Errorf("%v: P(X > %v): transform %.15g, reference %.15g", p, tt, S, want)
	}
}

// FuzzTransformAgreement runs checkTransformAgreement on fuzzed rates at
// n ≤ 6, with s and t drawn on the scale of E[X]. Inputs whose reference
// would take over 1e5 uniformization steps are skipped.
func FuzzTransformAgreement(f *testing.F) {
	addRateSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte, nRaw uint8, seed int64) {
		p := fuzzParams(raw, 1+int(nRaw)%6) // 1..6
		m1, _ := cubeMoments(p)
		rng := rand.New(rand.NewSource(seed))
		tt := m1 * 8 * rng.Float64()
		if !(tt > 0) || p.TotalEventRate()*tt > 1e5 {
			t.Skip("reference too long")
		}
		checkTransformAgreement(t, p, math.Exp(4*rng.Float64()-2)/m1, tt)
	})
}

// TestTransformMatchesUniformization is the transform's property test over
// random Params at n ≤ 10: uniform, hot-pair, pipeline and random λ, and
// lumpable two-class rates, in both forms. On each model the
// deadline miss at 0.5, 2 and 5 times E[X] and the 0.5, 0.9 and 0.99
// quantiles come from the transform rung, the misses match the
// uniformization rung within 1e-8·S + 2·transientEps, and the
// uniformization CDF at each quantile is q within 1e-8.
func TestTransformMatchesUniformization(t *testing.T) {
	rng := rand.New(rand.NewSource(2006))
	routes := map[string]int{}
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(9)
		rho := 0.25 + 1.25*rng.Float64()
		half := make([]int, n)
		for i := range half {
			half[i] = i % 2
		}
		for name, p := range map[string]Params{
			"uniform":   wallRamp(n, rho),
			"hot-pair":  hotPairRamp(n, rho),
			"pipeline":  pipelineParams(n, rho),
			"random":    scaledRandom(rng, n, rho),
			"two-class": classParams(half, []float64{0.8, 1.6}, [][]float64{{0.5, 1}, {1, 0.25}}, rho),
		} {
			m := mustAsync(t, p)
			routes[m.Route()]++
			mean, err := m.MeanX()
			if err != nil {
				t.Fatal(err)
			}
			rec := &guard.Recorder{}
			ctx := guard.WithRecorder(context.Background(), rec)
			for _, k := range []float64{0.5, 2, 5} {
				d := k * mean
				got, err := m.DeadlineMissProbCtx(ctx, d)
				if err != nil {
					t.Fatal(err)
				}
				want, err := m.missUniformized(context.Background(), d)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got-want) > 1e-8*want+2*transientEps {
					t.Errorf("%s n=%d ρ=%.3g (%s): P(X > %.3g·E[X]) = %.15g, uniformization %.15g", name, n, rho, m.Route(), k, got, want)
				}
			}
			for _, q := range []float64{0.5, 0.9, 0.99} {
				x, err := m.QuantileXCtx(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if cdf := m.CDFX([]float64{x})[0]; math.Abs(cdf-q) > 1e-8 {
					t.Errorf("%s n=%d ρ=%.3g (%s): CDF %.12g at the %v quantile %v", name, n, rho, m.Route(), cdf, q, x)
				}
			}
			if r := rec.Routes(); len(r) != 0 {
				t.Errorf("%s n=%d ρ=%.3g (%s): fallbacks %v", name, n, rho, m.Route(), r)
			}
		}
	}
	for _, r := range []string{"count", "cube"} {
		if routes[r] == 0 {
			t.Errorf("no model in the %s form (%v)", r, routes)
		}
	}
}

// TestTransformDeepTail: at S ≈ 1e-11 the two Talbot orders agree only to
// the absolute tolerance, so the one-mode tail answers. The answer is
// C·e^{−ηd} from DecayRateXCtx, and it matches the decay of a relatively
// certified Talbot value at S ≈ 1e-4 within 1e-7 relative.
func TestTransformDeepTail(t *testing.T) {
	for _, p := range []Params{Uniform(3, 1, 1), wallRamp(9, 1), twoClassParams(3, 2, 1.0, 2.5, 0.3, 0.8, 0.5)} {
		m := mustAsync(t, p)
		eta, c, err := m.DecayRateXCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		d := math.Log(c/1e-11) / eta
		got, err := m.DeadlineMissProb(d)
		if err != nil {
			t.Fatal(err)
		}
		if tail := c * math.Exp(-eta*d); got != tail {
			t.Errorf("n=%d: P(X > %v) = %v, want the tail's %v", p.N(), d, got, tail)
		}
		d0 := math.Log(c/1e-4) / eta
		s0, err := m.DeadlineMissProb(d0)
		if err != nil {
			t.Fatal(err)
		}
		if want := s0 * math.Exp(-eta*(d-d0)); math.Abs(got-want) > 1e-7*want {
			t.Errorf("n=%d: P(X > %v) = %v, decayed from P(X > %v) = %v: %v", p.N(), d, got, d0, s0, want)
		}
		talbot, _, err := m.transform().question(context.Background()).talbot(d, talbotNodes)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("n=%d: S = %.6g at d = %.4g; Talbot alone %.6g (relative %.1e)", p.N(), got, d, talbot[0], math.Abs(talbot[0]-got)/got)
	}
}

// TestTransformIsCoreCountInvariant: a contour batch whose work (nodes ×
// cells) reaches shardDim splits its nodes between two goroutines, and a
// single cube pass over 2^16 subsets or more pipelines across the top bit.
// The n = 12 deadline miss and 0.99 quantile, the n = 16 decay rate and
// weight, and a count-form deadline miss over 3^7 cells must come out bit
// for bit, after the same number of passes, on two cores as on one.
func TestTransformIsCoreCountInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	m12, m16 := mustAsync(t, wallRamp(12, 0.25)), mustAsync(t, wallRamp(16, 1))
	count := countModel(t, pairClasses(7, 1))
	for _, q := range []struct {
		name string
		ask  func() ([]float64, error)
	}{
		{"n=12 P(X > 2)", func() ([]float64, error) { v, err := m12.DeadlineMissProb(2); return []float64{v}, err }},
		{"n=12 0.99 quantile", func() ([]float64, error) { v, err := m12.QuantileX(0.99); return []float64{v}, err }},
		{"n=16 decay rate", func() ([]float64, error) {
			eta, c, err := m16.DecayRateXCtx(context.Background())
			return []float64{eta, c}, err
		}},
		{"3^7 cells P(X > 1)", func() ([]float64, error) { v, err := count.DeadlineMissProb(1); return []float64{v}, err }},
	} {
		var got [2][]float64
		var passes [2]int64
		for i, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			passes[i] = passesOf(t, func() (err error) {
				got[i], err = q.ask()
				return err
			})
		}
		if passes[0] != passes[1] {
			t.Errorf("%s: %d passes on one core, %d on two", q.name, passes[0], passes[1])
		}
		for k := range got[0] {
			if math.Float64bits(got[0][k]) != math.Float64bits(got[1][k]) {
				t.Errorf("%s: %.17g on two cores, %.17g on one", q.name, got[1][k], got[0][k])
			}
		}
	}
}

// TestTransientFaultInjection forces the transform rung to fail through
// guard.WithFaults: both transient questions then answer from the
// uniformization rung of the block rbmodel/transient, recorded as a
// fallback, and still match the transform's answers.
func TestTransientFaultInjection(t *testing.T) {
	for _, m := range []*AsyncModel{mustAsync(t, Uniform(4, 1, 0.5)), mustAsync(t, wallRamp(10, 0.5))} {
		miss, err := m.DeadlineMissProb(2)
		if err != nil {
			t.Fatal(err)
		}
		q, err := m.QuantileX(0.99)
		if err != nil {
			t.Fatal(err)
		}
		rec := &guard.Recorder{}
		ctx := guard.WithRecorder(guard.WithFaults(context.Background(), guard.FaultSpec{Depth: 1}), rec)
		fmiss, err := m.DeadlineMissProbCtx(ctx, 2)
		if err != nil {
			t.Fatal(err)
		}
		fq, err := m.QuantileXCtx(ctx, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fmiss-miss) > 1e-8*miss+2*transientEps || math.Abs(fq-q) > 1e-7*q {
			t.Errorf("%s: faulted (%v, %v), transform (%v, %v)", m.Route(), fmiss, fq, miss, q)
		}
		want := "rbmodel/transient→uniformization"
		if r := fmt.Sprint(rec.Routes()); r != fmt.Sprintf("[markov/absorption-moments→kron-krylov %s]", want) {
			t.Errorf("%s: fallbacks %s, want the transient block on %s", m.Route(), r, want)
		}
	}
}

// TestDecayRateMatchesHazard: the hazard rate f(t)/S(t), from the
// uniformized grid, settles on η far in the tail, and C·e^{−ηt} matches
// S(t) there.
func TestDecayRateMatchesHazard(t *testing.T) {
	for _, p := range []Params{Uniform(3, 1, 1), pipelineParams(6, 2), hotPairRamp(8, 1)} {
		m := mustAsync(t, p)
		eta, c, err := m.DecayRateXCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		mean, _ := m.MeanX()
		tt := 12 * mean
		cdf, f := m.CDFX([]float64{tt})[0], m.DensityX([]float64{tt})[0]
		if h := f / (1 - cdf); math.Abs(h-eta) > 1e-5*eta {
			t.Errorf("n=%d: hazard %v at %v·E[X], decay rate %v", p.N(), h, 12, eta)
		}
		if s := c * math.Exp(-eta*tt); math.Abs(s-(1-cdf)) > 1e-5*s {
			t.Errorf("n=%d: tail %v at %v·E[X], uniformization %v", p.N(), s, 12, 1-cdf)
		}
	}
}

// TestDecayRateAtLowRho: at low ρ the root −η lies just short of P's first
// pole, and a root search doubling its way past that pole found
// k = s + P(s) positive again beyond it and reported no root (n = 2,
// ρ = 0.13). The root is found, and the uniformized hazard matches it where
// S = 1e-6, the second mode being slow to fade there.
func TestDecayRateAtLowRho(t *testing.T) {
	for _, p := range []Params{wallRamp(2, 0.13), wallRamp(4, 0.2), pipelineParams(3, 0.2)} {
		m := mustAsync(t, p)
		eta, c, err := m.DecayRateXCtx(context.Background())
		if err != nil {
			t.Fatalf("n=%d: %v", p.N(), err)
		}
		tt := math.Log(c/1e-6) / eta
		cdf, f := m.CDFX([]float64{tt})[0], m.DensityX([]float64{tt})[0]
		if h := f / (1 - cdf); math.Abs(h-eta) > 1e-3*eta {
			t.Errorf("n=%d: hazard %v where S = 1e-6, decay rate %v", p.N(), h, eta)
		}
	}
}
