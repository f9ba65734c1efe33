package rbmodel

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"recoveryblocks/internal/core"
	"recoveryblocks/internal/guard"
)

// forceKron builds an AsyncModel pinned to the matrix-free backend regardless
// of n, so the Kronecker route can be judged against the enumerated chain at
// sizes where both exist.
func forceKron(p Params) *AsyncModel {
	return build(p, nil, routeKron)
}

// forceEnumerated pins the enumerated backend the same way: the full-cube
// reference past MaxEnumeratedProcesses.
func forceEnumerated(t testing.TB, p Params) *AsyncModel {
	t.Helper()
	if n := p.N(); n > maxEnumerateProcesses {
		t.Fatalf("n = %d exceeds the enumeration bound %d", n, maxEnumerateProcesses)
	}
	return build(p, nil, routeEnumerated)
}

// wallRamp is a distinct-μ ramp, μ_i = 0.8 + 0.05·i, with the uniform λ that
// puts interaction intensity at ρ: never lumpable, so past
// MaxEnumeratedProcesses it always takes the kron route.
func wallRamp(n int, rho float64) Params {
	mu := make([]float64, n)
	sum := 0.0
	for i := range mu {
		mu[i] = 0.8 + 0.05*float64(i)
		sum += mu[i]
	}
	p := Uniform(n, 1, rho*sum/float64(n*(n-1)))
	p.Mu = mu
	return p
}

// forceOrbit pins the orbit-lumped backend the same way, its moments on the
// count form.
func forceOrbit(t *testing.T, p Params) *AsyncModel {
	t.Helper()
	cls := lumpClasses(p)
	if cls == nil {
		t.Fatal("rates do not lump")
	}
	return build(p, cls, routeOrbit)
}

// randomParams draws strictly positive distinct-ish μ and a general symmetric
// λ (some pairs zero).
func randomParams(rng *rand.Rand, n int) Params {
	p := Params{Mu: make([]float64, n), Lambda: make([][]float64, n)}
	for i := range p.Mu {
		p.Mu[i] = 0.2 + 2*rng.Float64()
		p.Lambda[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.7 {
				v := 1.5 * rng.Float64()
				p.Lambda[i][j] = v
				p.Lambda[j][i] = v
			}
		}
	}
	return p
}

// twoClassParams returns partially-exchangeable rates: two μ classes with
// block-constant λ — lumpable onto (u_1, u_2) counts.
func twoClassParams(n1, n2 int, mu1, mu2, l11, l22, l12 float64) Params {
	n := n1 + n2
	p := Params{Mu: make([]float64, n), Lambda: make([][]float64, n)}
	for i := range p.Mu {
		if i < n1 {
			p.Mu[i] = mu1
		} else {
			p.Mu[i] = mu2
		}
		p.Lambda[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var v float64
			switch {
			case j < n1:
				v = l11
			case i >= n1:
				v = l22
			default:
				v = l12
			}
			p.Lambda[i][j] = v
			p.Lambda[j][i] = v
		}
	}
	return p
}

// TestKronBackendMatchesEnumerated judges every matrix-free answer — moments,
// CDF/density grid, deadline and quantile — against the
// enumerated chain on random general-rate models: forced onto the kron route
// at n = 3..6, and routed there by NewAsync at n = 8..12 with EnumerateAsync
// as the full-cube reference. The moments are judged against dense LU on
// that chain up to n = 10, where it takes under a second.
func TestKronBackendMatchesEnumerated(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var sizes []int
	for trial := 0; trial < 6; trial++ {
		sizes = append(sizes, 3+rng.Intn(4))
	}
	for n := MaxEnumeratedProcesses + 1; n <= 12; n++ {
		sizes = append(sizes, n)
	}
	for trial, n := range sizes {
		p := randomParams(rng, n)
		if n > MaxEnumeratedProcesses {
			// Keep the interval short enough for the transient grid: scale
			// λ to ρ ∈ [0.2, 0.7).
			scale := (0.2 + 0.5*rng.Float64()) / p.Rho()
			for i := range p.Lambda {
				for j := range p.Lambda[i] {
					p.Lambda[i][j] *= scale
				}
			}
		}
		ref := forceEnumerated(t, p)
		mk := forceKron(p)
		if n > MaxEnumeratedProcesses {
			mk = mustAsync(t, p)
			if mk.Route() != "kron" {
				t.Fatalf("n = %d general rates route to %s, want kron", n, mk.Route())
			}
		}

		km1, km2, err := mk.MomentsX()
		if err != nil {
			t.Fatalf("trial %d: kron moments: %v", trial, err)
		}
		if n <= 10 {
			em1, em2, err := ref.Chain().AbsorptionMomentsDense(ref.Entry())
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(km1-em1) > 1e-8*em1 || math.Abs(km2-em2) > 1e-8*em2 {
				t.Fatalf("trial %d n=%d: kron moments (%g, %g) deviate from enumerated (%g, %g)", trial, n, km1, km2, em1, em2)
			}
		}

		times := make([]float64, 65)
		for i := range times {
			times[i] = 4 * km1 * float64(i) / float64(len(times)-1)
		}
		ecdf, kcdf := ref.CDFX(times), mk.CDFX(times)
		eden, kden := ref.DensityX(times), mk.DensityX(times)
		for i := range times {
			if math.Abs(kcdf[i]-ecdf[i]) > 1e-10 || math.Abs(kden[i]-eden[i]) > 1e-10 {
				t.Fatalf("trial %d n=%d t=%g: CDF %g density %g, enumerated says %g %g", trial, n, times[i], kcdf[i], kden[i], ecdf[i], eden[i])
			}
		}

		ep, err := ref.DeadlineMissProb(km1)
		if err != nil {
			t.Fatal(err)
		}
		kp, err := mk.DeadlineMissProb(km1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(kp-ep) > 1e-9*ep {
			t.Fatalf("trial %d n=%d: deadline-miss %g, enumerated says %g", trial, n, kp, ep)
		}
		eq, err := ref.QuantileX(0.9)
		if err != nil {
			t.Fatal(err)
		}
		kq, err := mk.QuantileX(0.9)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(kq-eq) > 1e-7*eq {
			t.Fatalf("trial %d n=%d: quantile %g, enumerated says %g", trial, n, kq, eq)
		}
	}
}

// TestOrbitMatchesEnumerated checks the orbit route, its count-form moments
// and its lumped chain's transients, against the full enumeration (dense LU
// for the moments) on partially-exchangeable rates, and that non-lumpable
// rate structures are refused.
func TestOrbitMatchesEnumerated(t *testing.T) {
	p := twoClassParams(4, 2, 1.0, 2.5, 0.3, 0.8, 0.5)
	ref, err := NewAsync(p)
	if err != nil {
		t.Fatal(err)
	}
	mo := forceOrbit(t, p)
	if got, want := mo.states, 5*3+1; got != want {
		t.Fatalf("orbit states = %d, want %d", got, want)
	}
	em1, em2, err := ref.Chain().AbsorptionMomentsDense(ref.Entry())
	if err != nil {
		t.Fatal(err)
	}
	om1, om2, err := mo.MomentsX()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(om1-em1) > 1e-10*em1 || math.Abs(om2-em2) > 1e-10*em2 {
		t.Fatalf("orbit moments (%g, %g) deviate from enumerated (%g, %g)", om1, om2, em1, em2)
	}
	times := []float64{0.5 * em1, 2 * em1}
	ecdf, ocdf := ref.CDFX(times), mo.CDFX(times)
	for i := range times {
		if math.Abs(ocdf[i]-ecdf[i]) > 1e-9 {
			t.Fatalf("CDF(%g) = %g, enumerated says %g", times[i], ocdf[i], ecdf[i])
		}
	}

	// Fully distinct rates: nothing to lump.
	rng := rand.New(rand.NewSource(5))
	if lumpClasses(randomParams(rng, 5)) != nil {
		t.Fatal("distinct-rate params reported lumpable")
	}
	// Same μ everywhere but one broken λ block: strong lumpability fails.
	broken := twoClassParams(3, 3, 1, 2, 0.4, 0.4, 0.6)
	broken.Lambda[0][1], broken.Lambda[1][0] = 0.9, 0.9
	if lumpClasses(broken) != nil {
		t.Fatal("block-broken λ reported lumpable")
	}
}

// TestAsyncRouting pins the grid operator's selection rule:
// enumeration up to MaxEnumeratedProcesses, then orbit lumping when the
// rates collapse onto fewer than markov.KronCutoff cells, matrix-free
// otherwise.
func TestAsyncRouting(t *testing.T) {
	for _, c := range []struct {
		p     Params
		route string
	}{
		{Uniform(MaxEnumeratedProcesses, 1, 0.5), "enumerated"},
		{wallRamp(MaxEnumeratedProcesses, 1), "enumerated"},
		{Uniform(MaxEnumeratedProcesses+1, 1, 0.5), "orbit"},
		{wallRamp(MaxEnumeratedProcesses+1, 1), "kron"},
		{twoClassParams(9, 8, 1, 3, 0.2, 0.3, 0.25), "orbit"},
		{randomParams(rand.New(rand.NewSource(77)), 17), "kron"},
	} {
		m := mustAsync(t, c.p)
		if m.Route() != c.route || (m.Chain() != nil) != (c.route == "enumerated") {
			t.Errorf("n=%d route = %s (chain nil: %v), want %s", c.p.N(), m.Route(), m.Chain() == nil, c.route)
		}
	}

	if _, err := NewAsync(Uniform(MaxExactProcesses+1, 1, 0.5)); err == nil {
		t.Fatal("n beyond MaxExactProcesses accepted")
	}
	if _, err := NewSplitChain(Uniform(MaxSplitProcesses+1, 1, 0.5), 0); err == nil {
		t.Fatal("split chain beyond MaxSplitProcesses accepted")
	}
	if _, err := EnumerateAsync(Uniform(maxEnumerateProcesses+1, 1, 0.5)); err == nil {
		t.Fatal("enumeration beyond maxEnumerateProcesses accepted")
	}
}

// TestLargeNKronMatchesOrbit is the past-the-wall equivalence run inside
// ordinary `go test`: at n = 17 a two-class workload solves both by orbit
// lumping (36 lumped states, exact) and by the forced matrix-free engine on
// the full 2^17 cube; at n = 18 the uniform workload judges the forced
// engine against the symmetric model's one-class count form. This is the
// cheap end of the proof grid — the n ∈ {20, 24} cells live in the xval
// grid and the benchmarks.
func TestLargeNKronMatchesOrbit(t *testing.T) {
	if testing.Short() {
		t.Skip("2^17-state matrix-free solves")
	}
	p := twoClassParams(9, 8, 1.0, 2.0, 0.05, 0.08, 0.06)
	orb := forceOrbit(t, p)
	om1, om2, err := orb.MomentsX()
	if err != nil {
		t.Fatal(err)
	}
	mk := forceKron(p)
	km1, km2, err := mk.MomentsX()
	if err != nil {
		t.Fatalf("n=17 kron moments: %v", err)
	}
	if math.Abs(km1-om1) > 1e-7*om1 || math.Abs(km2-om2) > 1e-7*om2 {
		t.Fatalf("n=17 kron moments (%g, %g) deviate from orbit (%g, %g)", km1, km2, om1, om2)
	}

	const n = 18
	sym, err := NewSymmetric(n, 1, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	sm1, sm2, err := sym.MomentsX()
	if err != nil {
		t.Fatal(err)
	}
	auto, err := NewAsync(Uniform(n, 1, 0.04))
	if err != nil {
		t.Fatal(err)
	}
	if auto.Route() != "orbit" {
		t.Fatalf("uniform n=18 route = %s, want orbit", auto.Route())
	}
	kk := forceKron(Uniform(n, 1, 0.04))
	km1, km2, err = kk.MomentsX()
	if err != nil {
		t.Fatalf("n=18 kron moments: %v", err)
	}
	if math.Abs(km1-sm1) > 1e-7*sm1 || math.Abs(km2-sm2) > 1e-7*sm2 {
		t.Fatalf("n=18 kron moments (%g, %g) deviate from symmetric (%g, %g)", km1, km2, sm1, sm2)
	}
}

// TestKronLadderFaultInjection forces the matrix-free moment ladder off its
// kron-renewal rung through the model surface: depth 1 lands on kron-krylov
// and depth 2 on kron-uniformization (both exact, not degraded), deeper and
// saturating depths clamp onto the degraded kron-mc rung, and the healthy
// answer is reproduced within each rung's tolerance.
func TestKronLadderFaultInjection(t *testing.T) {
	p := randomParams(rand.New(rand.NewSource(41)), 6)
	m := forceKron(p)
	h1, h2, err := m.MomentsX()
	if err != nil {
		t.Fatal(err)
	}
	rungs := []string{"kron-renewal", "kron-krylov", "kron-uniformization", "kron-mc"}
	last := len(rungs) - 1
	for _, depth := range []int{1, 2, 3, 4, 9} {
		rec := &guard.Recorder{}
		ctx := guard.WithRecorder(guard.WithFaults(context.Background(), guard.FaultSpec{Depth: depth}), rec)
		f1, f2, err := m.MomentsXCtx(ctx)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		ev := rec.Events()
		if len(ev) != 1 || ev[0].Block != "markov/absorption-moments" {
			t.Fatalf("depth %d: events = %+v", depth, ev)
		}
		wantRung := min(depth, last)
		if ev[0].Attempt != wantRung || ev[0].Route != rungs[wantRung] || ev[0].Degraded != (wantRung == last) {
			t.Fatalf("depth %d: landed on rung %d %s (degraded %v)", depth, ev[0].Attempt, ev[0].Route, ev[0].Degraded)
		}
		switch {
		case wantRung < last:
			if math.Abs(f1-h1) > 1e-6*h1 || math.Abs(f2-h2) > 1e-6*h2 {
				t.Fatalf("depth %d: fallback moments (%g, %g) deviate from healthy (%g, %g)", depth, f1, f2, h1, h2)
			}
		default:
			se := math.Sqrt((h2 - h1*h1) / 2048)
			if math.Abs(f1-h1) > 6*se {
				t.Fatalf("depth %d: MC mean %g is %.1f SE from %g", depth, f1, math.Abs(f1-h1)/se, h1)
			}
		}
	}
}

// kronDenseColumn materializes column t of the KronOp by applying it to a
// basis vector.
func kronDenseColumn(e *kronEngine, dst, basis []float64, t int) {
	for i := range basis {
		basis[i] = 0
	}
	basis[t] = 1
	e.op.MulVecInto(dst, basis)
}

// FuzzKronFactorBuilder drives random rate vectors through the checkpoint
// codec (the canonical byte round-trip) into Params, builds the Kronecker
// factors, and checks the operator agrees with the enumerated generator
// (built by cubeRows, the only other place the rules are written down) row
// for row.
func FuzzKronFactorBuilder(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint8(3))
	f.Add([]byte{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, uint8(4)) // uniform → exchange path
	f.Add([]byte{0, 0, 7}, uint8(2))
	f.Add([]byte{255, 1, 128, 64, 32, 200, 17, 5, 90, 250, 33, 2}, uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, nRaw uint8) {
		n := 2 + int(nRaw)%5 // 2..6
		need := n + n*(n-1)/2
		ints := make(core.Ints, need)
		for k := range ints {
			if len(raw) > 0 {
				ints[k] = int64(raw[k%len(raw)])
			}
		}
		enc, err := core.EncodeState(ints)
		if err != nil {
			t.Fatal(err)
		}
		back, err := core.DecodeState(enc)
		if err != nil {
			t.Fatal(err)
		}
		ints = back.(core.Ints)

		p := Params{Mu: make([]float64, n), Lambda: make([][]float64, n)}
		for i := range p.Mu {
			p.Mu[i] = 0.1 + float64(ints[i]%97)/16
			p.Lambda[i] = make([]float64, n)
		}
		k := n
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := float64(ints[k]%53) / 8
				p.Lambda[i][j], p.Lambda[j][i] = v, v
				k++
			}
		}
		ref := forceEnumerated(t, p)
		eng := newKronEngine(p)
		dim := 1 << n
		ones := dim - 1
		// Reference rows from the enumerated chain, entry mapped onto the
		// all-ones vertex and absorption dropped (implicit in the operator).
		cubeOf := func(state int) int {
			if state == ref.Entry() {
				return ones
			}
			return state - 1
		}
		want := make([][]float64, dim)
		for s := range want {
			want[s] = make([]float64, dim)
		}
		c := ref.Chain()
		for state := 0; state < ref.NumStates()-1; state++ {
			s := cubeOf(state)
			want[s][s] -= c.OutRate(state)
			for _, e := range c.Transitions(state) {
				if e.To != ref.Absorbing() {
					want[s][cubeOf(e.To)] += e.Rate
				}
			}
		}
		col := make([]float64, dim)
		basis := make([]float64, dim)
		for j := 0; j < dim; j++ {
			kronDenseColumn(eng, col, basis, j)
			for i := 0; i < dim; i++ {
				if math.Abs(col[i]-want[i][j]) > 1e-10*(1+math.Abs(want[i][j])) {
					t.Fatalf("Q[%b][%b] = %g, enumerated says %g", i, j, col[i], want[i][j])
				}
			}
		}
	})
}
