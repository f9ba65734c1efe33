package rbmodel

import (
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"recoveryblocks/internal/linalg"
	"recoveryblocks/internal/markov"
)

// gaussSeidelFactor assembles D + U for the cube from cubeRows, the
// enumerated chain's rule set: the diagonal is minus every outflow
// (absorption included) and U is the part of the rows above the diagonal.
// It also checks the structural claim the sweep rests on: every transition
// to a larger index sets exactly one bit.
func gaussSeidelFactor(t testing.TB, p Params) [][]float64 {
	t.Helper()
	dim := 1 << p.N()
	m := make([][]float64, dim)
	for s := range m {
		m[s] = make([]float64, dim)
		cubeRows(p, s, func(to int, rate float64) {
			m[s][s] -= rate
			if to > s {
				if d := to ^ s; d&(d-1) != 0 || to&s != s {
					t.Fatalf("transition %b → %b runs up the index order without setting one bit", s, to)
				}
				m[s][to] += rate
			}
		})
	}
	return m
}

// checkGaussSeidelExact applies the sweep to (D + U)·x, once into a fresh
// vector and once in place; both must give x back to 1e-12.
func checkGaussSeidelExact(t testing.TB, p Params, rng *rand.Rand) {
	t.Helper()
	m := gaussSeidelFactor(t, p)
	dim := len(m)
	kp := newKronPrecond(newKronEngine(p).op, p)
	x := make([]float64, dim)
	for i := range x {
		x[i] = rng.Float64() - 0.5
	}
	b, y := make([]float64, dim), make([]float64, dim)
	for s := range m {
		for c, v := range m[s] {
			b[s] += v * x[c]
		}
	}
	kp.sweep(y, b)
	kp.sweep(b, b)
	for s := range y {
		for _, got := range []float64{y[s], b[s]} {
			if d := math.Abs(got - x[s]); d > 1e-12 || math.IsNaN(got) {
				t.Fatalf("n=%d sweep: y[%d] = %.17g, want %.17g", p.N(), s, got, x[s])
			}
		}
	}
}

// TestKronGaussSeidelExact: the fine level of the preconditioner is the exact
// inverse of D + U, for uniform λ (the exchange family) and per-pair λ (one
// factor per pair), also when it runs in place as the preconditioner runs it.
func TestKronGaussSeidelExact(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for n := 2; n <= 7; n++ {
		checkGaussSeidelExact(t, wallRamp(n, 1.5), rng)
		checkGaussSeidelExact(t, randomParams(rng, n), rng)
	}
}

// FuzzKronGaussSeidel drives fuzzed rates at n ≤ 8 through the same
// exactness check.
func FuzzKronGaussSeidel(f *testing.F) {
	addRateSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte, nRaw uint8, seed int64) {
		p := fuzzParams(raw, 2+int(nRaw)%7) // 2..8
		checkGaussSeidelExact(t, p, rand.New(rand.NewSource(seed)))
	})
}

// addRateSeeds seeds a rate fuzzer: a spread of μ and λ bytes, a uniform
// row (the exchange path) and a sparse one.
func addRateSeeds(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint8(3), int64(1))
	f.Add([]byte{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, uint8(4), int64(2)) // uniform → exchange path
	f.Add([]byte{0, 0, 7}, uint8(0), int64(3))
	f.Add([]byte{255, 1, 128, 64, 32, 200, 17, 5, 90, 250, 33, 2}, uint8(6), int64(4))
}

// fuzzParams reads n rates μ_i ∈ [0.05, 8] and then the C(n, 2) pair rates
// λ_ij ∈ [0, 16) from the fuzzed bytes, cycling through them.
func fuzzParams(raw []byte, n int) Params {
	byteAt := func(k int) float64 {
		if len(raw) == 0 {
			return 0
		}
		return float64(raw[k%len(raw)])
	}
	p := Params{Mu: make([]float64, n), Lambda: make([][]float64, n)}
	for i := range p.Mu {
		p.Mu[i] = 0.05 + byteAt(i)/32
		p.Lambda[i] = make([]float64, n)
	}
	k := n
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := byteAt(k) / 16
			p.Lambda[i][j], p.Lambda[j][i] = v, v
			k++
		}
	}
	return p
}

// checkCoarseResidual compares coarseResidual's closed form for Q_T·P·c with
// the operator applied to P·c, for level values c drawn from rng. Row s must
// agree to 1e-13 of its absolute scale 2·|D[s]|·‖c‖∞ (the off-diagonal mass
// of a generator row is at most |D[s]|).
func checkCoarseResidual(t testing.TB, p Params, rng *rand.Rand) {
	t.Helper()
	e := newKronEngine(p)
	kp := newKronPrecond(e.op, p)
	n, dim := p.N(), e.op.Dim()
	c := make([]float64, n+1)
	normC := 0.0
	for u := range c {
		c[u] = 2*rng.Float64() - 1
		normC = max(normC, math.Abs(c[u]))
	}
	pc, want, got := make([]float64, dim), make([]float64, dim), make([]float64, dim)
	for s := range pc {
		pc[s] = c[bits.OnesCount(uint(s))]
	}
	e.op.MulVecInto(want, pc)
	kp.coarseResidual(got, make([]float64, dim), c) // −Q_T·P·c
	for s := range got {
		if d := math.Abs(got[s] + want[s]); !(d <= 1e-13*2*math.Abs(kp.diag[s])*normC) {
			t.Fatalf("n=%d: row %b of Q_T·P·c = %.17g, closed form %.17g", n, s, want[s], -got[s])
		}
	}
}

// TestKronCoarseResidualMatchesOperator: the closed-form Q_T·P·c of the
// coarse-first preconditioner is the operator's, for n = 2..10 under uniform
// λ (the exchange family), a hot pair and random per-pair λ.
func TestKronCoarseResidualMatchesOperator(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for n := 2; n <= 10; n++ {
		for _, p := range []Params{wallRamp(n, 1.5), hotPairRamp(n, 4), randomParams(rng, n)} {
			checkCoarseResidual(t, p, rng)
		}
	}
}

// FuzzKronCoarseResidual drives fuzzed rates at n ≤ 10 through the same
// check.
func FuzzKronCoarseResidual(f *testing.F) {
	addRateSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte, nRaw uint8, seed int64) {
		p := fuzzParams(raw, 2+int(nRaw)%9) // 2..10
		checkCoarseResidual(t, p, rand.New(rand.NewSource(seed)))
	})
}

// hotPairRamp is wallRamp with one pair, (0, 1), interacting ten times as
// often as every other pair, at the same total intensity ρ.
func hotPairRamp(n int, rho float64) Params {
	p := wallRamp(n, rho)
	pairs := float64(n * (n - 1) / 2)
	lambda := rho * p.SumMu() / (2 * (pairs + 9))
	for i := range p.Lambda {
		for j := range p.Lambda[i] {
			if i != j {
				p.Lambda[i][j] = lambda
			}
		}
	}
	p.Lambda[0][1], p.Lambda[1][0] = 10*lambda, 10*lambda
	return p
}

// momentIterations runs the moment pair Q_T·h = −1, Q_T·h2 = −2h on BiCGSTAB
// under the matrix-free ladder's options and returns the operator
// applications of each solve (two per BiCGSTAB step, as the solver counts
// them).
func momentIterations(t *testing.T, p Params) (it1, it2 int) {
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
	h, it1, err := linalg.SolveBiCGSTAB(e.op, rhs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rhs {
		rhs[i] = -2 * h[i]
	}
	opts.MaxIters -= it1
	if _, it2, err = linalg.SolveBiCGSTAB(e.op, rhs, opts); err != nil {
		t.Fatal(err)
	}
	return it1, it2
}

// TestKronPrecondIterationsPinned pins the Krylov iterations of both moment
// solves at n = 14 across interaction intensities, for uniform λ and a hot
// pair, and bounds every solve at 40. Under the Jacobi fine level this grid
// took 39–62 per solve, and under the additive two-level form 20–33 but 52
// for the second hot-pair solve at ρ = 8, where BiCGSTAB's residual wandered
// near the threshold. The coarse-first form takes 13–24 at the tighter
// KronMomentTol. Over 128 seeded moment pairs at n = 12 and 14,
// ρ ∈ {0.5, 1, 2, 8}, uniform and hot-pair λ, no solve went past 26 (the
// additive form: two pairs past 40, at most 50).
func TestKronPrecondIterationsPinned(t *testing.T) {
	want := map[string][6][2]int{
		"uniform":  {{14, 14}, {21, 21}, {24, 24}, {19, 19}, {18, 19}, {16, 18}},
		"hot-pair": {{13, 13}, {20, 21}, {23, 23}, {21, 21}, {20, 20}, {17, 15}},
	}
	for _, family := range []string{"uniform", "hot-pair"} {
		for k, rho := range []float64{0.1, 0.5, 1, 2, 4, 8} {
			p := wallRamp(14, rho)
			if family == "hot-pair" {
				p = hotPairRamp(14, rho)
			}
			if math.Abs(p.Rho()-rho) > 1e-12*rho {
				t.Fatalf("%s: ρ = %g, want %g", family, p.Rho(), rho)
			}
			it1, it2 := momentIterations(t, p)
			if it1 > 40 || it2 > 40 {
				t.Errorf("%s ρ=%g: moment solves took %d and %d iterations, bound 40", family, rho, it1, it2)
			}
			if got := [2]int{it1, it2}; got != want[family][k] {
				t.Errorf("%s ρ=%g: moment solves took %v iterations, pinned %v", family, rho, got, want[family][k])
			}
		}
	}
}

// TestKronMomentsMatchEnumeratedAcrossRho judges the kron moment pair, from
// the kron-renewal primary and from the kron-krylov rung behind it, against
// the enumerated chain at 1e-6 relative up to ρ = 8. On the Krylov rung the
// coarse level is what holds the forward error there: Gauss–Seidel alone
// stops on the same residual 2.6e-6 away in E[X] and 4.1e-6 in E[X²] at
// n = 12, ρ = 8.
func TestKronMomentsMatchEnumeratedAcrossRho(t *testing.T) {
	for _, n := range []int{10, 12} {
		for _, rho := range []float64{1, 4, 8} {
			p := wallRamp(n, rho)
			e1, e2, err := forceEnumerated(t, p).MomentsX()
			if err != nil {
				t.Fatal(err)
			}
			m := forceKron(p)
			r1, r2, err := m.MomentsX()
			if err != nil {
				t.Fatalf("n=%d ρ=%g: %v", n, rho, err)
			}
			k1, k2 := krylovRungMoments(t, m)
			for _, got := range [][2]float64{{r1, r2}, {k1, k2}} {
				if math.Abs(got[0]-e1) > 1e-6*e1 || math.Abs(got[1]-e2) > 1e-6*e2 {
					t.Errorf("n=%d ρ=%g: kron moments (%.17g, %.17g), enumerated (%.17g, %.17g)", n, rho, got[0], got[1], e1, e2)
				}
			}
		}
	}
}

// TestKronApplicationsDoNotAllocate: the operator in both directions, the
// preconditioner and its in-place sweep run inside every Krylov iteration and
// allocate nothing once the operator's scratch exists, below blockBits
// (n = 9) and past it (n = 16, 17), where they split their passes between
// two goroutines: GOMAXPROCS is 2 here whatever the machine's core count.
func TestKronApplicationsDoNotAllocate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rng := rand.New(rand.NewSource(7))
	for _, p := range []Params{wallRamp(9, 1), randomParams(rng, 9), wallRamp(16, 1), wallRamp(17, 1), hotPairRamp(17, 1)} {
		e := newKronEngine(p)
		kp := newKronPrecond(e.op, p)
		x, y := make([]float64, e.op.Dim()), make([]float64, e.op.Dim())
		for i := range x {
			x[i] = rng.Float64()
		}
		for _, c := range []struct {
			name  string
			apply func(dst, src []float64)
		}{
			{"MulVecInto", e.op.MulVecInto},
			{"MulVecTransInto", e.op.MulVecTransInto},
			{"precond forward", kp.forward},
			{"in-place sweep", func(dst, _ []float64) { kp.sweep(dst, dst) }},
		} {
			if a := testing.AllocsPerRun(5, func() { c.apply(y, x) }); a != 0 {
				_, pairs, _, exchange := e.op.NNZTerms()
				t.Errorf("n=%d %s (pairs %d, exchange %v): %v allocations per application", p.N(), c.name, pairs, exchange, a)
			}
		}
	}
}

// TestKronIsCoreCountInvariant: past 2^16 states the preconditioner
// splits its passes between two goroutines and pipelines its sweep across
// the top bit, and the operator shards its passes; the preconditioner (for
// uniform and hot-pair λ) and the whole n = 16 moment pair on the
// kron-krylov rung must come out bit for bit as on one goroutine. Two solves on distinct operators at once
// share one helper, so one of them runs its passes inline; both must still
// match.
func TestKronIsCoreCountInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(16))
	type engine struct {
		name string
		op   *linalg.KronOp
		kp   *kronPrecond
		x    []float64
	}
	var engines []engine
	for _, c := range []struct {
		name string
		p    Params
	}{{"uniform", wallRamp(16, 1)}, {"hot pair", hotPairRamp(16, 4)}, {"uniform n=17", wallRamp(17, 2)}} {
		e := newKronEngine(c.p)
		x := make([]float64, e.op.Dim())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		engines = append(engines, engine{c.name, e.op, newKronPrecond(e.op, c.p), x})
	}
	// apply runs the operator and the preconditioner on x, one after the
	// other, as a Krylov step does.
	apply := func(e engine) (av, mv []float64) {
		av, mv = make([]float64, len(e.x)), make([]float64, len(e.x))
		e.op.MulVecInto(av, e.x)
		e.kp.forward(mv, e.x)
		return av, mv
	}
	same := func(a, b []float64) int {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return i
			}
		}
		return -1
	}

	runtime.GOMAXPROCS(1)
	wantA, wantM := make([][]float64, len(engines)), make([][]float64, len(engines))
	for i, e := range engines {
		wantA[i], wantM[i] = apply(e)
	}
	m1, m2 := krylovRungMoments(t, forceKron(wallRamp(16, 1)))

	runtime.GOMAXPROCS(2)
	for i, e := range engines {
		av, mv := apply(e)
		if k := same(wantA[i], av); k >= 0 {
			t.Errorf("%s: operator element %d = %v on two cores, %v on one", e.name, k, av[k], wantA[i][k])
		}
		if k := same(wantM[i], mv); k >= 0 {
			t.Errorf("%s: preconditioner element %d = %v on two cores, %v on one", e.name, k, mv[k], wantM[i][k])
		}
	}
	if g1, g2 := krylovRungMoments(t, forceKron(wallRamp(16, 1))); math.Float64bits(g1) != math.Float64bits(m1) || math.Float64bits(g2) != math.Float64bits(m2) {
		t.Errorf("n=16 moment pair (%.17g, %.17g) on two cores, (%.17g, %.17g) on one", g1, g2, m1, m2)
	}

	var wg sync.WaitGroup
	for _, i := range []int{0, 1} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 10 {
				av, mv := apply(engines[i])
				if k := same(wantA[i], av); k >= 0 {
					t.Errorf("%s beside another solve: operator element %d differs", engines[i].name, k)
					return
				}
				if k := same(wantM[i], mv); k >= 0 {
					t.Errorf("%s beside another solve: preconditioner element %d differs", engines[i].name, k)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestKronSweepPanicReleasesTheLowerHalf: the lower half of a split sweep
// waits on the upper half's progress, so an upper half that panics must let
// it go. The diagonal is cut to the lower half here, so the upper half
// panics at its first vertex while the lower half runs on another
// goroutine.
func TestKronSweepPanicReleasesTheLowerHalf(t *testing.T) {
	p := wallRamp(16, 1)
	kp := newKronPrecond(newKronEngine(p).op, p)
	dim := 1 << 16
	r := make([]float64, dim)
	for i := range r {
		r[i] = 1
	}
	j := &kp.job
	j.stage, j.y, j.r = stageSweep, make([]float64, dim), r
	j.upper.Store(0)
	kp.diag = kp.diag[:dim/2]
	lower := make(chan any, 1)
	go func() {
		defer func() { lower <- recover() }()
		j.RunRange(0, dim/2)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the upper half did not panic")
			}
		}()
		j.RunRange(dim/2, dim)
	}()
	select {
	case v := <-lower:
		if v != nil {
			t.Errorf("the lower half panicked: %v", v)
		}
	case <-time.After(time.Minute):
		t.Fatal("the lower half still waits on an upper half that panicked")
	}
}
