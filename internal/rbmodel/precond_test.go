package rbmodel

import (
	"math"
	"math/rand"
	"testing"

	"recoveryblocks/internal/linalg"
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

// checkGaussSeidelExact applies the forward sweep to (D + U)·x and the
// transposed sweep to (D + U)ᵀ·x; both must give x back to 1e-12.
func checkGaussSeidelExact(t testing.TB, p Params, rng *rand.Rand) {
	t.Helper()
	m := gaussSeidelFactor(t, p)
	dim := len(m)
	kp := newKronPrecond(newKronEngine(p).op, p)
	x := make([]float64, dim)
	for i := range x {
		x[i] = rng.Float64() - 0.5
	}
	b, bt, y := make([]float64, dim), make([]float64, dim), make([]float64, dim)
	for s := range m {
		for c, v := range m[s] {
			b[s] += v * x[c]
			bt[c] += v * x[s]
		}
	}
	for _, dir := range []struct {
		name  string
		sweep func(y, r []float64)
		rhs   []float64
	}{{"forward", kp.sweep, b}, {"transposed", kp.sweepT, bt}} {
		dir.sweep(y, dir.rhs)
		for s := range y {
			if d := math.Abs(y[s] - x[s]); d > 1e-12 || math.IsNaN(y[s]) {
				t.Fatalf("n=%d %s sweep: y[%d] = %.17g, want %.17g", p.N(), dir.name, s, y[s], x[s])
			}
		}
	}
}

// TestKronGaussSeidelExact: the fine level of the preconditioner is the exact
// inverse of D + U, forward and transposed, for uniform λ (the exchange
// family) and per-pair λ (one factor per pair).
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
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint8(3), int64(1))
	f.Add([]byte{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, uint8(4), int64(2)) // uniform → exchange path
	f.Add([]byte{0, 0, 7}, uint8(0), int64(3))
	f.Add([]byte{255, 1, 128, 64, 32, 200, 17, 5, 90, 250, 33, 2}, uint8(6), int64(4))
	f.Fuzz(func(t *testing.T, raw []byte, nRaw uint8, seed int64) {
		n := 2 + int(nRaw)%7 // 2..8
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
		checkGaussSeidelExact(t, p, rand.New(rand.NewSource(seed)))
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
		Tol:      1e-12,
		NormA:    2 * p.TotalEventRate(),
		Precond:  newKronPrecond(e.op, p).forward,
	}
	rhs := make([]float64, e.op.Dim())
	for i := range rhs {
		rhs[i] = -1
	}
	h, it1, err := linalg.SolveBiCGSTAB(e.op, false, rhs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rhs {
		rhs[i] = -2 * h[i]
	}
	opts.MaxIters -= it1
	if _, it2, err = linalg.SolveBiCGSTAB(e.op, false, rhs, opts); err != nil {
		t.Fatal(err)
	}
	return it1, it2
}

// TestKronPrecondIterationsPinned pins the Krylov iterations of both moment
// solves at n = 14 across interaction intensities, for uniform λ and a hot
// pair. Under the Jacobi fine level this grid took 39–62 per solve. Now 23
// of the 24 solves take 20–33. The second hot-pair solve at ρ = 8 takes 52
// without a restart: its residual stays within a factor of 300 of the
// stopping threshold for its last 22 iterations. That is BiCGSTAB's
// irregular convergence on the high-ρ chain, where a rounding-level change
// to the preconditioner (multiplying by 1/D instead of dividing by D) moves
// single counts by up to 25. Over 128 seeded moment pairs at n = 12 and 14,
// ρ = 0.5..8, one pair went past 40 with the division and three with the
// multiplication.
func TestKronPrecondIterationsPinned(t *testing.T) {
	want := map[string][6][2]int{
		"uniform":  {{20, 21}, {30, 31}, {32, 32}, {31, 31}, {27, 32}, {22, 20}},
		"hot-pair": {{20, 21}, {32, 30}, {31, 32}, {27, 31}, {28, 33}, {25, 52}},
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
			if got := [2]int{it1, it2}; got != want[family][k] {
				t.Errorf("%s ρ=%g: moment solves took %v iterations, pinned %v", family, rho, got, want[family][k])
			}
		}
	}
}

// TestKronMomentsMatchEnumeratedAcrossRho judges the kron moment pair against
// the enumerated chain at 1e-6 relative up to ρ = 8. The coarse level is
// what holds the forward error there: Gauss–Seidel alone stops on the same
// residual 2.6e-6 away in E[X] and 4.1e-6 in E[X²] at n = 12, ρ = 8.
func TestKronMomentsMatchEnumeratedAcrossRho(t *testing.T) {
	for _, n := range []int{10, 12} {
		for _, rho := range []float64{1, 4, 8} {
			p := wallRamp(n, rho)
			e1, e2, err := forceEnumerated(t, p).MomentsX()
			if err != nil {
				t.Fatal(err)
			}
			k1, k2, err := forceKron(p).MomentsX()
			if err != nil {
				t.Fatalf("n=%d ρ=%g: %v", n, rho, err)
			}
			if math.Abs(k1-e1) > 1e-6*e1 || math.Abs(k2-e2) > 1e-6*e2 {
				t.Errorf("n=%d ρ=%g: kron moments (%.17g, %.17g), enumerated (%.17g, %.17g)", n, rho, k1, k2, e1, e2)
			}
		}
	}
}

// TestKronApplicationsDoNotAllocate: the operator and both preconditioner
// directions run inside every Krylov iteration and allocate nothing once the
// operator's scratch exists.
func TestKronApplicationsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range []Params{wallRamp(9, 1), randomParams(rng, 9)} {
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
			{"precond transposed", kp.transposed},
		} {
			if a := testing.AllocsPerRun(5, func() { c.apply(y, x) }); a != 0 {
				_, pairs, _, exchange := e.op.NNZTerms()
				t.Errorf("%s (pairs %d, exchange %v): %v allocations per application", c.name, pairs, exchange, a)
			}
		}
	}
}
