package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// normInfMatrix returns ‖a‖∞, the largest absolute row sum.
func normInfMatrix(a *Matrix) float64 {
	m := 0.0
	for i := 0; i < a.Rows; i++ {
		row := 0.0
		for j := 0; j < a.Cols; j++ {
			row += math.Abs(a.At(i, j))
		}
		m = math.Max(m, row)
	}
	return m
}

func transpose(a *Matrix) *Matrix {
	at := NewMatrix(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	return at
}

// TestBiCGSTABMatchesLU solves random nonsymmetric diagonally dominant CSR
// systems and their transposes, bare and Jacobi-preconditioned, and
// checks each answer against dense LU: the explicit residual meets the
// backward-error rule, and the forward error is within what that rule
// allows, ‖x − x_LU‖∞ ≤ ‖A⁻¹‖∞·Tol·(‖b‖∞ + ‖A‖∞·‖x‖∞).
func TestBiCGSTABMatchesLU(t *testing.T) {
	const tol = 1e-12
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 12; trial++ {
		n := 5 + rng.Intn(80)
		a := randomDiagDominant(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		trans := trial%2 == 1
		sys := a
		if trans {
			sys = transpose(a)
		}
		normA := normInfMatrix(sys)
		want, err := SolveLinear(sys.Clone(), b)
		if err != nil {
			t.Fatalf("trial %d: LU failed: %v", trial, err)
		}
		// ‖A⁻¹‖∞ from the LU inverse, column by column.
		lu, err := Factor(sys.Clone())
		if err != nil {
			t.Fatal(err)
		}
		inv := NewMatrix(n, n)
		for j := 0; j < n; j++ {
			e := make([]float64, n)
			e[j] = 1
			col, err := lu.Solve(e)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range col {
				inv.Set(i, j, v)
			}
		}
		normInv := normInfMatrix(inv)

		opts := KrylovOpts{Tol: tol, NormA: normA}
		if trial%4 >= 2 {
			diag := make([]float64, n)
			for i := range diag {
				diag[i] = sys.At(i, i)
			}
			opts.Precond = func(dst, src []float64) {
				for i := range dst {
					dst[i] = src[i] / diag[i]
				}
			}
		}
		got, iters, err := SolveBiCGSTAB(csrFromDense(sys), b, opts)
		if err != nil {
			t.Fatalf("trial %d (n=%d trans=%v): BiCGSTAB failed after %d applications: %v", trial, n, trans, iters, err)
		}
		r := sys.MulVec(got)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		bound := tol * (NormInf(b) + normA*NormInf(got))
		if res := NormInf(r); res > bound {
			t.Fatalf("trial %d: explicit residual %g exceeds the rule's %g", trial, res, bound)
		}
		fwd := normInv * bound
		for i := range got {
			if d := math.Abs(got[i] - want[i]); d > fwd+1e-15*math.Abs(want[i]) {
				t.Fatalf("trial %d (n=%d trans=%v): x[%d] = %g, LU says %g (|Δ| %g > bound %g)", trial, n, trans, i, got[i], want[i], d, fwd)
			}
		}
	}
}

func TestBiCGSTABBudgetExhaustion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomDiagDominant(rng, 50)
	b := make([]float64, 50)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, _, err := SolveBiCGSTAB(csrFromDense(a), b, KrylovOpts{MaxIters: 1, Tol: 1e-14})
	if !errors.Is(err, ErrNoConvergence) || x != nil {
		t.Fatalf("want ErrNoConvergence and no iterate from a 1-application budget, got %v, %v", x, err)
	}
}

// TestBiCGSTABBreakdown: on the rotation A = [[0, 1], [−1, 0]] and its
// transpose with b = e₁ the first direction is orthogonal to the shadow
// residual, (r̂, A·r̂) = 0, and the naive recurrence divides by zero. The
// solver must report the breakdown instead of returning NaN.
func TestBiCGSTABBreakdown(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, -1)
	for _, sys := range []*Matrix{a, transpose(a)} {
		x, _, err := SolveBiCGSTAB(csrFromDense(sys), []float64{1, 0}, KrylovOpts{})
		if !errors.Is(err, ErrNoConvergence) {
			t.Fatalf("A = %v: want ErrNoConvergence on breakdown, got %v (x = %v)", sys.Data, err, x)
		}
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("A = %v: breakdown returned a non-finite iterate %v", sys.Data, x)
			}
		}
	}
}

// TestBiCGSTABDeterministic: repeated calls return bit-identical answers and
// application counts.
func TestBiCGSTABDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := csrFromDense(transpose(randomDiagDominant(rng, 70)))
	b := make([]float64, 70)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	first, it0, err := SolveBiCGSTAB(a, b, KrylovOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		got, it, err := SolveBiCGSTAB(a, b, KrylovOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if it != it0 {
			t.Fatalf("rep %d: %d applications, first call took %d", rep, it, it0)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(first[i]) {
				t.Fatalf("rep %d: x[%d] = %v, first call gave %v", rep, i, got[i], first[i])
			}
		}
	}
}
