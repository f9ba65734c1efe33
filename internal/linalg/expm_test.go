package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// csrFromDense builds a CSR copy of a dense matrix (zeros skipped).
func csrFromDense(a *Matrix) *CSR {
	b := NewCSRBuilder(a.Rows, a.Rows*a.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if v := a.At(i, j); v != 0 {
				b.Add(i, j, v)
			}
		}
	}
	return b.Build()
}

// randomDiagDominant returns a strictly diagonally dominant random matrix —
// guaranteed nonsingular, the shape of the shifted-generator systems the
// Krylov layer solves.
func randomDiagDominant(rng *rand.Rand, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		row := 0.0
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := rng.NormFloat64()
			a.Set(i, j, v)
			row += math.Abs(v)
		}
		a.Set(i, i, row+1+rng.Float64())
	}
	return a
}

func TestExpmMatchesSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(10)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		got := Expm(a)
		// Taylor series with scaling: e^A = (e^{A/2^k})^{2^k}.
		const k = 10
		b := a.Clone().Scale(1 / float64(int64(1)<<k))
		want := Identity(n)
		term := Identity(n)
		for j := 1; j <= 20; j++ {
			term = matMul(term, b).Scale(1 / float64(j))
			want.AddMatrix(term)
		}
		for j := 0; j < k; j++ {
			want = matMul(want, want)
		}
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Fatalf("trial %d (n=%d): Expm deviates from series by %g", trial, n, d)
		}
	}
}

// TestKrylovExpvMatchesDense propagates a distribution under a random
// generator and compares against the dense matrix exponential.
func TestKrylovExpvMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 6; trial++ {
		n := 10 + rng.Intn(40)
		// Random generator: nonnegative off-diagonals, rows sum ≤ 0.
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			out := 0.0
			for j := 0; j < n; j++ {
				if i == j || rng.Float64() < 0.6 {
					continue
				}
				v := 2 * rng.Float64()
				a.Set(i, j, v)
				out += v
			}
			a.Set(i, i, -out-0.1*rng.Float64())
		}
		v := make([]float64, n)
		v[rng.Intn(n)] = 1
		tHoriz := 0.5 + 2*rng.Float64()

		// Dense reference: w = e^{tAᵀ}·v.
		at := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				at.Set(i, j, a.At(j, i)*tHoriz)
			}
		}
		want := Expm(at).MulVec(v)

		got, _, err := KrylovExpv(csrFromDense(a), v, tHoriz, ExpvOpts{KrylovDim: 12})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("trial %d: w[%d] = %g, dense says %g", trial, i, got[i], want[i])
			}
		}
	}
}
