package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, -4)
	m.Add(1, 2, 1)
	if m.At(0, 0) != 1 || m.At(1, 2) != -3 {
		t.Fatalf("Set/Add/At broken: %v", m.Data)
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone is not a deep copy")
	}
}

func TestIdentityMulVec(t *testing.T) {
	m := Identity(4)
	x := []float64{1, 2, 3, 4}
	y := m.MulVec(x)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("I·x != x: %v", y)
		}
	}
}

func TestVecMulAgainstMulVecTranspose(t *testing.T) {
	// x·M must equal Mᵀ·x.
	rng := rand.New(rand.NewSource(2))
	m := NewMatrix(5, 7)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	x := make([]float64, 5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := m.VecMul(x)
	want := make([]float64, 7)
	for j := 0; j < 7; j++ {
		for i := 0; i < 5; i++ {
			want[j] += x[i] * m.At(i, j)
		}
	}
	for j := range want {
		if !approxEq(got[j], want[j], 1e-12) {
			t.Fatalf("VecMul mismatch at %d: %v vs %v", j, got[j], want[j])
		}
	}
}

func TestMulAssociativityWithVec(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewMatrix(4, 4)
	b := NewMatrix(4, 4)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
		b.Data[i] = rng.NormFloat64()
	}
	x := []float64{1, -2, 0.5, 3}
	left := matMul(a, b).MulVec(x)
	right := a.MulVec(b.MulVec(x))
	for i := range left {
		if !approxEq(left[i], right[i], 1e-10) {
			t.Fatalf("(AB)x != A(Bx) at %d", i)
		}
	}
}

func TestLUSolveKnownSystem(t *testing.T) {
	a := NewMatrix(3, 3)
	vals := [][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}}
	for i, row := range vals {
		for j, v := range row {
			a.Set(i, j, v)
		}
	}
	x, err := SolveLinear(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !approxEq(x[i], want[i], 1e-10) {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestLUSolveRandomResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		// Diagonal dominance guarantees nonsingularity.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)*2)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveLinear(a, b)
		if err != nil {
			t.Fatal(err)
		}
		r := a.MulVec(x)
		for i := range r {
			if !approxEq(r[i], b[i], 1e-8) {
				t.Fatalf("trial %d: residual %v at %d", trial, r[i]-b[i], i)
			}
		}
	}
}

// TestFactorInPlace: Factor overwrites its argument with the factors, while
// SolveLinear leaves its argument intact.
func TestFactorInPlace(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 3)
	a.Set(1, 1, 4)
	keep := a.Clone()
	if _, err := SolveLinear(a, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != keep.Data[i] {
			t.Fatalf("SolveLinear modified its argument: %v, want %v", a.Data, keep.Data)
		}
	}
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if f.lu != a {
		t.Fatal("Factor copied its argument instead of factoring it in place")
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := Factor(a); err == nil {
		t.Fatal("Factor accepted a singular matrix")
	}
}

func TestLUNeedsPivoting(t *testing.T) {
	// Zero top-left pivot forces a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := SolveLinear(a, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(x[0], 5, 1e-12) || !approxEq(x[1], 3, 1e-12) {
		t.Fatalf("pivoting solve wrong: %v", x)
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 6
	a := NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		a.Add(i, i, 10)
	}
	f, err := Factor(a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	inv, err := f.SolveMatrix(Identity(n))
	if err != nil {
		t.Fatal(err)
	}
	prod := matMul(a, inv)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !approxEq(prod.At(i, j), want, 1e-9) {
				t.Fatalf("A·A⁻¹ not identity at (%d,%d): %v", i, j, prod.At(i, j))
			}
		}
	}
}

func TestSolveMatrixMatchesColumnSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 5
	a := NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		a.Add(i, i, 8)
	}
	b := NewMatrix(n, 3)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.SolveMatrix(b)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		col := make([]float64, n)
		for i := 0; i < n; i++ {
			col[i] = b.At(i, j)
		}
		xj, err := f.Solve(col)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if !approxEq(x.At(i, j), xj[i], 1e-12) {
				t.Fatalf("SolveMatrix column %d mismatch", j)
			}
		}
	}
}

func TestVectorOps(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, -5, 6}
	if Dot(a, b) != 4-10+18 {
		t.Fatal("Dot wrong")
	}
	y := CloneVec(b)
	AXPY(2, a, y)
	if y[0] != 6 || y[1] != -1 || y[2] != 12 {
		t.Fatalf("AXPY wrong: %v", y)
	}
	if NormInf([]float64{-1, 2, -3}) != 3 {
		t.Fatal("NormInf wrong")
	}
	if Sum([]float64{-1, 2, -3}) != -2 {
		t.Fatal("Sum wrong")
	}
}

func TestSolvePropertyLinearity(t *testing.T) {
	// A⁻¹(b1 + b2) == A⁻¹b1 + A⁻¹b2 — checked via quick on random diag-dominant A.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(math.Abs(float64(seed%5)))
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			a.Add(i, i, 12)
		}
		b1 := make([]float64, n)
		b2 := make([]float64, n)
		for i := range b1 {
			b1[i] = rng.NormFloat64()
			b2[i] = rng.NormFloat64()
		}
		fac, err := Factor(a)
		if err != nil {
			return false
		}
		x1, _ := fac.Solve(b1)
		x2, _ := fac.Solve(b2)
		sum := make([]float64, n)
		for i := range sum {
			sum[i] = b1[i] + b2[i]
		}
		xs, _ := fac.Solve(sum)
		for i := range xs {
			if !approxEq(xs[i], x1[i]+x2[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestScaleAndAddMatrix(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 2)
	b := a.Clone().Scale(3)
	if b.At(0, 0) != 3 || b.At(1, 1) != 6 {
		t.Fatal("Scale wrong")
	}
	b.AddMatrix(a)
	if b.At(0, 0) != 4 || b.At(1, 1) != 8 {
		t.Fatal("AddMatrix wrong")
	}
}
