package linalg

import (
	"math"
	"testing"
)

// denseOf expands a CSR matrix for comparison against the dense kernels.
func denseOf(m *CSR) *Matrix {
	d := NewMatrix(m.n, m.n)
	for i := 0; i < m.n; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			d.Add(i, int(m.col[p]), m.val[p])
		}
	}
	return d
}

func buildTestCSR(t *testing.T) (*CSR, *Matrix) {
	t.Helper()
	b := NewCSRBuilder(4, 8)
	b.Add(0, 0, 2)
	b.Add(0, 3, -1)
	b.Add(1, 1, 3)
	b.Add(2, 0, 0.5)
	b.Add(2, 2, -4)
	b.Add(3, 3, 1.5)
	b.Add(3, 1, 1)
	b.Add(3, 1, 0.25) // duplicate accumulates
	m := b.Build()
	return m, denseOf(m)
}

func TestCSRBuilderAndMulVec(t *testing.T) {
	m, d := buildTestCSR(t)
	if m.N() != 4 || len(m.val) != 7 {
		t.Fatalf("N=%d nnz=%d, want 4 and 7 (duplicate merged)", m.N(), len(m.val))
	}
	x := []float64{1, -2, 3, 0.5}
	want := d.MulVec(x)
	got := make([]float64, 4)
	m.MulVecInto(got, x)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-14 {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	wantT := d.VecMul(x) // row vector times matrix = transpose mul
	gotT := make([]float64, 4)
	m.MulVecTransInto(gotT, x)
	for i := range wantT {
		if math.Abs(gotT[i]-wantT[i]) > 1e-14 {
			t.Fatalf("MulVecTrans[%d] = %v, want %v", i, gotT[i], wantT[i])
		}
	}
}

func TestCSRBuilderRejectsDisorder(t *testing.T) {
	b := NewCSRBuilder(3, 0)
	b.Add(1, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("decreasing row index was accepted")
		}
	}()
	b.Add(0, 0, 1)
}

func TestCSRBuilderEmptyRows(t *testing.T) {
	b := NewCSRBuilder(5, 0)
	b.Add(2, 2, 1)
	m := b.Build()
	x := []float64{1, 1, 1, 1, 1}
	dst := make([]float64, 5)
	m.MulVecInto(dst, x)
	for i, v := range dst {
		want := 0.0
		if i == 2 {
			want = 1
		}
		if v != want {
			t.Fatalf("dst[%d] = %v, want %v", i, v, want)
		}
	}
}

// diagDominant builds a strictly diagonally dominant sparse test system with
// a known solution.
func diagDominant(n int, coupling float64) (*CSR, []float64, []float64) {
	b := NewCSRBuilder(n, 3*n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 4)
		if i > 0 {
			b.Add(i, i-1, -coupling)
		}
		if i < n-1 {
			b.Add(i, i+1, -coupling)
		}
	}
	m := b.Build()
	want := make([]float64, n)
	for i := range want {
		want[i] = math.Sin(float64(i) + 1)
	}
	rhs := make([]float64, n)
	m.MulVecInto(rhs, want)
	return m, rhs, want
}

func TestSolveTwoLevelGSPlain(t *testing.T) {
	m, rhs, want := diagDominant(200, 1)
	x, iters, err := m.SolveTwoLevelGS(rhs, nil, 0, 1e-12, 10000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("plain GS converged in %d sweeps", iters)
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveTwoLevelGSAggregated(t *testing.T) {
	// Near-singular coupling (weak dominance) is where the coarse level
	// earns its keep; aggregate in contiguous chunks.
	m, rhs, want := diagDominant(400, 1.999)
	agg := make([]int, 400)
	for i := range agg {
		agg[i] = i / 20
	}
	xp, plain, errPlain := m.SolveTwoLevelGS(rhs, nil, 0, 1e-12, 100000)
	x, accel, err := m.SolveTwoLevelGS(rhs, agg, 20, 1e-12, 100000)
	if err != nil || errPlain != nil {
		t.Fatal(err, errPlain)
	}
	t.Logf("plain %d cycles vs aggregated %d cycles", plain, accel)
	if accel >= plain {
		t.Errorf("coarse level did not accelerate: %d vs %d cycles", accel, plain)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-7 || math.Abs(xp[i]-want[i]) > 1e-7 {
			t.Fatalf("x[%d] = %v / %v, want %v", i, x[i], xp[i], want[i])
		}
	}
}

func TestSolveTwoLevelGSFailures(t *testing.T) {
	// Zero diagonal: structural failure.
	b := NewCSRBuilder(2, 2)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	if _, _, err := b.Build().SolveTwoLevelGS([]float64{1, 1}, nil, 0, 1e-12, 10); err == nil {
		t.Fatal("missing diagonal was accepted")
	}
	// Non-convergent system: iteration budget must trip.
	b2 := NewCSRBuilder(2, 4)
	b2.Add(0, 0, 1)
	b2.Add(0, 1, 5)
	b2.Add(1, 0, 5)
	b2.Add(1, 1, 1)
	if _, _, err := b2.Build().SolveTwoLevelGS([]float64{1, 1}, nil, 0, 1e-12, 50); err == nil {
		t.Fatal("divergent sweep did not error")
	}
}
