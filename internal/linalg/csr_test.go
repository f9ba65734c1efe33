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
	if m.n != 4 || len(m.val) != 7 {
		t.Fatalf("n=%d nnz=%d, want 4 and 7 (duplicate merged)", m.n, len(m.val))
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
