package linalg

import (
	"errors"
	"math"
)

// ErrSingular is returned when factorization meets an (effectively) singular
// pivot column.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting: P·A = L·U, stored
// compactly in lu with the pivot sequence in piv.
type LU struct {
	lu  *Matrix
	piv []int
	n   int
}

// Factor computes the LU factorization of the square matrix a in place:
// a's storage becomes the factors, so a must not be used afterwards. Clone
// it first to keep it.
func Factor(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: Factor requires a square matrix")
	}
	n := a.Rows
	lu := a
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivoting: pick the largest magnitude in this column.
		p := col
		max := math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if a := math.Abs(lu.At(r, col)); a > max {
				max, p = a, r
			}
		}
		if max == 0 || math.IsNaN(max) {
			return nil, ErrSingular
		}
		if p != col {
			swapRows(lu, p, col)
			piv[p], piv[col] = piv[col], piv[p]
		}
		pivVal := lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) / pivVal
			lu.Set(r, col, f)
			if f == 0 {
				continue
			}
			rowR := lu.Data[r*n : (r+1)*n]
			rowC := lu.Data[col*n : (col+1)*n]
			for j := col + 1; j < n; j++ {
				rowR[j] -= f * rowC[j]
			}
		}
	}
	return &LU{lu: lu, piv: piv, n: n}, nil
}

func swapRows(m *Matrix, a, b int) {
	ra := m.Data[a*m.Cols : (a+1)*m.Cols]
	rb := m.Data[b*m.Cols : (b+1)*m.Cols]
	for j := range ra {
		ra[j], rb[j] = rb[j], ra[j]
	}
}

// Solve returns x with A·x = b for the factored A. b is not modified.
func (f *LU) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.n)
	if err := f.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto writes the solution of A·x = b into x without allocating. x and
// b must not alias; b is not modified.
func (f *LU) SolveInto(x, b []float64) error {
	if len(b) != f.n || len(x) != f.n {
		return errors.New("linalg: Solve dimension mismatch")
	}
	// Apply the row permutation.
	for i := 0; i < f.n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < f.n; i++ {
		row := f.lu.Data[i*f.n : (i+1)*f.n]
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := f.n - 1; i >= 0; i-- {
		row := f.lu.Data[i*f.n : (i+1)*f.n]
		s := x[i]
		for j := i + 1; j < f.n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return nil
}

// SolveMatrix solves A·X = B column by column and returns X.
func (f *LU) SolveMatrix(b *Matrix) (*Matrix, error) {
	if b.Rows != f.n {
		return nil, errors.New("linalg: SolveMatrix dimension mismatch")
	}
	out := NewMatrix(b.Rows, b.Cols)
	col := make([]float64, f.n)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < f.n; i++ {
			col[i] = b.At(i, j)
		}
		x, err := f.Solve(col)
		if err != nil {
			return nil, err
		}
		for i := 0; i < f.n; i++ {
			out.Set(i, j, x[i])
		}
	}
	return out, nil
}

// SolveLinear is a convenience wrapper: factor a and solve a·x = b.
// a is not modified.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a.Clone())
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Inverse returns A⁻¹ via LU factorization. a is not modified.
func Inverse(a *Matrix) (*Matrix, error) {
	f, err := Factor(a.Clone())
	if err != nil {
		return nil, err
	}
	return f.SolveMatrix(Identity(a.Rows))
}
