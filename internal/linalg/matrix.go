// Package linalg holds the linear algebra under the Markov-chain analyses,
// from a few states to the 2^24-state cube of the full asynchronous model:
//
//   - dense row-major matrices and LU with partial pivoting, for the
//     coarse level of the Kronecker preconditioner and the dense moment
//     solve the tests judge other routes by;
//   - CSR matrices, for the uniformized steps of the enumerated and lumped
//     orbit chains;
//   - KronOp, the matrix-free Kronecker-structured operator of the
//     asynchronous model's generator, applied in O(n·2^n) flops and O(2^n)
//     memory;
//   - the Krylov layer over any Operator: BiCGSTAB for linear systems, and
//     KrylovExpv for e^{tA}·v (a Padé exponential of its small Hessenberg
//     matrix);
//   - the handful of vector operations the solvers share.
package linalg

import "fmt"

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments element (i,j) by v.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Scale multiplies every element by s, in place, and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddMatrix adds other into m element-wise, in place, and returns m.
// It panics on shape mismatch.
func (m *Matrix) AddMatrix(other *Matrix) *Matrix {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("linalg: AddMatrix shape mismatch")
	}
	for i := range m.Data {
		m.Data[i] += other.Data[i]
	}
	return m
}

// MulVec computes y = m·x. It panics if len(x) != m.Cols.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("linalg: MulVec dimension mismatch")
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// VecMul computes y = x·m (row vector times matrix).
// It panics if len(x) != m.Rows.
func (m *Matrix) VecMul(x []float64) []float64 {
	if len(x) != m.Rows {
		panic("linalg: VecMul dimension mismatch")
	}
	y := make([]float64, m.Cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			y[j] += xi * v
		}
	}
	return y
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("%10.4g ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}
