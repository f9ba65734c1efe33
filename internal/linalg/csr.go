package linalg

import (
	"errors"

	"recoveryblocks/internal/obs"
)

// ErrNoConvergence is returned when an iterative solve fails to reach its
// residual tolerance within the iteration budget.
var ErrNoConvergence = errors.New("linalg: iterative solve did not converge")

// CSR is a square sparse matrix in compressed-sparse-row form. It is the
// storage behind the uniformized steps of the enumerated and lumped chains:
// the full model's chains have only n + C(n,2) transitions per state, so
// CSR keeps every step proportional to the nonzero count.
//
// A built matrix is immutable and safe for concurrent reads.
type CSR struct {
	n      int
	rowPtr []int // rowPtr[i]..rowPtr[i+1] bounds row i's entries
	col    []int32
	val    []float64
}

// CSRBuilder assembles a CSR matrix row by row. Entries must be added with
// nondecreasing row indices (column order within a row is free); duplicate
// (row, col) pairs accumulate.
type CSRBuilder struct {
	n      int
	curRow int
	rowPtr []int
	col    []int32
	val    []float64
}

// NewCSRBuilder starts a builder for an n×n matrix, pre-sizing for nnzHint
// entries.
func NewCSRBuilder(n, nnzHint int) *CSRBuilder {
	if n <= 0 {
		panic("linalg: CSR needs at least one row")
	}
	if nnzHint < 0 {
		nnzHint = 0
	}
	b := &CSRBuilder{
		n:      n,
		rowPtr: make([]int, 1, n+1),
		col:    make([]int32, 0, nnzHint),
		val:    make([]float64, 0, nnzHint),
	}
	return b
}

// Add appends the entry (row, col) += v. Rows must arrive in nondecreasing
// order.
func (b *CSRBuilder) Add(row, col int, v float64) {
	if row < b.curRow {
		panic("linalg: CSRBuilder rows must be added in nondecreasing order")
	}
	if row >= b.n || col < 0 || col >= b.n {
		panic("linalg: CSRBuilder index out of range")
	}
	for b.curRow < row {
		b.rowPtr = append(b.rowPtr, len(b.col))
		b.curRow++
	}
	// Accumulate a duplicate column within the open row (rare; rows are
	// short, so the scan is cheap and keeps solvers free of dup handling).
	for i := b.rowPtr[row]; i < len(b.col); i++ {
		if b.col[i] == int32(col) {
			b.val[i] += v
			return
		}
	}
	b.col = append(b.col, int32(col))
	b.val = append(b.val, v)
}

// Build finalizes the matrix. The builder must not be reused afterwards.
func (b *CSRBuilder) Build() *CSR {
	for b.curRow < b.n {
		b.rowPtr = append(b.rowPtr, len(b.col))
		b.curRow++
	}
	if reg := obs.Current(); reg != nil {
		reg.Counter("linalg_csr_builds_total").Inc()
		reg.Histogram("linalg_csr_nnz").Observe(float64(len(b.col)))
	}
	return &CSR{n: b.n, rowPtr: b.rowPtr, col: b.col, val: b.val}
}

// MulVecInto computes dst = M·x. dst and x must not alias.
func (m *CSR) MulVecInto(dst, x []float64) {
	if len(dst) != m.n || len(x) != m.n {
		panic("linalg: CSR MulVecInto dimension mismatch")
	}
	for i := 0; i < m.n; i++ {
		s := 0.0
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			s += m.val[p] * x[m.col[p]]
		}
		dst[i] = s
	}
}

// MulVecTransInto computes dst = Mᵀ·x by scattering each row — for a row
// distribution π and a stochastic matrix P this is one step π·P, the inner
// operation of uniformization. dst and x must not alias. Zero x entries are
// skipped, matching the sparsity of transient distributions.
func (m *CSR) MulVecTransInto(dst, x []float64) {
	if len(dst) != m.n || len(x) != m.n {
		panic("linalg: CSR MulVecTransInto dimension mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < m.n; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			dst[m.col[p]] += xi * m.val[p]
		}
	}
}
