package linalg

import (
	"errors"
	"math"

	"recoveryblocks/internal/obs"
)

// ErrNoConvergence is returned when an iterative solve fails to reach its
// residual tolerance within the sweep budget.
var ErrNoConvergence = errors.New("linalg: iterative solve did not converge")

// CSR is a square sparse matrix in compressed-sparse-row form. It is the
// storage behind the large-state-space Markov solves: the 2^n-state chains
// of the full model have only n + C(n,2) transitions per state, so a dense
// 2^n × 2^n factorization wastes O(8^n) work on structural zeros while CSR
// keeps every operation proportional to the nonzero count.
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

// gsSweep performs one in-place Gauss–Seidel sweep on M·x = b, using the
// pre-located diagonal positions.
func (m *CSR) gsSweep(x, b []float64, diag []int32) {
	for i := 0; i < m.n; i++ {
		s := b[i]
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			s -= m.val[p] * x[m.col[p]]
		}
		d := m.val[diag[i]]
		// The diagonal term was subtracted with the current x[i]; restore it.
		x[i] = x[i] + s/d
	}
}

// diagIndex locates each row's diagonal entry, which the Gauss–Seidel
// sweeps divide by. It fails if a diagonal is missing or zero.
func (m *CSR) diagIndex() ([]int32, error) {
	diag := make([]int32, m.n)
	for i := range diag {
		diag[i] = -1
	}
	for i := 0; i < m.n; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			if int(m.col[p]) == i {
				diag[i] = int32(p)
			}
		}
		if diag[i] < 0 || m.val[diag[i]] == 0 {
			return nil, errors.New("linalg: CSR solve needs a nonzero diagonal")
		}
	}
	return diag, nil
}

// SolveTwoLevelGS solves M·x = b iteratively: Gauss–Seidel sweeps smoothed
// by a coarse Galerkin correction over the given aggregation (agg maps each
// unknown to one of nAgg groups; pass nil to disable the coarse level).
// Convergence is residual-based on the normwise backward error: the
// iteration stops when ‖b − M·x‖∞ ≤ tol·(‖b‖∞ + ‖M‖∞·‖x‖∞) — the same
// relative-accuracy class a backward-stable direct solve delivers, and
// reachable in floating point even when ‖M‖·‖x‖ dwarfs ‖b‖ (absorption
// times grow like the expected jump count while the right-hand side stays
// O(1)). It errors out after maxIter cycles.
//
// Plain Gauss–Seidel converges for the weakly diagonally dominant M-matrix
// systems the Markov solves produce, but its spectral radius approaches 1
// as absorption gets rare — the error's slow mode is the quasi-stationary
// profile, and sweeps alone need O(expected jumps to absorption) passes.
// The coarse correction solves the aggregated system R·M·Rᵀ exactly (one
// tiny dense LU, factored once) and subtracts that slow mode each cycle;
// with aggregates that track the chain's level structure the cycle count
// drops to a handful. The correction is safeguarded: if a cycle fails to
// shrink the residual, the coarse level is dropped and the iteration
// continues as plain Gauss–Seidel.
func (m *CSR) SolveTwoLevelGS(b []float64, agg []int, nAgg int, tol float64, maxIter int) ([]float64, int, error) {
	if len(b) != m.n {
		panic("linalg: SolveTwoLevelGS dimension mismatch")
	}
	if agg != nil && len(agg) != m.n {
		panic("linalg: aggregation length mismatch")
	}
	diag, err := m.diagIndex()
	if err != nil {
		return nil, 0, err
	}

	// Coarse Galerkin operator Ac[gi][gj] = Σ entries between the groups,
	// factored once. A singular coarse system (possible for aggregations
	// that merge structurally distinct unknowns) just disables the coarse
	// level rather than failing the solve.
	var coarse *LU
	if agg != nil && nAgg > 0 {
		ac := NewMatrix(nAgg, nAgg)
		for i := 0; i < m.n; i++ {
			gi := agg[i]
			for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
				ac.Add(gi, agg[m.col[p]], m.val[p])
			}
		}
		coarse, _ = Factor(ac)
	}

	normB := 0.0
	for _, v := range b {
		if a := math.Abs(v); a > normB {
			normB = a
		}
	}
	normM := 0.0
	for i := 0; i < m.n; i++ {
		s := 0.0
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			s += math.Abs(m.val[p])
		}
		if s > normM {
			normM = s
		}
	}

	x := make([]float64, m.n)
	r := make([]float64, m.n)
	rc := make([]float64, max(nAgg, 1))
	// The coarse correction is a safeguarded accelerator: residual norms
	// under correct-then-smooth cycling are not monotone step to step, so
	// the correction is only dropped when a whole window of cycles fails to
	// set a new best residual — the signature of an aggregation that does
	// not track the chain's slow mode.
	const stallWindow = 25
	best := math.Inf(1)
	sinceBest := 0
	copy(r, b) // residual at x = 0
	for iter := 1; iter <= maxIter; iter++ {
		if coarse != nil {
			for g := range rc {
				rc[g] = 0
			}
			for i, g := range agg {
				rc[g] += r[i]
			}
			ec, cerr := coarse.Solve(rc)
			if cerr == nil {
				for i, g := range agg {
					x[i] += ec[g]
				}
			}
		}
		m.gsSweep(x, b, diag)

		// Residual pass doubles as the convergence check and the next
		// cycle's coarse right-hand side.
		m.MulVecInto(r, x)
		res, normX := 0.0, 0.0
		for i := range r {
			r[i] = b[i] - r[i]
			if a := math.Abs(r[i]); a > res {
				res = a
			}
			if a := math.Abs(x[i]); a > normX {
				normX = a
			}
		}
		if res <= tol*(normB+normM*normX) {
			recordSweeps(iter)
			return x, iter, nil
		}
		if res < best {
			best, sinceBest = res, 0
		} else if sinceBest++; sinceBest > stallWindow && coarse != nil {
			coarse = nil
			sinceBest = 0
		}
	}
	recordSweeps(maxIter)
	return nil, maxIter, ErrNoConvergence
}

// recordSweeps folds one solve's Gauss–Seidel cycle count into the registry:
// a running total and a per-solve distribution. Cycle counts are a pure
// function of (matrix, b, agg, tol), so both land in the deterministic
// section.
func recordSweeps(iters int) {
	if reg := obs.Current(); reg != nil {
		reg.Counter("linalg_gs_sweeps_total").Add(int64(iters))
		reg.Histogram("linalg_gs_sweeps").Observe(float64(iters))
	}
}
