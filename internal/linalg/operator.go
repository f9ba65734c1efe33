package linalg

// Operator is a square linear operator exposed matrix-free: anything that can
// apply itself (and its transpose) to a vector. CSR satisfies it with stored
// entries; KronOp satisfies it with O(n·2^n) sweep kernels and never holds a
// matrix at all. The Krylov layer (SolveBiCGSTAB, KrylovExpv) is
// written against this interface so the same solvers serve both
// representations.
type Operator interface {
	// Dim returns the (square) dimension.
	Dim() int
	// MulVecInto computes dst = A·x. dst and x must not alias.
	MulVecInto(dst, x []float64)
	// MulVecTransInto computes dst = Aᵀ·x. dst and x must not alias.
	MulVecTransInto(dst, x []float64)
}

// Dim returns the dimension, satisfying Operator.
func (m *CSR) Dim() int { return m.n }
