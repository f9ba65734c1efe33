package linalg

import "math"

// GMRESOpts configures SolveGMRES. The zero value picks the defaults noted
// on each field.
type GMRESOpts struct {
	// Restart is the Krylov dimension per cycle (default 30). Memory is
	// (Restart+1) basis vectors of the operator's dimension.
	Restart int
	// MaxIters bounds the total Arnoldi steps across cycles (default 2000).
	MaxIters int
	// Tol is the normwise backward-error tolerance (default 1e-12): the
	// solve stops when ‖b − A·x‖∞ ≤ Tol·(‖b‖∞ + NormA·‖x‖∞) — the same
	// relative-accuracy class the CSR two-level solver targets, reachable
	// even when ‖A‖·‖x‖ dwarfs ‖b‖.
	Tol float64
	// NormA is an upper bound on ‖A‖∞ for the stopping rule. Zero means no
	// bound is known and the criterion degrades to ‖r‖∞ ≤ Tol·‖b‖∞.
	NormA float64
	// Precond applies a right preconditioner, dst = M⁻¹·src (dst and src do
	// not alias). nil means identity. Right preconditioning keeps the
	// residual of the original system, so the stopping rule needs no
	// preconditioner norm.
	Precond func(dst, src []float64)
}

// SolveGMRES solves A·x = b from a zero initial guess by restarted GMRES
// with modified Gram–Schmidt Arnoldi and Givens rotations, right-
// preconditioned when opts.Precond is given. It returns the solution, the
// number of Arnoldi steps (matrix applications, excluding the one residual
// check per cycle), and ErrNoConvergence if the backward-error criterion is
// not met within the iteration budget.
//
// Matrix-free by construction: the operator is only ever applied to vectors,
// so a 2^24-state Kronecker generator costs the same per iteration as its
// matvec, with no materialization.
func SolveGMRES(op Operator, b []float64, opts GMRESOpts) ([]float64, int, error) {
	n := op.Dim()
	if len(b) != n {
		panic("linalg: SolveGMRES dimension mismatch")
	}
	m := opts.Restart
	if m <= 0 {
		m = 30
	}
	if m > n {
		m = n
	}
	maxIters := opts.MaxIters
	if maxIters <= 0 {
		maxIters = 2000
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-12
	}
	normB := NormInf(b)
	x := make([]float64, n)

	// Arnoldi workspace, shared across cycles.
	v := make([][]float64, m+1)
	for i := range v {
		v[i] = make([]float64, n)
	}
	h := make([][]float64, m+1) // h[i][j], column j holds the new step
	for i := range h {
		h[i] = make([]float64, m)
	}
	cs := make([]float64, m)
	sn := make([]float64, m)
	g := make([]float64, m+1)
	y := make([]float64, m)
	w := make([]float64, n)  // A·(preconditioned direction)
	z := make([]float64, n)  // preconditioner output
	r := make([]float64, n)  // residual
	xc := make([]float64, n) // candidate update in preconditioned coordinates

	converged := func(res float64) bool {
		return res <= tol*(normB+opts.NormA*NormInf(x))
	}

	iters := 0
	for {
		// Explicit residual r = b − A·x; also the per-cycle acceptance test.
		op.MulVecInto(r, x)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		if converged(NormInf(r)) {
			return x, iters, nil
		}
		if iters >= maxIters {
			return nil, iters, ErrNoConvergence
		}

		beta := Norm2(r)
		if beta == 0 {
			// Zero 2-norm residual (so zero ∞-norm) would have converged
			// above unless tol is unreachable; either way nothing improves.
			return nil, iters, ErrNoConvergence
		}
		for i := range v[0] {
			v[0][i] = r[i] / beta
		}
		g[0] = beta
		for i := 1; i <= m; i++ {
			g[i] = 0
		}

		// Inner Arnoldi cycle.
		j := 0
		for ; j < m && iters < maxIters; j++ {
			iters++
			src := v[j]
			if opts.Precond != nil {
				opts.Precond(z, v[j])
				src = z
			}
			op.MulVecInto(w, src)
			// Modified Gram–Schmidt.
			for i := 0; i <= j; i++ {
				hij := Dot(w, v[i])
				h[i][j] = hij
				AXPY(-hij, v[i], w)
			}
			hj1 := Norm2(w)
			h[j+1][j] = hj1
			// Apply accumulated Givens rotations to the new column, then
			// zero its subdiagonal with a fresh rotation.
			for i := 0; i < j; i++ {
				t := cs[i]*h[i][j] + sn[i]*h[i+1][j]
				h[i+1][j] = -sn[i]*h[i][j] + cs[i]*h[i+1][j]
				h[i][j] = t
			}
			cs[j], sn[j] = givens(h[j][j], h[j+1][j])
			h[j][j] = cs[j]*h[j][j] + sn[j]*h[j+1][j]
			h[j+1][j] = 0
			g[j+1] = -sn[j] * g[j]
			g[j] = cs[j] * g[j]

			if hj1 == 0 {
				// Happy breakdown: the Krylov space is invariant and the
				// least-squares solution is exact in it.
				j++
				break
			}
			for i := range w {
				v[j+1][i] = w[i] / hj1
			}
			// The rotated g's tail is the implicit residual 2-norm; leave
			// the cycle early once it is clearly below target so the
			// explicit check can finish the job.
			if math.Abs(g[j+1]) <= 0.1*tol*normB {
				j++
				break
			}
		}
		if j == 0 {
			return nil, iters, ErrNoConvergence
		}

		// Back-substitute the j×j triangular system for y.
		for i := j - 1; i >= 0; i-- {
			s := g[i]
			for k := i + 1; k < j; k++ {
				s -= h[i][k] * y[k]
			}
			y[i] = s / h[i][i]
		}
		// x += M⁻¹·(V·y); with no preconditioner the combination is direct.
		for i := range xc {
			xc[i] = 0
		}
		for k := 0; k < j; k++ {
			AXPY(y[k], v[k], xc)
		}
		if opts.Precond != nil {
			opts.Precond(z, xc)
			AXPY(1, z, x)
		} else {
			AXPY(1, xc, x)
		}
	}
}

// givens returns (c, s) zeroing b in [a; b]: [c s; −s c]·[a; b] = [r; 0].
func givens(a, b float64) (c, s float64) {
	if b == 0 {
		return 1, 0
	}
	if math.Abs(b) > math.Abs(a) {
		t := a / b
		s = 1 / math.Sqrt(1+t*t)
		return s * t, s
	}
	t := b / a
	c = 1 / math.Sqrt(1+t*t)
	return c, c * t
}
