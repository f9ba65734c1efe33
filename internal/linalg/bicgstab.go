package linalg

import "math"

// SolveBiCGSTAB solves A·x = b (or Aᵀ·x = b when trans is set) by right-
// preconditioned BiCGSTAB. It shares SolveGMRES's options and stopping rule:
// ‖b − A·x‖∞ ≤ Tol·(‖b‖∞ + NormA·‖x‖∞), judged on the explicit residual. The
// recursive residual only decides when to compute it; when the two disagree
// the iteration restarts from the explicit residual with a fresh shadow
// vector. Restart is ignored and MaxIters (default 2000) bounds the operator
// applications, two per iteration.
//
// It returns the solution, the number of operator applications (excluding
// the explicit residual checks), and ErrNoConvergence — never a non-finite
// iterate — when the budget runs out or the recurrence breaks down
// ((r̂, r) = 0, (r̂, v) = 0 or ω = 0).
//
// Memory is eight vectors of the operator's dimension (x, r, r̂, p, v, p̂, ŝ,
// t) against GMRES's Restart+6, at two operator and two preconditioner
// applications per iteration and no orthogonalization.
func SolveBiCGSTAB(op Operator, trans bool, b []float64, opts GMRESOpts) ([]float64, int, error) {
	n := op.Dim()
	if len(b) != n {
		panic("linalg: SolveBiCGSTAB dimension mismatch")
	}
	maxIters := opts.MaxIters
	if maxIters <= 0 {
		maxIters = 2000
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-12
	}
	apply := op.MulVecInto
	if trans {
		apply = op.MulVecTransInto
	}
	precond := opts.Precond
	if precond == nil {
		precond = func(dst, src []float64) { copy(dst, src) }
	}

	normB := NormInf(b)
	x := make([]float64, n)
	if opts.X0 != nil {
		if len(opts.X0) != n {
			panic("linalg: SolveBiCGSTAB initial guess dimension mismatch")
		}
		copy(x, opts.X0)
	}
	r := make([]float64, n)  // residual; holds s = r − α·v mid-iteration
	rh := make([]float64, n) // shadow residual r̂
	p := make([]float64, n)
	v := make([]float64, n)  // A·p̂
	ph := make([]float64, n) // M⁻¹·p
	sh := make([]float64, n) // M⁻¹·s
	t := make([]float64, n)  // A·ŝ
	xNorm := NormInf(x)

	// explicit sets r = b − A·x and reports whether it meets the rule
	// with a finite x.
	explicit := func() bool {
		apply(r, x)
		res := 0.0
		for i, bi := range b {
			r[i] = bi - r[i]
			res = max(res, math.Abs(r[i]))
		}
		xn := NormInf(x)
		return isFinite(xn) && res <= tol*(normB+opts.NormA*xn)
	}

	iters := 0
	for {
		// (Re)start from the explicit residual with r̂ = r and fresh
		// directions. The first pass is the initial residual; later passes
		// follow a recursive residual that met the rule while the explicit
		// one did not.
		if explicit() {
			return x, iters, nil
		}
		copy(rh, r)
		for i := range p {
			p[i], v[i] = 0, 0
		}
		rho, alpha, omega := 1.0, 1.0, 1.0
		rhoNext := Dot(rh, r)
		for {
			if iters+2 > maxIters {
				return nil, iters, ErrNoConvergence
			}
			if rhoNext == 0 || !isFinite(rhoNext) {
				return nil, iters, ErrNoConvergence
			}
			beta := (rhoNext / rho) * (alpha / omega)
			rho = rhoNext
			for i := range p {
				p[i] = r[i] + beta*(p[i]-omega*v[i])
			}
			precond(ph, p)
			apply(v, ph)
			iters++
			sigma := Dot(rh, v)
			if sigma == 0 || !isFinite(sigma) {
				return nil, iters, ErrNoConvergence
			}
			alpha = rho / sigma
			// s = r − α·v in place. A half step that already meets the rule
			// takes x += α·p̂ and goes to the explicit check.
			sNorm := 0.0
			for i := range r {
				r[i] -= alpha * v[i]
				sNorm = max(sNorm, math.Abs(r[i]))
			}
			if sNorm <= tol*(normB+opts.NormA*xNorm) {
				AXPY(alpha, ph, x)
				break
			}
			precond(sh, r)
			apply(t, sh)
			iters++
			var ts, tt float64
			for i, ti := range t {
				ts += ti * r[i]
				tt += ti * ti
			}
			omega = ts / tt
			if omega == 0 || !isFinite(omega) {
				return nil, iters, ErrNoConvergence
			}
			// Update x and r, and take (r̂, r) for the next step in the
			// same pass.
			rNorm := 0.0
			xNorm, rhoNext = 0, 0
			for i := range x {
				x[i] += alpha*ph[i] + omega*sh[i]
				r[i] -= omega * t[i]
				rhoNext += rh[i] * r[i]
				rNorm = max(rNorm, math.Abs(r[i]))
				xNorm = max(xNorm, math.Abs(x[i]))
			}
			if !isFinite(xNorm) {
				return nil, iters, ErrNoConvergence
			}
			if rNorm <= tol*(normB+opts.NormA*xNorm) {
				break
			}
		}
	}
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
