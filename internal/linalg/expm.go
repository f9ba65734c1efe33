package linalg

import (
	"errors"
	"math"
)

// ErrExpvBreakdown is returned when the adaptive Krylov exponential cannot
// meet its error target even at its smallest substep.
var ErrExpvBreakdown = errors.New("linalg: Krylov exponential step control broke down")

// Expm computes e^A for a small dense matrix by scaling and squaring with a
// diagonal Padé(6,6) approximant — the classic workhorse, adequate for the
// Hessenberg matrices (a few dozen rows) the Krylov exponential produces.
func Expm(a *Matrix) *Matrix {
	if a.Rows != a.Cols {
		panic("linalg: Expm needs a square matrix")
	}
	n := a.Rows
	// Scale so ‖A/2^s‖∞ ≤ 0.5, then square s times.
	norm := 0.0
	for i := 0; i < n; i++ {
		row := 0.0
		for j := 0; j < n; j++ {
			row += math.Abs(a.At(i, j))
		}
		if row > norm {
			norm = row
		}
	}
	s := 0
	for scaled := norm; scaled > 0.5; scaled /= 2 {
		s++
	}
	b := a.Clone().Scale(1 / float64(int64(1)<<s))

	// Padé(6,6): N = Σ c_k B^k, D = Σ (−1)^k c_k B^k.
	const p = 6
	c := make([]float64, p+1)
	c[0] = 1
	for k := 0; k < p; k++ {
		c[k+1] = c[k] * float64(p-k) / float64((2*p-k)*(k+1))
	}
	num := Identity(n).Scale(c[0])
	den := Identity(n).Scale(c[0])
	pow := Identity(n)
	for k := 1; k <= p; k++ {
		pow = matMul(pow, b)
		num.AddMatrix(pow.Clone().Scale(c[k]))
		if k%2 == 0 {
			den.AddMatrix(pow.Clone().Scale(c[k]))
		} else {
			den.AddMatrix(pow.Clone().Scale(-c[k]))
		}
	}
	f, err := Factor(den)
	if err != nil {
		// The denominator is I − B/2 + …, nonsingular for ‖B‖ ≤ 0.5; a
		// singular factorization means the input held NaN/Inf. Surface that
		// as a NaN matrix rather than panicking — callers' acceptance tests
		// reject it.
		bad := NewMatrix(n, n)
		for i := range bad.Data {
			bad.Data[i] = math.NaN()
		}
		return bad
	}
	e, err := f.SolveMatrix(num)
	if err != nil {
		e = num // unreachable: SolveMatrix only errors on shape
	}
	for ; s > 0; s-- {
		e = matMul(e, e)
	}
	return e
}

func matMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic("linalg: matMul shape mismatch")
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Add(i, j, aik*b.At(k, j))
			}
		}
	}
	return out
}

// ExpvOpts configures KrylovExpv. The zero value picks the defaults noted on
// each field.
type ExpvOpts struct {
	// KrylovDim is the Arnoldi basis size per substep (default 30).
	KrylovDim int
	// Tol is the target for the accumulated local-error estimates relative
	// to the vector scale (default 1e-10).
	Tol float64
}

// expvMaxIters bounds KrylovExpv's total Arnoldi steps across substeps: the
// budget guard against a horizon the step control cannot cross.
const expvMaxIters = 100000

// KrylovExpv computes w = e^{t·Aᵀ}·v, the row vector vᵀ advanced to
// vᵀ·e^{t·A}, as a transient distribution evolves under a generator A. It
// runs the expokit-style Krylov method: project Aᵀ onto an m-dimensional
// Krylov basis of the current vector, exponentiate the small Hessenberg
// matrix densely, and advance w = β·V_m·e^{τH_m}·e₁ over adaptively chosen
// substeps τ. Each substep costs m operator applications and O(m³) dense
// work; the operator is never materialized, so transient distributions of a
// 2^24-state generator fit in a handful of length-2^n vectors.
//
// The a-posteriori local error estimate is the standard last-component bound
// β·h_{m+1,m}·|e_mᵀ·e^{τH_m}·e₁|; a substep is rejected and halved when its
// estimate overruns its share of the budget. It returns the result, the
// total Arnoldi step count, and an error only if the step control collapses
// (τ underflows) or the iteration budget runs out.
func KrylovExpv(op Operator, v []float64, t float64, opts ExpvOpts) ([]float64, int, error) {
	n := op.Dim()
	if len(v) != n {
		panic("linalg: KrylovExpv dimension mismatch")
	}
	m := opts.KrylovDim
	if m <= 0 {
		m = 30
	}
	if m > n {
		m = n
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-10
	}
	w := CloneVec(v)
	if t == 0 {
		return w, 0, nil
	}
	scale := Norm2(v)
	if scale == 0 {
		return w, 0, nil
	}

	basis := make([][]float64, m+1)
	for i := range basis {
		basis[i] = make([]float64, n)
	}
	hm := make([][]float64, m+1)
	for i := range hm {
		hm[i] = make([]float64, m)
	}
	tmp := make([]float64, n)

	iters := 0
	tcur := 0.0
	tau := t
	for tcur < t {
		if iters >= expvMaxIters {
			return nil, iters, ErrNoConvergence
		}
		beta := Norm2(w)
		if beta == 0 {
			return w, iters, nil // all mass annihilated; e^{tA}·0 = 0
		}
		for i := range basis[0] {
			basis[0][i] = w[i] / beta
		}
		// Arnoldi on the current vector; the basis is reused across retries
		// of the same substep since it does not depend on τ.
		k := m
		happy := false
		for j := 0; j < m; j++ {
			iters++
			op.MulVecTransInto(tmp, basis[j])
			for i := 0; i <= j; i++ {
				hij := Dot(tmp, basis[i])
				hm[i][j] = hij
				AXPY(-hij, basis[i], tmp)
			}
			hj1 := Norm2(tmp)
			hm[j+1][j] = hj1
			if hj1 <= 1e-14*scale {
				k = j + 1
				happy = true
				break
			}
			for i := range tmp {
				basis[j+1][i] = tmp[i] / hj1
			}
		}
		if happy {
			// Invariant subspace: the projection is exact for any horizon.
			tau = t - tcur
		}
		if tau > t-tcur {
			tau = t - tcur
		}

		// Retry loop: halve τ until the local error estimate fits the
		// budget share tol·scale·(τ/t).
		for {
			hs := NewMatrix(k, k)
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					hs.Set(i, j, tau*hm[i][j])
				}
			}
			f := Expm(hs)
			errEst := 0.0
			if !happy {
				errEst = beta * math.Abs(hm[k][k-1]) * math.Abs(f.At(k-1, 0)) * tau
			}
			bad := errEst > tol*scale*(tau/t)*math.Max(1, beta/scale)
			for i := 0; i < k && !bad; i++ {
				if math.IsNaN(f.At(i, 0)) || math.IsInf(f.At(i, 0), 0) {
					bad = true
				}
			}
			if !bad {
				for i := range w {
					w[i] = 0
				}
				for i := 0; i < k; i++ {
					AXPY(beta*f.At(i, 0), basis[i], w)
				}
				tcur += tau
				// Grow gently on easy accepts; the next substep recomputes
				// the basis from the advanced vector.
				if errEst < 0.1*tol*scale*(tau/t) {
					tau *= 2
				}
				break
			}
			tau /= 2
			if tau < 1e-12*t {
				return nil, iters, ErrExpvBreakdown
			}
		}
	}
	return w, iters, nil
}
