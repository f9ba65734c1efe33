package rbmodel

import (
	"context"
	"math"
	"math/bits"
	"math/cmplx"

	"recoveryblocks/internal/guard"
	"recoveryblocks/internal/linalg"
	"recoveryblocks/internal/obs"
)

// The Laplace transform of X. The flow argument behind cubeMoments extends
// to time. Start in the entry state and let q_T(t) be the probability that
// every process in T is marked and no line has formed by t, so q_T(0) = 1
// and q_∅ = S, the survival function of X. Marked mass leaves "T marked"
// at rate μ(T) + Λ(T) and enters it by the recovery point of some i ∈ T
// while T∖i is marked, and every line removes the same mass from every q_T:
//
//	q_T′ = Σ_{i∈T} μ_i·q_{T∖i} − (μ(T) + Λ(T))·q_T − L(t),
//
// with L(t) = Σ_i μ_i·q_{ones∖i}(t) the density of X. Transforming, and
// writing d_T = μ(T) + Λ(T),
//
//	g_∅ = 1/s,  g_T = (1 + Σ_{i∈T} μ_i·g_{T∖i}) / (s + d_T),
//	G(s) = Σ_i μ_i·g_{ones∖i},
//
// and G is the transform of the renewal density started at a line, so
// E[e^{−sX}] = G/(1 + G) and Ŝ(s) = ∫e^{−st}·S(t)dt = 1/(s·(1 + G)).
// The passes carry p_T = s·g_T instead, which stays bounded as s → 0:
//
//	p_∅ = 1,  p_T = (s + Σ_{i∈T} μ_i·p_{T∖i}) / (s + d_T),
//	P(s) = s·G(s) = Σ_i μ_i·p_{ones∖i},
//
// so Ŝ = 1/(s + P) and E[e^{−sX}] = P/(s + P). At s = 0, p_T is
// cubeMoments' marked-set probability P_T and P(0) = 1/E[X]. For lumpable
// rates the count form runs the same recursion over class-count cells, as
// countMoments does: p_c = (s + Σ_k c_k·μ_k·p_{c−e_k}) / (s + μ(c) + Λ(c))
// and P = Σ_k C_k·μ_k·p_{C−e_k}.
//
// One evaluation of P is one pass over the subsets (or cells) in ascending
// order, O(n·2^n), holding the real and imaginary parts of p in two float64
// vectors. At real s the same pass with an infinitesimal imaginary part h
// is the derivative pass: the imaginary vector then carries h·p′_T, with
// p′_∅ = 0 and p′_T = (1 + Σ μ_i·p′_{T∖i} − p_T)/(s + d_T) to first order,
// and no difference quotient is taken.
//
// S(t) comes from the fixed Talbot contour (Abate & Whitt, "A unified
// framework for numerically inverting Laplace transforms", INFORMS J.
// Comput. 2006) at two orders; their difference is the answer's error
// estimate. Past a few means the tail is one mode, S(t) ≈ C·e^{−ηt}, with
// −η the rightmost real root of s + P(s) = 1/Ŝ(s), equivalently of
// 1 + G, and C = 1/(1 + P′(−η)).

const (
	// talbotNodes and talbotCheck are the two Talbot orders. Ŝ is real on
	// the real axis, so M nodes cost M passes. Rounding grows as e^{0.4·M}:
	// at M = 32 the answers drifted 5e-12 from M = 20 and 24, which agreed
	// to 2e-14.
	talbotNodes = 24
	talbotCheck = 20
	// transformRelTol and transformAbsTol bound the disagreement the
	// transform rung accepts, between its two Talbot orders or between
	// Talbot and the one-mode tail: relTol·S + absTol.
	transformRelTol = 1e-9
	transformAbsTol = 1e-12
	// maxTransformSteps caps the root and quantile iterations. Both are
	// bracketed, so the cap is never reached on a well-posed question.
	maxTransformSteps = 100
)

// transform is the Laplace transform of X for one rate structure: the count
// form over cls's cells when cls is set, else the cube form over all 2^n
// subsets of p's processes. d holds the s-independent part of every
// denominator, d_T = μ(T) + Λ(T), for every subset or cell but the full
// one; d[0] is unused.
type transform struct {
	p   Params
	cls *classes
	d   []float64
}

// newTransform builds p's transform over cls's cells, or over the cube when
// cls is nil.
func newTransform(p Params, cls *classes) *transform {
	if cls != nil {
		return &transform{cls: cls, d: cls.denominators()}
	}
	return &transform{p: p, d: cubeDenominators(p)}
}

// cubeDenominators returns μ(T) + Λ(T) for every T < ones by pairRates'
// recursion carried with μ: with j the lowest process of T,
// d_T = d_{T∖j} + μ_j + Σ_{i∉T} λ_ij, a nonnegative sum. For a uniform λ
// the last term is λ·(n − |T|).
func cubeDenominators(p Params) []float64 {
	n := p.N()
	ones := 1<<n - 1
	d := make([]float64, ones)
	lam, uniform := uniformPairRate(p)
	for t := 1; t < ones; t++ {
		j := bits.TrailingZeros(uint(t))
		s := d[t&(t-1)] + p.Mu[j]
		if uniform {
			s += lam * float64(n-bits.OnesCount(uint(t)))
		} else {
			row := p.Lambda[j]
			for z := ones &^ t; z != 0; z &= z - 1 {
				s += row[bits.TrailingZeros(uint(z))]
			}
		}
		d[t] = s
	}
	return d
}

// denominators returns μ(c) + Λ(c) for every cell but the full one, by
// countMoments' recursion carried with μ: with j the lowest nonzero digit
// of c, d_c = d_{c−e_j} + μ_j + Σ_b (C_b − c_b)·L_jb.
func (c *classes) denominators() []float64 {
	d := make([]float64, c.cells-1)
	digit := make([]int, len(c.size))
	for s := 1; s < len(d); s++ {
		j := c.advance(digit)
		v := d[s-c.stride[j]] + c.mu[j]
		for b, cb := range digit {
			v += float64(c.size[b]-cb) * c.lam[j][b]
		}
		d[s] = v
	}
	return d
}

// laplace is one transient question's use of a transform: the two scratch
// vectors of a pass, the context it polls between passes and the pass
// counter. It is not safe for concurrent use; the transform it reads is.
type laplace struct {
	*transform
	ctx    context.Context
	re, im []float64
	digit  []int // count form: the odometer
	passes *obs.Counter
}

// question returns a laplace for one question under ctx.
func (x *transform) question(ctx context.Context) *laplace {
	q := &laplace{
		transform: x,
		ctx:       ctx,
		re:        make([]float64, len(x.d)),
		im:        make([]float64, len(x.d)),
		passes:    obs.C("rbmodel_transform_passes_total"),
	}
	if x.cls != nil {
		q.digit = make([]int, len(x.cls.size))
	}
	return q
}

// at returns P(a + ib), failing only when the context is done.
func (q *laplace) at(a, b float64) (complex128, error) {
	if err := q.ctx.Err(); err != nil {
		return 0, err
	}
	q.passes.Inc()
	var pr, pi float64
	if q.cls != nil {
		pr, pi = q.countPass(a, b)
	} else {
		pr, pi = q.cubePass(a, b)
	}
	return complex(pr, pi), nil
}

// cubePass runs the cube recursion at s = a + ib: real μ products and one
// reciprocal per subset.
func (q *laplace) cubePass(a, b float64) (pr, pi float64) {
	re, im, d, mu := q.re, q.im, q.d, q.p.Mu
	re[0], im[0] = 1, 0
	for t := 1; t < len(d); t++ {
		nr, ni := a, b
		for z := t; z != 0; z &= z - 1 {
			i := bits.TrailingZeros(uint(z))
			u := t &^ (1 << i)
			nr += mu[i] * re[u]
			ni += mu[i] * im[u]
		}
		dr := a + d[t]
		r := 1 / (dr*dr + b*b)
		re[t] = (nr*dr + ni*b) * r
		im[t] = (ni*dr - nr*b) * r
	}
	ones := len(d)
	for i, m := range mu {
		u := ones &^ (1 << i)
		pr += m * re[u]
		pi += m * im[u]
	}
	return pr, pi
}

// countPass runs the count recursion at s = a + ib.
func (q *laplace) countPass(a, b float64) (pr, pi float64) {
	c, re, im, d, digit := q.cls, q.re, q.im, q.d, q.digit
	clear(digit)
	re[0], im[0] = 1, 0
	for s := 1; s < len(d); s++ {
		c.advance(digit)
		nr, ni := a, b
		for k, ck := range digit {
			if ck > 0 {
				w, u := float64(ck)*c.mu[k], s-c.stride[k]
				nr += w * re[u]
				ni += w * im[u]
			}
		}
		dr := a + d[s]
		r := 1 / (dr*dr + b*b)
		re[s] = (nr*dr + ni*b) * r
		im[s] = (ni*dr - nr*b) * r
	}
	full := c.cells - 1
	for k, ck := range c.size {
		w, u := float64(ck)*c.mu[k], full-c.stride[k]
		pr += w * re[u]
		pi += w * im[u]
	}
	return pr, pi
}

// meanX returns E[X] = 1/P(0), one pass.
func (q *laplace) meanX() (float64, error) {
	p, err := q.at(0, 0)
	return 1 / real(p), err
}

// rootFn returns k(s) = s + P(s) = 1/Ŝ(s) and k′(s) at real s < 0 from
// one pass at s + ih.
func (q *laplace) rootFn(s float64) (k, dk float64, err error) {
	step := 1e-20 * math.Abs(s)
	p, err := q.at(s, step)
	return s + real(p), 1 + imag(p)/step, err
}

// talbot returns S(t) and the density f(t) inverted from the m-node fixed
// Talbot contour: with r = 2m/(5t), θ_k = kπ/m, s_k = r·θ_k·(cot θ_k + i)
// and σ_k = θ_k + (θ_k·cot θ_k − 1)·cot θ_k,
//
//	S(t) ≈ (r/m)·[½·Ŝ(r)·e^{rt} + Σ_{k=1}^{m−1} Re(e^{t·s_k}·Ŝ(s_k)·(1 + iσ_k))],
//
// with Ŝ(s) = 1/(s + P(s)), and f(t) the same sum over
// E[e^{−sX}] = P/(s + P).
func (q *laplace) talbot(t float64, m int) (S, f float64, err error) {
	r := 2 * float64(m) / (5 * t)
	for k := 0; k < m; k++ {
		s, w := complex(r, 0), complex(0.5*math.Exp(r*t), 0)
		if k > 0 {
			th := float64(k) * math.Pi / float64(m)
			cot := 1 / math.Tan(th)
			s = complex(r*th*cot, r*th)
			sig := th + (th*cot-1)*cot
			w = cmplx.Exp(complex(t, 0)*s) * complex(1, sig)
		}
		P, err := q.at(real(s), imag(s))
		if err != nil {
			return 0, 0, err
		}
		S += real(w / (s + P))
		f += real(w * P / (s + P))
	}
	return r / float64(m) * S, r / float64(m) * f, nil
}

// within reports whether a and b agree within the transform rung's
// tolerance at scale s.
func within(a, b, s float64) bool {
	return math.Abs(a-b) <= transformRelTol*math.Abs(s)+transformAbsTol
}

// survival returns S(t) for t > 0, certified by the two Talbot orders.
// Where the orders agree only to the absolute tolerance, S is small enough
// that Talbot has lost its relative accuracy, and the one-mode tail
// answers when it agrees with Talbot there.
func (q *laplace) survival(t float64) (float64, error) {
	S, _, err := q.talbot(t, talbotNodes)
	if err != nil {
		return 0, err
	}
	check, _, err := q.talbot(t, talbotCheck)
	if err != nil {
		return 0, err
	}
	if !within(S, check, S) {
		return 0, guard.Rejectedf("rbmodel: Talbot orders %d and %d disagree at t = %v: S = %v and %v", talbotNodes, talbotCheck, t, S, check)
	}
	if math.Abs(S-check) > transformRelTol*math.Abs(S) {
		if eta, c, err := q.tail(); err == nil {
			if st := c * math.Exp(-eta*t); within(st, S, st) {
				return st, nil
			}
		} else if q.ctx.Err() != nil {
			return 0, err
		}
	}
	return math.Min(1, math.Max(0, S)), nil
}

// tail returns η and C of the one-mode tail S(t) ≈ C·e^{−ηt}. On (−η, 0),
// Ŝ(s) is positive and finite, so k(s) = s + P(s) = 1/Ŝ(s) is positive and
// pole-free there; η ≤ Σμ, the largest absorption rate, and η lies short of
// P's first pole, where k falls to −∞ from the right. k tends to 1/E[X] as
// s → 0⁻ and crosses zero at −η. So the search walks left from
// −1/(64·E[X]), doubling but never past the nearer of those two bounds,
// until k turns negative, then runs Newton's method inside that bracket,
// bisecting whenever a step would leave it. A walk that jumped a pole
// could find k positive again beyond it, and Newton from the unbracketed
// side can land on a root beyond a pole instead.
func (q *laplace) tail() (eta, c float64, err error) {
	m1, err := q.meanX()
	if err != nil {
		return 0, 0, err
	}
	limit := max(-q.sumMu()*(1+1e-9), -q.firstPole()*(1-1e-9))
	hi, lo := -1/(64*m1), math.NaN()
	kHi, dHi, err := q.rootFn(hi)
	for err == nil && kHi <= 0 { // start already past the root: walk right
		lo, hi = hi, hi/2
		kHi, dHi, err = q.rootFn(hi)
	}
	for err == nil && math.IsNaN(lo) {
		if hi <= limit {
			return 0, 0, guard.Numericalf("rbmodel: no root of s + P(s) in [%v, 0)", limit)
		}
		s := math.Max(2*hi, limit)
		var k, dk float64
		if k, dk, err = q.rootFn(s); err == nil {
			if k < 0 {
				lo = s
			} else {
				hi, kHi, dHi = s, k, dk
			}
		}
	}
	if err != nil {
		return 0, 0, err
	}
	s, k, dk := hi, kHi, dHi
	for i := 0; i < maxTransformSteps; i++ {
		step := k / dk
		if math.Abs(step) <= 1e-14*math.Abs(s) || hi-lo <= 1e-14*math.Abs(lo) {
			if c = 1 / dk; !(c > 0) || math.IsInf(c, 0) {
				return 0, 0, guard.Numericalf("rbmodel: tail root %v has weight %v", s, c)
			}
			return -s, c, nil
		}
		next := s - step
		if !(next > lo && next < hi) {
			next = (lo + hi) / 2
		}
		if k, dk, err = q.rootFn(next); err != nil {
			return 0, 0, err
		}
		s = next
		if k < 0 {
			lo = s
		} else {
			hi = s
		}
	}
	return 0, 0, guard.Numericalf("rbmodel: tail root did not converge in %d steps", maxTransformSteps)
}

// firstPole returns the smallest d_T at which P has a pole: μ_i + Σ_j λ_ij
// for the process i that minimizes it among those that interact at all.
// μ(T) and Λ(T) only grow with T, and where Λ(T) = 0 every subset of T
// has p = 1 too, so its denominator cancels. It is +Inf when no process
// interacts.
func (x *transform) firstPole() float64 {
	first := math.Inf(1)
	if x.cls == nil {
		for i, row := range x.p.Lambda {
			if lam := linalg.Sum(row); lam > 0 {
				first = math.Min(first, x.p.Mu[i]+lam)
			}
		}
		return first
	}
	c := x.cls
	for k := range c.size {
		lam := -c.lam[k][k]
		for b, cb := range c.size {
			lam += float64(cb) * c.lam[k][b]
		}
		if lam > 0 {
			first = math.Min(first, c.mu[k]+lam)
		}
	}
	return first
}

// sumMu returns Σμ.
func (x *transform) sumMu() float64 {
	if x.cls == nil {
		return x.p.SumMu()
	}
	s := 0.0
	for k, ck := range x.cls.size {
		s += float64(ck) * x.cls.mu[k]
	}
	return s
}
