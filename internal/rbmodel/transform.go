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
//
// On two cores both kinds of pass split through linalg.Shard. The nodes of
// the contours at one t are one batch, both orders' 44 in survival: the
// halves of a batch whose work (nodes × cells) reaches Shard's threshold
// run their nodes on two goroutines with their own scratch, and the S and f
// sums then run in node order. A single cube pass (meanX, rootFn) runs as
// renewal.go's top-bit pipeline from 2^16 subsets. Every node and subset
// keeps its operations and their order, so the answers and the pass count
// do not depend on the core count; below the threshold, and on one core,
// the passes run inline as one loop.

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

// laplace is one transient question's use of a transform: the scratch of
// its passes, the context it polls before each pass and the pass counter.
// It is not safe for concurrent use; the transform it reads is. The first
// half of a split batch runs on lanes[1], allocated when a batch first
// splits; every other pass runs on lanes[0].
type laplace struct {
	*transform
	ctx    context.Context
	lanes  [2]lane
	passes *obs.Counter
	batch  batch
	single cubeAt
	pipe   pipeline
	// s, w and P hold one talbot batch's nodes, weights and values of P.
	s, w, P [talbotNodes + talbotCheck]complex128
}

// lane is the scratch of one goroutine's passes: the real and imaginary
// parts of p and, in the count form, the odometer.
type lane struct {
	re, im []float64
	digit  []int
}

// question returns a laplace for one question under ctx.
func (x *transform) question(ctx context.Context) *laplace {
	q := &laplace{
		transform: x,
		ctx:       ctx,
		lanes:     [2]lane{x.lane()},
		passes:    obs.C("rbmodel_transform_passes_total"),
	}
	q.batch.q, q.single.q = q, q
	return q
}

// lane allocates the scratch of one lane.
func (x *transform) lane() lane {
	l := lane{re: make([]float64, len(x.d)), im: make([]float64, len(x.d))}
	if x.cls != nil {
		l.digit = make([]int, len(x.cls.size))
	}
	return l
}

// at returns P(a + ib) from one pass, failing only when the context is
// done. A cube pass runs as one pipelined sweep.
func (q *laplace) at(a, b float64) (complex128, error) {
	if err := q.ctx.Err(); err != nil {
		return 0, err
	}
	q.passes.Inc()
	l := &q.lanes[0]
	if q.cls != nil {
		return q.countPass(l, a, b), nil
	}
	l.re[0], l.im[0] = 1, 0
	q.single.a, q.single.b = a, b
	q.pipe.sweep(&q.single, len(q.d)+1)
	return q.cubeSum(l), nil
}

// pass returns P(a + ib) from one pass on lane l.
func (q *laplace) pass(l *lane, a, b float64) complex128 {
	if q.cls != nil {
		return q.countPass(l, a, b)
	}
	l.re[0], l.im[0] = 1, 0
	q.cubeRange(l, a, b, 0, len(q.d))
	return q.cubeSum(l)
}

// eval writes P(s_k) into q.P[k] for the first n nodes s_k of q.s, as one
// linalg.Shard job over node indices sized by its work, nodes × cells.
func (q *laplace) eval(n int) error {
	b := &q.batch
	b.n, b.err = n, [2]error{}
	linalg.Shard(b, n*len(q.d), n)
	if b.err[1] != nil {
		return b.err[1]
	}
	return b.err[0]
}

// batch is the linalg.Ranger of one eval, over node indices.
type batch struct {
	q   *laplace
	n   int
	err [2]error // each lane's first error
}

// RunRange evaluates the nodes [lo, hi) in order, each after its own poll
// of the context. The first half of a split batch runs on lanes[1].
func (b *batch) RunRange(lo, hi int) {
	q, h := b.q, 0
	if hi < b.n {
		h = 1
		if q.lanes[1].re == nil {
			q.lanes[1] = q.lane()
		}
	}
	for k := lo; k < hi; k++ {
		if err := q.ctx.Err(); err != nil {
			b.err[h] = err
			return
		}
		q.passes.Inc()
		q.P[k] = q.pass(&q.lanes[h], real(q.s[k]), imag(q.s[k]))
	}
}

// cubeAt is the subset pass of a single cube evaluation at a + ib, on
// lanes[0].
type cubeAt struct {
	q    *laplace
	a, b float64
}

func (c *cubeAt) run(lo, hi int) { c.q.cubeRange(&c.q.lanes[0], c.a, c.b, lo, hi) }

// cubeRange runs the cube recursion at s = a + ib over the subsets
// [lo, hi) but ∅ and the full set: real μ products and one reciprocal per
// subset.
func (q *laplace) cubeRange(l *lane, a, b float64, lo, hi int) {
	re, im, d, mu := l.re, l.im, q.d, q.p.Mu
	for t := max(lo, 1); t < min(hi, len(d)); t++ {
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
}

// cubeSum returns P = Σ_i μ_i·p_{ones∖i} from a finished cube pass on l.
func (q *laplace) cubeSum(l *lane) complex128 {
	var pr, pi float64
	ones := len(q.d)
	for i, m := range q.p.Mu {
		u := ones &^ (1 << i)
		pr += m * l.re[u]
		pi += m * l.im[u]
	}
	return complex(pr, pi)
}

// countPass runs the count recursion at s = a + ib on lane l.
func (q *laplace) countPass(l *lane, a, b float64) complex128 {
	c, re, im, d, digit := q.cls, l.re, l.im, q.d, l.digit
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
	var pr, pi float64
	full := c.cells - 1
	for k, ck := range c.size {
		w, u := float64(ck)*c.mu[k], full-c.stride[k]
		pr += w * re[u]
		pi += w * im[u]
	}
	return complex(pr, pi)
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

// talbot returns S(t) and the density f(t) inverted from the fixed Talbot
// contour at each order m in ms, all their nodes evaluated as one batch:
// with r = 2m/(5t), θ_k = kπ/m, s_k = r·θ_k·(cot θ_k + i) and
// σ_k = θ_k + (θ_k·cot θ_k − 1)·cot θ_k,
//
//	S(t) ≈ (r/m)·[½·Ŝ(r)·e^{rt} + Σ_{k=1}^{m−1} Re(e^{t·s_k}·Ŝ(s_k)·(1 + iσ_k))],
//
// with Ŝ(s) = 1/(s + P(s)), and f(t) the same sum over
// E[e^{−sX}] = P/(s + P). Each order's sums run in node order after the
// batch; ms holds one or both of talbotNodes and talbotCheck.
func (q *laplace) talbot(t float64, ms ...int) (S, f [2]float64, err error) {
	off := 0
	for _, m := range ms {
		r := 2 * float64(m) / (5 * t)
		s, w := q.s[off:off+m], q.w[off:off+m]
		for k := range s {
			s[k], w[k] = complex(r, 0), complex(0.5*math.Exp(r*t), 0)
			if k > 0 {
				th := float64(k) * math.Pi / float64(m)
				cot := 1 / math.Tan(th)
				s[k] = complex(r*th*cot, r*th)
				sig := th + (th*cot-1)*cot
				w[k] = cmplx.Exp(complex(t, 0)*s[k]) * complex(1, sig)
			}
		}
		off += m
	}
	if err := q.eval(off); err != nil {
		return S, f, err
	}
	off = 0
	for j, m := range ms {
		for k := off; k < off+m; k++ {
			S[j] += real(q.w[k] / (q.s[k] + q.P[k]))
			f[j] += real(q.w[k] * q.P[k] / (q.s[k] + q.P[k]))
		}
		r := 2 * float64(m) / (5 * t)
		S[j], f[j] = r/float64(m)*S[j], r/float64(m)*f[j]
		off += m
	}
	return S, f, nil
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
	orders, _, err := q.talbot(t, talbotNodes, talbotCheck)
	if err != nil {
		return 0, err
	}
	S, check := orders[0], orders[1]
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
