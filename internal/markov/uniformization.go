package markov

import (
	"context"
	"math"
	"slices"

	"recoveryblocks/internal/linalg"
	"recoveryblocks/internal/obs"
)

// poissonWeights returns the Poisson(Λt) probabilities w_k for k = 0..K in
// w's storage, where K is the first k past the mode at which the accumulated
// weight reaches 1 − eps (capped at Λt + 10·√Λt + 30). The mode's weight
// costs one Lgamma; every other weight follows from its neighbour by the
// ratio w_{k+1}/w_k = Λt/(k+1), so a fine grid of horizons pays no Lgamma or
// Exp per term. Weights far below the mode underflow to zero, as they do in
// log space.
func poissonWeights(w []float64, lambdaT, eps float64) []float64 {
	if lambdaT < 0 {
		panic("markov: negative uniformization horizon")
	}
	if lambdaT == 0 {
		return append(w[:0], 1)
	}
	bound := int(lambdaT + 10*math.Sqrt(lambdaT) + 30)
	mode := int(lambdaT)
	if cap(w) < mode+1 {
		w = make([]float64, mode+1, bound+1)
	}
	w = w[:mode+1]
	lg, _ := math.Lgamma(float64(mode + 1))
	wm := math.Exp(-lambdaT + float64(mode)*math.Log(lambdaT) - lg)
	// The running weight stays in a register and the ratios off its multiply
	// chain, so each term costs one multiply of latency.
	wk := wm
	w[mode] = wm
	for k := mode; k > 0; k-- {
		wk *= float64(k) / lambdaT
		w[k-1] = wk
	}
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	wk = wm
	for k := mode + 1; k <= bound; k++ {
		wk *= lambdaT / float64(k)
		w = append(w, wk)
		sum += wk
		if 1-sum < eps {
			break
		}
	}
	return w
}

// AbsorptionSequence is the uniformized absorption sequence of one chain from
// one initial distribution. With P = I + Q/γ and π_k = π_0·Pᵏ it records, per
// step k, the absorbed mass a_k, the transient mass s_k and the absorption
// flux d_k = Σ_u π_k(u)·r_u, with r_u the absorption rate out of u.
// Uniformization turns every transient question into a Poisson-weighted sum
// over that one sequence:
//
//	F(t) = Σ_k Pois(γt; k)·a_k,   f(t) = Σ_k Pois(γt; k)·d_k,
//
// so once the sequence reaches the truncation point of the largest horizon
// asked, CDF and density values at any smaller t cost no further matvecs.
// Only the step differs by chain: a CTMC scatters π through its uniformized
// CSR, while a MatrixFree engine applies π ← π + Q_Tᵀ·π/γ through its
// operator and keeps the absorbed mass implicit, a_{k+1} = a_k + d_k/γ. The
// sequence extends lazily, one matvec per step, each counted on
// markov_uniformization_matvecs_total. It is not safe for concurrent use.
type AbsorptionSequence struct {
	gamma float64
	// Exactly one of p and op steps the distribution; neither does when
	// γ = 0 and the distribution never moves.
	p          *linalg.CSR     // CTMC: the uniformized chain, absorbing states included
	op         linalg.Operator // MatrixFree: Q_T, the absorbing state implicit
	absorbing  []bool          // CTMC: the states a_k sums
	absorbIdx  []int           // the states with a direct absorption rate
	absorbRate []float64       // their rates
	pollMask   int             // context checks every pollMask+1 steps, a power of two
	cur, next  []float64
	a, s, d    []float64
	w          []float64 // Poisson-weight scratch
	matvecs    *obs.Counter
}

// NewAbsorptionSequence uniformizes the chain once at its maximum departure
// rate, γ, and records step 0 from pi0.
func (c *CTMC) NewAbsorptionSequence(pi0 []float64) *AbsorptionSequence {
	if len(pi0) != c.n {
		panic("markov: initial distribution length mismatch")
	}
	q := &AbsorptionSequence{
		gamma:     c.MaxOutRate(),
		absorbing: c.absorbing,
		pollMask:  1023,
		cur:       append([]float64(nil), pi0...),
		next:      make([]float64, c.n),
		matvecs:   obs.C("markov_uniformization_matvecs_total"),
	}
	if q.gamma > 0 {
		nnz := 1 // rows plus room for the self-loop each row may carry
		for u := 0; u < c.n; u++ {
			nnz += len(c.rows[u]) + 1
		}
		b := linalg.NewCSRBuilder(c.n, nnz)
		for u := 0; u < c.n; u++ {
			if c.absorbing[u] {
				b.Add(u, u, 1) // absorbing states hold their mass
				continue
			}
			stay, absorb := 1.0, 0.0
			for _, e := range c.rows[u] {
				b.Add(u, e.To, e.Rate/q.gamma)
				stay -= e.Rate / q.gamma
				if c.absorbing[e.To] {
					absorb += e.Rate
				}
			}
			if stay > 0 {
				b.Add(u, u, stay)
			}
			if absorb > 0 {
				q.absorbIdx = append(q.absorbIdx, u)
				q.absorbRate = append(q.absorbRate, absorb)
			}
		}
		q.p = b.Build()
	}
	q.record(q.masses())
	return q
}

// NewAbsorptionSequence returns the uniformized absorption sequence from
// Start at the engine's γ. It holds two state-space vectors, against the
// kronRestart+1 of a Krylov sweep, and polls the context before every step.
func (m *MatrixFree) NewAbsorptionSequence() *AbsorptionSequence {
	q := &AbsorptionSequence{
		gamma:      m.gamma,
		op:         m.op,
		absorbIdx:  m.spec.AbsorbIdx,
		absorbRate: m.spec.AbsorbRate,
		pollMask:   0, // a step is a full operator application
		cur:        make([]float64, m.dim),
		next:       make([]float64, m.dim),
		matvecs:    obs.C("markov_uniformization_matvecs_total"),
	}
	q.cur[m.spec.Start] = 1
	q.record(0, 1)
	return q
}

// record appends a_k, s_k and d_k of the held distribution, given its
// absorbed mass a and transient mass s.
func (q *AbsorptionSequence) record(a, s float64) {
	d := 0.0
	for i, u := range q.absorbIdx {
		d += q.cur[u] * q.absorbRate[i]
	}
	q.a = append(q.a, a)
	q.s = append(q.s, s)
	q.d = append(q.d, d)
}

// masses returns the absorbed and transient mass of a CTMC's held
// distribution.
func (q *AbsorptionSequence) masses() (a, s float64) {
	for u, v := range q.cur {
		if q.absorbing[u] {
			a += v
		} else {
			s += v
		}
	}
	return a, s
}

// extend steps the sequence until it holds index k, checking ctx before
// step 1 and every pollMask+1 steps after it.
func (q *AbsorptionSequence) extend(ctx context.Context, k int) error {
	if grow := k + 1 - len(q.a); grow > 0 {
		q.a = slices.Grow(q.a, grow)
		q.s = slices.Grow(q.s, grow)
		q.d = slices.Grow(q.d, grow)
	}
	for len(q.a) <= k {
		if (len(q.a)-1)&q.pollMask == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		q.matvecs.Inc()
		if q.op != nil {
			// π ← π + Q_Tᵀ·π/γ: the uniformized step on the transient block;
			// the step moves d_k/γ of mass into the implicit absorbing state.
			q.op.MulVecTransInto(q.next, q.cur)
			for i, v := range q.next {
				q.cur[i] += v / q.gamma
			}
			last := len(q.a) - 1
			q.record(q.a[last]+q.d[last]/q.gamma, linalg.Sum(q.cur))
		} else {
			// π ← π·P: a transposed CSR scatter.
			q.p.MulVecTransInto(q.next, q.cur)
			q.cur, q.next = q.next, q.cur
			q.record(q.masses())
		}
	}
	return nil
}

// At returns the absorption CDF F(t) and density f(t) at horizon t ≥ 0, with
// Poisson truncation error below eps. It extends the sequence as far as t
// needs and fails only when ctx is done.
func (q *AbsorptionSequence) At(ctx context.Context, t, eps float64) (cdf, density float64, err error) {
	if q.gamma == 0 || t == 0 {
		return q.a[0], q.d[0], nil
	}
	q.w = poissonWeights(q.w, q.gamma*t, eps)
	if err := q.extend(ctx, len(q.w)-1); err != nil {
		return 0, 0, err
	}
	for k, wk := range q.w {
		cdf += wk * q.a[k]
		density += wk * q.d[k]
	}
	return cdf, density, nil
}

// TransientDistribution computes π(t) = π(0)·e^{Qt} by uniformization:
// π(t) = Σ_k Pois(γt; k)·π(0)·Pᵏ with P = I + Q/γ. eps bounds the truncation
// error in total variation. It carries the whole vector through the sum, so
// it is the reference the absorption sequence's scalar sums are tested
// against.
func (c *CTMC) TransientDistribution(pi0 []float64, t, eps float64) []float64 {
	q := c.NewAbsorptionSequence(pi0)
	if q.p == nil || t == 0 {
		return append([]float64(nil), pi0...)
	}
	out := make([]float64, c.n)
	for k, wk := range poissonWeights(nil, q.gamma*t, eps) {
		// Stepping one index at a time leaves π_k in q.cur; a background
		// context never cancels, so extend cannot fail here.
		_ = q.extend(context.Background(), k)
		for i, v := range q.cur {
			out[i] += wk * v
		}
	}
	return out
}

// transientSums evaluates AbsorptionSequence.At over times from pi0 and keeps
// the CDF or the density.
func (c *CTMC) transientSums(pi0, times []float64, eps float64, density bool) []float64 {
	q := c.NewAbsorptionSequence(pi0)
	out := make([]float64, len(times))
	for i, t := range times {
		// A background context never cancels, so At cannot fail here.
		cdf, f, _ := q.At(context.Background(), t, eps)
		if density {
			out[i] = f
		} else {
			out[i] = cdf
		}
	}
	return out
}

// AbsorptionDensity evaluates the density of the absorption time at the given
// times: f(t) = Σ_u π_u(t)·(rate from u into absorbing states).
func (c *CTMC) AbsorptionDensity(pi0 []float64, times []float64, eps float64) []float64 {
	return c.transientSums(pi0, times, eps, true)
}

// AbsorptionCDF evaluates P(absorbed by t) at the given times as the total
// probability mass sitting in absorbing states.
func (c *CTMC) AbsorptionCDF(pi0 []float64, times []float64, eps float64) []float64 {
	return c.transientSums(pi0, times, eps, false)
}
