// Package markov implements the generic continuous- and discrete-time
// Markov-chain machinery behind the paper's analysis: absorbing-chain
// absorption-time moments (E[X] of Section 2.3), transient distributions
// via uniformization (the Chapman–Kolmogorov solution used for the density
// f_X(t)), and discrete-chain expected visit counts (the Y_d construction of
// Figure 4).
package markov

import (
	"context"
	"errors"
	"math"

	"recoveryblocks/internal/guard"
	"recoveryblocks/internal/linalg"
	"recoveryblocks/internal/obs"
)

// Entry is one outgoing transition of a sparse chain row.
type Entry struct {
	To   int
	Rate float64 // rate for CTMC, probability for DTMC
}

// CTMC is a finite continuous-time Markov chain stored sparsely.
// Self-rates are not stored; the diagonal of the generator is implied by the
// row sums.
type CTMC struct {
	n         int
	rows      [][]Entry
	absorbing []bool
	degHint   int // pre-size for each row's first AddRate (0 = grow by append)
}

// NewCTMC returns an empty chain on n states.
func NewCTMC(n int) *CTMC {
	if n <= 0 {
		panic("markov: CTMC needs at least one state")
	}
	return &CTMC{n: n, rows: make([][]Entry, n), absorbing: make([]bool, n)}
}

// ReserveDegree pre-sizes every row touched after this call to the given
// out-degree, so chain construction appends without reallocation. Callers
// that know the transition structure (the full model emits at most
// n + C(n,2) transitions per state) set it before building; at 2^n states
// the saved copying is a measurable slice of build time.
func (c *CTMC) ReserveDegree(deg int) {
	if deg > 0 {
		c.degHint = deg
	}
}

// N returns the number of states.
func (c *CTMC) N() int { return c.n }

// AddRate adds an exponential transition from→to with the given rate.
// Multiple calls accumulate. Rates must be nonnegative; self-transitions and
// transitions out of absorbing states are rejected.
func (c *CTMC) AddRate(from, to int, rate float64) {
	switch {
	case rate < 0:
		panic("markov: negative rate")
	case rate == 0:
		return
	case from == to:
		panic("markov: self-transition in CTMC")
	case c.absorbing[from]:
		panic("markov: transition out of an absorbing state")
	}
	for i := range c.rows[from] {
		if c.rows[from][i].To == to {
			c.rows[from][i].Rate += rate
			return
		}
	}
	if c.rows[from] == nil && c.degHint > 0 {
		c.rows[from] = make([]Entry, 0, c.degHint)
	}
	c.rows[from] = append(c.rows[from], Entry{To: to, Rate: rate})
}

// SetAbsorbing marks a state absorbing. Any previously added transitions out
// of it are discarded.
func (c *CTMC) SetAbsorbing(state int) {
	c.absorbing[state] = true
	c.rows[state] = nil
}

// IsAbsorbing reports whether state is absorbing.
func (c *CTMC) IsAbsorbing(state int) bool { return c.absorbing[state] }

// Transitions returns the outgoing transitions of state (shared slice; do not
// modify).
func (c *CTMC) Transitions(state int) []Entry { return c.rows[state] }

// OutRate returns the total departure rate of state.
func (c *CTMC) OutRate(state int) float64 {
	s := 0.0
	for _, e := range c.rows[state] {
		s += e.Rate
	}
	return s
}

// MaxOutRate returns the largest departure rate over all states — the
// smallest admissible uniformization constant.
func (c *CTMC) MaxOutRate() float64 {
	m := 0.0
	for u := 0; u < c.n; u++ {
		if r := c.OutRate(u); r > m {
			m = r
		}
	}
	return m
}

// transientIndex maps transient states to compact indices; absorbing states
// map to -1.
func (c *CTMC) transientIndex() ([]int, []int) {
	idx := make([]int, c.n)
	var order []int
	for u := 0; u < c.n; u++ {
		if c.absorbing[u] {
			idx[u] = -1
			continue
		}
		idx[u] = len(order)
		order = append(order, u)
	}
	return idx, order
}

// SparseCutoff is the transient-state count at and above which the
// absorbing-chain solves switch from the dense LU route to the CSR
// two-level Gauss–Seidel route. Below it the dense factorization is cheap,
// trivially robust, and byte-for-byte reproducible against the historical
// results; above it the O(nt³) dense cost explodes while the sparse route
// stays proportional to the transition count (see AbsorptionMomentsSparse).
// rbmodel enumerates the full model's 2^n-vertex cube only below it; past it
// the cube runs matrix-free (MatrixFree) and only lumped chains take the CSR
// route.
const SparseCutoff = 256

// sparse-solve accuracy knobs: tol is a normwise backward error (the same
// class a backward-stable LU delivers), and the cycle budget is far above
// anything the aggregated solver needs on chains whose level structure the
// aggregation captures — it exists to turn pathological inputs into errors
// instead of hangs.
const (
	gsTol     = 1e-12
	gsMaxIter = 100000
)

// AbsorptionMoments returns the first and second moments of the absorption
// time from the given start state, by solving Q_T·m1 = −1 and Q_T·m2 = −2·m1
// on the transient generator. It fails if some transient state cannot reach
// an absorbing state (singular system). State spaces below SparseCutoff take
// the dense LU route; larger ones the sparse iterative route — and every
// solve runs inside the recovery-block ladder of AbsorptionMomentsCtx, so a
// rejected or failed route falls through to the next one instead of
// propagating a bad number.
func (c *CTMC) AbsorptionMoments(start int) (m1, m2 float64, err error) {
	return c.AbsorptionMomentsCtx(context.Background(), start)
}

// AbsorptionMomentsDense is the direct route: build the dense transient
// generator and LU-factor it. Exposed so tests and benchmarks can compare
// it against the sparse route at any size.
func (c *CTMC) AbsorptionMomentsDense(start int) (m1, m2 float64, err error) {
	if c.absorbing[start] {
		return 0, 0, nil
	}
	idx, order := c.transientIndex()
	h, h2, err := c.momentVectorsDense(idx, order)
	if err != nil {
		return 0, 0, err
	}
	k := idx[start]
	return h[k], h2[k], nil
}

// momentVectorsDense solves both moment systems by dense LU and returns the
// full solution vectors (indexed by transient order) so the guard's
// acceptance test can bound their residuals.
func (c *CTMC) momentVectorsDense(idx, order []int) (h, h2 []float64, err error) {
	obs.C("markov_solve_dense_total").Inc()
	nt := len(order)
	q := linalg.NewMatrix(nt, nt)
	for k, u := range order {
		for _, e := range c.rows[u] {
			q.Add(k, k, -e.Rate)
			if j := idx[e.To]; j >= 0 {
				q.Add(k, j, e.Rate)
			}
		}
	}
	f, err := linalg.Factor(q)
	if err != nil {
		return nil, nil, guard.Invalidf("markov: absorption unreachable from some state: %v", err)
	}
	rhs := make([]float64, nt)
	for i := range rhs {
		rhs[i] = -1
	}
	h, err = f.Solve(rhs)
	if err != nil {
		return nil, nil, err
	}
	for i := range rhs {
		rhs[i] = -2 * h[i]
	}
	h2, err = f.Solve(rhs)
	if err != nil {
		return nil, nil, err
	}
	return h, h2, nil
}

// AbsorptionMomentsSparse solves the same two systems on a CSR copy of the
// transient generator with the aggregated Gauss–Seidel solver, aggregating
// states by their graph distance to the absorbing set. For the paper's
// chains that distance recovers the popcount levels of the state vector —
// exactly the partition under which uniform-rate chains lump — so the
// coarse correction removes the slow quasi-stationary error mode and the
// solve converges in a handful of sweeps where plain Gauss–Seidel needs
// O(expected jumps to absorption) of them. Cost per sweep is O(transitions),
// so the full solve scales like the transition count rather than the cube
// of the state count.
func (c *CTMC) AbsorptionMomentsSparse(start int) (m1, m2 float64, err error) {
	if c.absorbing[start] {
		return 0, 0, nil
	}
	idx, order := c.transientIndex()
	h, h2, err := c.momentVectorsSparse(idx, order)
	if err != nil {
		return 0, 0, err
	}
	k := idx[start]
	return h[k], h2[k], nil
}

// momentVectorsSparse is the iterative counterpart of momentVectorsDense:
// both systems solved by the aggregated Gauss–Seidel route, full vectors out.
func (c *CTMC) momentVectorsSparse(idx, order []int) (h, h2 []float64, err error) {
	obs.C("markov_solve_sparse_total").Inc()
	q, agg, nAgg, err := c.transientCSR(idx, order)
	if err != nil {
		return nil, nil, err
	}
	nt := len(order)
	rhs := make([]float64, nt)
	for i := range rhs {
		rhs[i] = -1
	}
	h, _, err = q.SolveTwoLevelGS(rhs, agg, nAgg, gsTol, gsMaxIter)
	if err != nil {
		return nil, nil, guard.Numericalf("markov: sparse absorption solve: %v", err)
	}
	for i := range rhs {
		rhs[i] = -2 * h[i]
	}
	h2, _, err = q.SolveTwoLevelGS(rhs, agg, nAgg, gsTol, gsMaxIter)
	if err != nil {
		return nil, nil, guard.Numericalf("markov: sparse absorption solve (second moment): %v", err)
	}
	return h, h2, nil
}

// transientCSR assembles the transient generator Q_T in CSR form together
// with the distance-to-absorption aggregation the sparse solver uses as its
// coarse level. It fails if some transient state cannot reach an absorbing
// state — the same singularity the dense route reports.
func (c *CTMC) transientCSR(idx, order []int) (q *linalg.CSR, agg []int, nAgg int, err error) {
	nt := len(order)
	nnz := 0
	for _, u := range order {
		nnz += len(c.rows[u]) + 1
	}

	// Aggregates: BFS distance to the absorbing set over reversed edges.
	// (For the recovery-block chains this is n − popcount + 1 — the level
	// structure of the last-action vector.)
	rev := make([][]int32, nt)
	for k, u := range order {
		for _, e := range c.rows[u] {
			if j := idx[e.To]; j >= 0 {
				rev[j] = append(rev[j], int32(k))
			}
		}
	}
	dist := make([]int, nt)
	for i := range dist {
		dist[i] = -1
	}
	var queue []int32
	for k, u := range order {
		for _, e := range c.rows[u] {
			if c.absorbing[e.To] {
				if dist[k] < 0 {
					dist[k] = 0
					queue = append(queue, int32(k))
				}
				break
			}
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range rev[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	for k, d := range dist {
		if d < 0 {
			return nil, nil, 0, guard.Invalidf("markov: absorption unreachable from state %d", order[k])
		}
		if d+1 > nAgg {
			nAgg = d + 1
		}
	}

	b := linalg.NewCSRBuilder(nt, nnz)
	for k, u := range order {
		b.Add(k, k, -c.OutRate(u))
		for _, e := range c.rows[u] {
			if j := idx[e.To]; j >= 0 {
				b.Add(k, j, e.Rate)
			}
		}
	}
	return b.Build(), dist, nAgg, nil
}

// MeanAbsorptionTime returns E[time to absorption] from start.
func (c *CTMC) MeanAbsorptionTime(start int) (float64, error) {
	m1, _, err := c.AbsorptionMoments(start)
	return m1, err
}

// MeanAbsorptionTimeIterative computes the same expectation by Gauss–Seidel
// sweeps on h_u = (1 + Σ_v q_uv·h_v)/q_u, avoiding the dense factorization.
// Used for state spaces too large for LU, and as an independent check of the
// direct solver.
func (c *CTMC) MeanAbsorptionTimeIterative(start int, tol float64, maxIter int) (float64, error) {
	if c.absorbing[start] {
		return 0, nil
	}
	h := make([]float64, c.n)
	for iter := 0; iter < maxIter; iter++ {
		delta := 0.0
		for u := 0; u < c.n; u++ {
			if c.absorbing[u] {
				continue
			}
			out := 0.0
			acc := 1.0
			for _, e := range c.rows[u] {
				out += e.Rate
				if !c.absorbing[e.To] {
					acc += e.Rate * h[e.To]
				}
			}
			if out == 0 {
				return 0, errors.New("markov: transient state with no exits")
			}
			nv := acc / out
			if d := math.Abs(nv - h[u]); d > delta {
				delta = d
			}
			h[u] = nv
		}
		if delta < tol {
			return h[start], nil
		}
	}
	return 0, errors.New("markov: Gauss–Seidel did not converge")
}
