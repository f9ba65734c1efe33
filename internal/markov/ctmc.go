// Package markov implements the generic continuous- and discrete-time
// Markov-chain machinery behind the paper's analysis: absorbing-chain
// absorption-time moments (E[X] of Section 2.3), transient distributions
// via uniformization (the Chapman–Kolmogorov solution used for the density
// f_X(t)), and discrete-chain expected visit counts (the Y_d construction of
// Figure 4).
package markov

import (
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

// AbsorptionMomentsDense returns the first and second moments of the
// absorption time from the given start state, by solving Q_T·m1 = −1 and
// Q_T·m2 = −2·m1 on the dense transient generator by LU. It fails with
// guard.ErrInvalid if some transient state cannot reach an absorbing state
// (singular system). No command reaches it: the program's moments come in
// closed form (rbmodel), and this solve is the oracle the tests and
// benchmarks judge them by.
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
// full solution vectors, indexed by transient order.
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

// MeanAbsorptionTimeIterative returns E[time to absorption] from start by
// Gauss–Seidel sweeps on h_u = (1 + Σ_v q_uv·h_v)/q_u, avoiding the dense
// factorization: an independent check of the direct solver.
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
