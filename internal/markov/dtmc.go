package markov

import (
	"errors"

	"recoveryblocks/internal/linalg"
)

// DTMC is a finite discrete-time Markov chain stored sparsely. Unlike the
// CTMC, self-loop probabilities are stored explicitly — the paper's
// uniformized chain Y_d has meaningful self-loops (events that do not change
// the state, such as an RP by a process whose last action was already an RP).
type DTMC struct {
	n         int
	rows      [][]Entry
	absorbing []bool
}

// NewDTMC returns an empty chain on n states.
func NewDTMC(n int) *DTMC {
	if n <= 0 {
		panic("markov: DTMC needs at least one state")
	}
	return &DTMC{n: n, rows: make([][]Entry, n), absorbing: make([]bool, n)}
}

// AddProb adds transition probability mass from→to. Multiple calls
// accumulate.
func (d *DTMC) AddProb(from, to int, p float64) {
	switch {
	case p < 0:
		panic("markov: negative probability")
	case p == 0:
		return
	case d.absorbing[from]:
		panic("markov: transition out of an absorbing state")
	}
	for i := range d.rows[from] {
		if d.rows[from][i].To == to {
			d.rows[from][i].Rate += p
			return
		}
	}
	d.rows[from] = append(d.rows[from], Entry{To: to, Rate: p})
}

// SetAbsorbing marks a state absorbing, discarding its outgoing mass.
func (d *DTMC) SetAbsorbing(state int) {
	d.absorbing[state] = true
	d.rows[state] = nil
}

// IsAbsorbing reports whether state is absorbing.
func (d *DTMC) IsAbsorbing(state int) bool { return d.absorbing[state] }

// Transitions returns the outgoing transitions of state (shared; read-only).
func (d *DTMC) Transitions(state int) []Entry { return d.rows[state] }

// ExpectedVisits returns, for each transient state, the expected number of
// epochs spent there (counting the initial epoch) before absorption when
// starting from start. Absorbing states report 0. This is the row of the
// fundamental matrix N = (I−Q)⁻¹ — the quantity the paper extracts from the
// split chain Y_d to count saved states.
func (d *DTMC) ExpectedVisits(start int) ([]float64, error) {
	visits := make([]float64, d.n)
	if d.absorbing[start] {
		return visits, nil
	}
	idx := make([]int, d.n)
	var order []int
	for u := 0; u < d.n; u++ {
		if d.absorbing[u] {
			idx[u] = -1
			continue
		}
		idx[u] = len(order)
		order = append(order, u)
	}
	nt := len(order)
	// Solve vᵀ(I−Q) = e_startᵀ, i.e. (I−Q)ᵀ v = e_start.
	m := linalg.NewMatrix(nt, nt)
	for k, u := range order {
		m.Add(k, k, 1)
		for _, e := range d.rows[u] {
			if j := idx[e.To]; j >= 0 {
				m.Add(j, k, -e.Rate)
			}
		}
	}
	rhs := make([]float64, nt)
	rhs[idx[start]] = 1
	v, err := linalg.SolveLinear(m, rhs)
	if err != nil {
		return nil, errors.New("markov: chain has transient states that never absorb")
	}
	for k, u := range order {
		visits[u] = v[k]
	}
	return visits, nil
}
