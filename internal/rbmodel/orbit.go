package rbmodel

import (
	"errors"
	"fmt"

	"recoveryblocks/internal/markov"
)

// Orbit lumping generalizes SymmetricModel from fully-exchangeable processes
// to partially-exchangeable ones: partition the processes into classes of
// identical RP rate, and if the interaction rate between two processes
// depends only on their classes (λ_ij = L[class(i)][class(j)]), the full
// 2^n-vertex dynamics are strongly lumpable onto per-class marked counts.
// A state is (u_1, …, u_k) with u_a ∈ [0, c_a]; the all-full cell is the
// entry (it behaves exactly like the all-ones vertex: rule R4 plus the R2
// interactions), and raising into the all-full cell absorbs. The cell count
// Π(c_a+1) is often dozens where 2^n is millions, so the chain solves by the
// ordinary enumerated ladder.

// ErrNotLumpable reports that the rate structure does not collapse onto
// per-class counts: either no two processes share a μ, or some pair rate
// differs within a class block.
var ErrNotLumpable = errors.New("rbmodel: rates are not class-lumpable")

// OrbitModel is the count-lumped exact chain for partially-exchangeable
// parameters.
type OrbitModel struct {
	P Params

	class  []int       // process → class (classes ordered by first occurrence)
	size   []int       // class → process count c_a
	muC    []float64   // class → RP rate
	lamC   [][]float64 // class block interaction rates L[a][b]
	stride []int       // mixed-radix strides over (c_a+1) digits

	chain *markov.CTMC
	cells int // count-vector states, the all-full cell (= entry) included
	entry int
}

// NewOrbit validates p, derives the class partition from the μ values, checks
// block-constancy of λ, and builds the lumped chain. It returns
// ErrNotLumpable (wrapped) when the partition does not reduce the state
// space or λ is not block-constant.
func NewOrbit(p Params) (*OrbitModel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.N()
	m := &OrbitModel{P: p, class: make([]int, n)}
	for i, mu := range p.Mu {
		found := -1
		for a, muA := range m.muC {
			if muA == mu {
				found = a
				break
			}
		}
		if found < 0 {
			found = len(m.muC)
			m.muC = append(m.muC, mu)
			m.size = append(m.size, 0)
		}
		m.class[i] = found
		m.size[found]++
	}
	k := len(m.muC)
	if k == n {
		return nil, fmt.Errorf("%w: all %d processes have distinct RP rates", ErrNotLumpable, n)
	}
	m.lamC = make([][]float64, k)
	for a := range m.lamC {
		m.lamC[a] = make([]float64, k)
		for b := range m.lamC[a] {
			m.lamC[a][b] = -1 // unseen
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := m.class[i], m.class[j]
			rate := p.Lambda[i][j]
			if m.lamC[a][b] < 0 {
				m.lamC[a][b] = rate
				m.lamC[b][a] = rate
			} else if m.lamC[a][b] != rate {
				return nil, fmt.Errorf("%w: λ[%d][%d] = %v breaks class block (%d,%d) rate %v",
					ErrNotLumpable, i+1, j+1, rate, a, b, m.lamC[a][b])
			}
		}
	}
	for a := range m.lamC {
		for b := range m.lamC[a] {
			if m.lamC[a][b] < 0 {
				m.lamC[a][b] = 0 // class pair with no cross pairs (both singletons a==b)
			}
		}
	}

	m.stride = make([]int, k)
	m.cells = 1
	for a := 0; a < k; a++ {
		m.stride[a] = m.cells
		m.cells *= m.size[a] + 1
	}
	m.entry = m.cells - 1 // all digits at their maximum
	m.chain = markov.NewCTMC(m.cells + 1)
	m.chain.ReserveDegree(k + k*(k+1)/2 + 1)
	m.chain.SetAbsorbing(m.Absorbing())
	counts := make([]int, k)
	for s := 0; s < m.cells; s++ {
		m.buildCell(s, counts)
	}
	return m, nil
}

// buildCell installs the transitions out of one count cell. counts is scratch
// for the decoded digits.
func (m *OrbitModel) buildCell(s int, counts []int) {
	k := len(m.size)
	rem := s
	for a := 0; a < k; a++ {
		counts[a] = rem % (m.size[a] + 1)
		rem /= m.size[a] + 1
	}
	// R1: an unmarked process of class a establishes a recovery point.
	// Raising into the all-full cell completes the recovery line.
	for a := 0; a < k; a++ {
		if counts[a] == m.size[a] {
			continue
		}
		rate := float64(m.size[a]-counts[a]) * m.muC[a]
		if next := s + m.stride[a]; next == m.entry {
			m.chain.AddRate(s, m.Absorbing(), rate)
		} else {
			m.chain.AddRate(s, next, rate)
		}
	}
	// R4: out of the entry, any process's next RP forms the line.
	if s == m.entry {
		total := 0.0
		for a := 0; a < k; a++ {
			total += float64(m.size[a]) * m.muC[a]
		}
		m.chain.AddRate(s, m.Absorbing(), total)
	}
	// R2: an interaction between two marked processes clears both marks.
	for a := 0; a < k; a++ {
		if counts[a] >= 2 {
			if rate := float64(counts[a]*(counts[a]-1)/2) * m.lamC[a][a]; rate > 0 {
				m.chain.AddRate(s, s-2*m.stride[a], rate)
			}
		}
		for b := a + 1; b < k; b++ {
			if counts[a] >= 1 && counts[b] >= 1 {
				if rate := float64(counts[a]*counts[b]) * m.lamC[a][b]; rate > 0 {
					m.chain.AddRate(s, s-m.stride[a]-m.stride[b], rate)
				}
			}
		}
	}
	// R3: a marked process of class a interacts with any unmarked process —
	// one aggregated transition per class losing a mark.
	for a := 0; a < k; a++ {
		if counts[a] == 0 {
			continue
		}
		rate := 0.0
		for b := 0; b < k; b++ {
			rate += float64(m.size[b]-counts[b]) * m.lamC[a][b]
		}
		if rate *= float64(counts[a]); rate > 0 {
			m.chain.AddRate(s, s-m.stride[a], rate)
		}
	}
}

// Entry returns the entry cell index (all classes fully marked ≡ S_r).
func (m *OrbitModel) Entry() int { return m.entry }

// Absorbing returns the absorbing state index.
func (m *OrbitModel) Absorbing() int { return m.cells }

// NumStates returns the lumped state count, absorbing state included.
func (m *OrbitModel) NumStates() int { return m.cells + 1 }

// Chain exposes the lumped CTMC.
func (m *OrbitModel) Chain() *markov.CTMC { return m.chain }
