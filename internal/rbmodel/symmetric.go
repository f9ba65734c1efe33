package rbmodel

import (
	"context"
	"errors"
	"sync"

	"recoveryblocks/internal/markov"
)

// SymmetricModel is the paper's simplified chain for identical processes
// (μ_i = μ, λ_ij = λ), obtained by lumping all intermediate states with the
// same number u of ones into a single state S_u (Section 2.2, Figure 3,
// rules R1'–R4'). It has n + 2 states and therefore scales to large n, which
// is what makes the Figure 5 sweep cheap. Its moment pair is the one-class
// count form of the renewal recursion, read with no solve and no ladder;
// its density and the deadline miss's uniformization alternate step the
// one-class count operator. The chain itself is built only for Chain and
// the DOT rendering.
//
// State indexing: 0 = entry (S_r), 1+u = S_u for u = 0..n-1,
// n+1 = absorbing (S_{r+1}).
type SymmetricModel struct {
	N      int
	Mu     float64
	Lambda float64

	chainOnce sync.Once
	chain     *markov.CTMC
	gridOnce  sync.Once
	grid      *markov.MatrixFree
}

// NewSymmetric validates the rates and builds the model; its chain and its
// operator are built on first use.
func NewSymmetric(n int, mu, lambda float64) (*SymmetricModel, error) {
	if n < 1 {
		return nil, errors.New("rbmodel: need at least one process")
	}
	if mu <= 0 {
		return nil, errors.New("rbmodel: μ must be positive")
	}
	if lambda < 0 {
		return nil, errors.New("rbmodel: λ must be nonnegative")
	}
	return &SymmetricModel{N: n, Mu: mu, Lambda: lambda}, nil
}

// Chain returns the lumped chain of Figure 3, built on first use.
func (m *SymmetricModel) Chain() *markov.CTMC {
	m.chainOnce.Do(func() { m.chain = m.buildChain() })
	return m.chain
}

// buildChain installs rules R1′–R4′ on an (n+2)-state CTMC.
func (m *SymmetricModel) buildChain() *markov.CTMC {
	n, mu, lambda := m.N, m.Mu, m.Lambda
	c := markov.NewCTMC(n + 2)
	c.SetAbsorbing(m.Absorbing())

	fn := float64(n)
	// Entry: R4' direct formation of the next line, plus the pairwise
	// interaction that breaks two processes out of the line (the entry state
	// behaves like S_n with its R2' transition).
	c.AddRate(m.Entry(), m.Absorbing(), fn*mu)
	if n >= 2 && lambda > 0 {
		c.AddRate(m.Entry(), m.StateOf(n-2), fn*(fn-1)/2*lambda)
	}
	for u := 0; u <= n-1; u++ {
		fu := float64(u)
		from := m.StateOf(u)
		// R1': a process with x=0 establishes an RP.
		if u == n-1 {
			c.AddRate(from, m.Absorbing(), (fn-fu)*mu)
		} else {
			c.AddRate(from, m.StateOf(u+1), (fn-fu)*mu)
		}
		if lambda > 0 {
			// R2': interaction between two marked processes.
			if u >= 2 {
				c.AddRate(from, m.StateOf(u-2), fu*(fu-1)/2*lambda)
			}
			// R3': interaction between a marked and an unmarked process.
			if u >= 1 && u < n {
				c.AddRate(from, m.StateOf(u-1), fu*(fn-fu)*lambda)
			}
		}
	}
	return c
}

// gridEngine returns the one-class count operator's engine, built on first
// use. It steps at the entry's out-rate nμ + C(n,2)·λ, the largest of the
// chain's.
func (m *SymmetricModel) gridEngine() *markov.MatrixFree {
	m.gridOnce.Do(func() {
		fn := float64(m.N)
		m.grid = newCountEngine(oneClass(m.N, m.Mu, m.Lambda), fn*m.Mu+fn*(fn-1)/2*m.Lambda)
	})
	return m.grid
}

// Entry returns the entry state index.
func (m *SymmetricModel) Entry() int { return 0 }

// Absorbing returns the absorbing state index.
func (m *SymmetricModel) Absorbing() int { return m.N + 1 }

// StateOf maps the number of ones u (0 ≤ u ≤ n−1) to a state index.
func (m *SymmetricModel) StateOf(u int) int {
	if u < 0 || u > m.N-1 {
		panic("rbmodel: u out of range for lumped state")
	}
	return u + 1
}

// MeanX returns E[X]: MeanXCtx under a background context.
func (m *SymmetricModel) MeanX() (float64, error) {
	return m.MeanXCtx(context.Background())
}

// MomentsX returns E[X] and E[X²]: MomentsXCtx under a background context.
func (m *SymmetricModel) MomentsX() (float64, float64, error) {
	return m.MomentsXCtx(context.Background())
}

// DensityX evaluates f_X(t) at the given times from one absorption
// sequence.
func (m *SymmetricModel) DensityX(times []float64) []float64 {
	q := m.gridEngine().NewAbsorptionSequence()
	f := make([]float64, len(times))
	for i, t := range times {
		// A background context never cancels, so At cannot fail here.
		_, f[i], _ = q.At(context.Background(), t, transientEps)
	}
	return f
}

// MeanL returns E[L] per process (= μ·E[X]; identical across processes by
// symmetry).
func (m *SymmetricModel) MeanL() (float64, error) {
	ex, err := m.MeanX()
	if err != nil {
		return 0, err
	}
	return m.Mu * ex, nil
}
