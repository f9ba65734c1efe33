package rbmodel

import (
	"context"
)

// Context-aware variants of the chain-solving entry points. The context
// carries three things through to the markov recovery-block ladder:
// cancellation (a -timeout or Ctrl-C stops the solve at the next rung
// boundary), an injected guard.FaultSpec (the chaos solver-fault
// perturbation), and a guard.Recorder (how the advisor learns that a number
// it is about to rank came from a fallback route). The context-free methods
// remain the common path and are byte-identical to these under a background
// context.

// MeanXCtx is MeanX under an explicit context.
func (m *AsyncModel) MeanXCtx(ctx context.Context) (float64, error) {
	m1, _, err := m.MomentsXCtx(ctx)
	return m1, err
}

// MomentsXCtx is MomentsX under an explicit context. Every backend runs its
// moment ladder under the same guard contract: the enumerated and orbit
// chains through the dense/CSR rungs, the kron engine through the
// kron-krylov/kron-gmres/kron-uniformization/kron-mc rungs.
func (m *AsyncModel) MomentsXCtx(ctx context.Context) (m1, m2 float64, err error) {
	switch {
	case m.chain != nil:
		return m.chain.AbsorptionMomentsCtx(ctx, m.Entry())
	case m.orbit != nil:
		return m.orbit.Chain().AbsorptionMomentsCtx(ctx, m.orbit.Entry())
	default:
		return m.kron.mf.AbsorptionMomentsCtx(ctx)
	}
}

// MeanLWaldCtx is MeanLWald under an explicit context.
func (m *AsyncModel) MeanLWaldCtx(ctx context.Context) ([]float64, error) {
	ex, err := m.MeanXCtx(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]float64, m.P.N())
	for i, mu := range m.P.Mu {
		out[i] = mu * ex
	}
	return out, nil
}

// MeanXCtx is MeanX under an explicit context.
func (m *SymmetricModel) MeanXCtx(ctx context.Context) (float64, error) {
	m1, _, err := m.chain.AbsorptionMomentsCtx(ctx, m.Entry())
	return m1, err
}

// MomentsXCtx is MomentsX under an explicit context.
func (m *SymmetricModel) MomentsXCtx(ctx context.Context) (float64, float64, error) {
	return m.chain.AbsorptionMomentsCtx(ctx, m.Entry())
}
