package rbmodel

import (
	"context"
	"fmt"
	"math"

	"recoveryblocks/internal/guard"
	"recoveryblocks/internal/markov"
)

// Context-aware variants of the moment entry points. The context carries
// three things through to the markov recovery-block ladder:
// cancellation (a -timeout or Ctrl-C stops the solve at the next rung
// boundary), an injected guard.FaultSpec (the chaos solver-fault
// perturbation), and a guard.Recorder (how the advisor learns that a number
// it is about to rank came from a fallback route). The context-free methods
// call these under a background context.

// MeanXCtx is MeanX under an explicit context.
func (m *AsyncModel) MeanXCtx(ctx context.Context) (float64, error) {
	m1, _, err := m.MomentsXCtx(ctx)
	return m1, err
}

// MomentsXCtx is MomentsX under an explicit context: the moment ladder,
// kron-renewal (the count form or the cube recursion, see NewAsync) and
// then the Kronecker engine's kron-krylov/kron-uniformization/kron-mc
// alternates, on every route. The engine is built only if an alternate
// runs.
func (m *AsyncModel) MomentsXCtx(ctx context.Context) (m1, m2 float64, err error) {
	closed := func() (float64, float64) {
		if m.cls != nil {
			return m.cls.countMoments()
		}
		return cubeMoments(m.P)
	}
	return markov.AbsorptionMomentsLadder(ctx, closed, func() *markov.MatrixFree { return m.engine().mf })
}

// MeanXCtx is MeanX under an explicit context.
func (m *SymmetricModel) MeanXCtx(ctx context.Context) (float64, error) {
	m1, _, err := m.MomentsXCtx(ctx)
	return m1, err
}

// MomentsXCtx is MomentsX under an explicit context: the one-class count
// form, with no ladder. It fails with a guard.ErrBudget error wrapping
// ctx's when ctx is done, and with a typed guard.ErrNumerical error when
// the moments overflow.
func (m *SymmetricModel) MomentsXCtx(ctx context.Context) (float64, float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, fmt.Errorf("rbmodel: symmetric moments: %w: %w", guard.ErrBudget, err)
	}
	m1, m2 := oneClass(m.N, m.Mu, m.Lambda).countMoments()
	if math.IsInf(m1, 0) || math.IsNaN(m1) || math.IsInf(m2, 0) || math.IsNaN(m2) {
		return 0, 0, guard.Numericalf("rbmodel: symmetric moments E[X]=%v, E[X²]=%v are not finite", m1, m2)
	}
	return m1, m2, nil
}
