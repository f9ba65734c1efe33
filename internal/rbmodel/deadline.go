package rbmodel

import (
	"context"
	"errors"
	"math"

	"recoveryblocks/internal/guard"
	"recoveryblocks/internal/markov"
)

// Section 5 of the paper argues that "the asynchronous method or a longer
// synchronization period is not acceptable for time-critical tasks in which
// a delay in system response beyond a certain value, the system deadline,
// leads to a catastrophic failure". This file quantifies that argument:
// the probability that the interval between recovery lines — a lower bound
// on the worst-case rollback distance, hence on the recovery delay — exceeds
// a deadline d.

// transientEps is the Poisson truncation error of every transient evaluation.
const transientEps = 1e-10

// DeadlineMissProb returns P(X > d): the probability that no recovery line
// forms within d time units, so a failure at the wrong moment forces a
// rollback (and re-execution) longer than the deadline.
func (m *AsyncModel) DeadlineMissProb(d float64) (float64, error) {
	return m.DeadlineMissProbCtx(context.Background(), d)
}

// DeadlineMissProbCtx is DeadlineMissProb under an explicit context. The
// uniformization sweep checks ctx every 1024 steps on the enumerated and
// orbit routes and before every step on the kron route, where one step is a
// full operator application.
func (m *AsyncModel) DeadlineMissProbCtx(ctx context.Context, d float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return missProb(d, func(t float64) (float64, error) {
		return cdfAt(ctx, m.absorptionSequence(), t)
	})
}

// missProb returns P(X > d) = 1 − F(d) from the CDF evaluator cdf, under the
// conventions every model shares: a NaN deadline is an error, a negative one
// is always missed and an infinite one never (absorption is certain).
func missProb(d float64, cdf func(t float64) (float64, error)) (float64, error) {
	if err := checkDeadline(d); err != nil {
		return 0, err
	}
	if d < 0 {
		return 1, nil
	}
	if math.IsInf(d, 1) {
		return 0, nil
	}
	f, err := cdf(d)
	if err != nil {
		return 0, err
	}
	return math.Max(0, 1-f), nil // rounding can push F past 1
}

// absorptionSequence returns the uniformized absorption sequence from the
// entry state. Every route steps at the same γ, the total event rate, so a
// transient question takes the same number of steps on each: a CSR scatter
// on the enumerated and orbit chains, an operator application of 2^n-long
// vectors on the kron route.
func (m *AsyncModel) absorptionSequence() *markov.AbsorptionSequence {
	if m.chain == nil {
		return m.kron.mf.NewAbsorptionSequence()
	}
	return m.chain().NewAbsorptionSequence(pointMass(m.states, m.entry))
}

// cdfAt returns P(X ≤ t) from the sequence q, failing when ctx is done.
func cdfAt(ctx context.Context, q *markov.AbsorptionSequence, t float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	cdf, _, err := q.At(ctx, t, transientEps)
	return cdf, err
}

// DeadlineMissProb for the lumped chain (large n).
func (m *SymmetricModel) DeadlineMissProb(d float64) (float64, error) {
	return missProb(d, func(t float64) (float64, error) {
		return m.chain.AbsorptionCDF(pointMass(m.N+2, m.Entry()), []float64{t}, transientEps)[0], nil
	})
}

// checkDeadline rejects the one deadline no convention covers: NaN. Without
// the check a NaN horizon slips past every comparison below and poisons the
// Poisson-weight truncation bound inside uniformization, yielding garbage
// instead of a typed error the guard ladder can classify.
func checkDeadline(d float64) error {
	if math.IsNaN(d) {
		return guard.Numericalf("rbmodel: deadline is NaN")
	}
	return nil
}

func pointMass(n, at int) []float64 {
	pi := make([]float64, n)
	pi[at] = 1
	return pi
}

// QuantileX returns the q-th quantile of X (0 < q < 1) by bisection on the
// analytic CDF — e.g. QuantileX(0.99) is the rollback-distance budget a
// designer must provision to cover 99 % of inter-line intervals.
func (m *AsyncModel) QuantileX(q float64) (float64, error) {
	return m.QuantileXCtx(context.Background(), q)
}

// QuantileXCtx is QuantileX under an explicit context, checked between
// bisection probes and inside the uniformization sweep as DeadlineMissProbCtx
// does. Every probe reads the same absorption sequence, so on every route
// the whole search costs the matvecs of one CDF evaluation at the bracket's
// upper end, at most 1.25 times the answer.
func (m *AsyncModel) QuantileXCtx(ctx context.Context, q float64) (float64, error) {
	// The NaN case must be explicit: both range comparisons are false for
	// NaN, and without it the bisection below would run on garbage.
	if math.IsNaN(q) || q <= 0 || q >= 1 {
		return 0, errors.New("rbmodel: quantile must be in (0,1)")
	}
	if q > 1-transientEps {
		// The CDF is resolved only to transientEps, so it may never reach q:
		// the bracket below would grow toward mean·1e9 and size its
		// Poisson weights to match.
		return 0, guard.Numericalf("rbmodel: quantile %v beyond numerical range", q)
	}
	mean, err := m.MeanXCtx(ctx)
	if err != nil {
		return 0, err
	}
	// The sequence is stepped as far as the largest horizon probed, so the
	// bracket grows by a quarter at a time: the search then costs at most
	// about 1.25 times the matvecs of one CDF evaluation at the answer. The
	// last horizon short of q is the bisection's lower end.
	seq := m.absorptionSequence()
	lo, hi := 0.0, mean
	for i := 0; i < 200; i++ {
		cdf, err := cdfAt(ctx, seq, hi)
		if err != nil {
			return 0, err
		}
		if cdf >= q {
			break
		}
		lo, hi = hi, hi*1.25
		if hi > mean*1e9 {
			return 0, guard.Numericalf("rbmodel: quantile beyond numerical range")
		}
	}
	for i := 0; i < 100 && hi-lo > 1e-9*(1+hi); i++ {
		mid := (lo + hi) / 2
		cdf, err := cdfAt(ctx, seq, mid)
		if err != nil {
			return 0, err
		}
		if cdf < q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}
