package rbmodel

import (
	"context"
	"errors"
	"math"

	"recoveryblocks/internal/guard"
)

// Section 5 of the paper argues that "the asynchronous method or a longer
// synchronization period is not acceptable for time-critical tasks in which
// a delay in system response beyond a certain value, the system deadline,
// leads to a catastrophic failure". This file quantifies that argument:
// the probability that the interval between recovery lines — a lower bound
// on the worst-case rollback distance, hence on the recovery delay — exceeds
// a deadline d, and the quantiles of that interval.
//
// Every such question runs as the recovery block rbmodel/transient. Its
// primary rung, "transform", inverts the Laplace transform of X (see
// transform.go): two Talbot orders certify each value, and the one-mode
// tail answers where Talbot loses relative accuracy. Its alternate,
// "uniformization", steps the absorption sequence of the operator in the
// model's form (Route): the count operator or the cube's. Grid questions
// (DensityX, CDFX) read that sequence directly: it answers a whole grid for
// the cost of its largest time.

// transientEps is the Poisson truncation error of every uniformization
// evaluation.
const transientEps = 1e-10

// DeadlineMissProb returns P(X > d): the probability that no recovery line
// forms within d time units, so a failure at the wrong moment forces a
// rollback (and re-execution) longer than the deadline.
func (m *AsyncModel) DeadlineMissProb(d float64) (float64, error) {
	return m.DeadlineMissProbCtx(context.Background(), d)
}

// DeadlineMissProbCtx is DeadlineMissProb under an explicit context, polled
// between transform passes (each one O(n·2^n) sweep) and inside the
// uniformization alternate as that sweep polls it.
func (m *AsyncModel) DeadlineMissProbCtx(ctx context.Context, d float64) (float64, error) {
	if p, done, err := trivialMiss(d); done {
		return p, err
	}
	return transient(ctx,
		func(ctx context.Context) (float64, error) { return m.transform().question(ctx).survival(d) },
		func(ctx context.Context) (float64, error) { return m.missUniformized(ctx, d) })
}

// missUniformized is the uniformization rung of DeadlineMissProbCtx. It
// reads S from the transient masses, not as 1 − F, so S keeps its relative
// accuracy far into the tail.
func (m *AsyncModel) missUniformized(ctx context.Context, d float64) (float64, error) {
	S, _, err := m.gridEngine().NewAbsorptionSequence().Survival(ctx, d, transientEps)
	return S, err
}

// trivialMiss answers the deadlines no inversion is needed for, under the
// conventions every model shares: a NaN deadline is a typed error (it would
// slip past every comparison and poison the inversion), a deadline at or
// below zero is always missed (X is positive and continuous), and an
// infinite one never (absorption is certain). done is false for every
// finite positive d.
func trivialMiss(d float64) (p float64, done bool, err error) {
	switch {
	case math.IsNaN(d):
		return 0, true, guard.Numericalf("rbmodel: deadline is NaN")
	case d <= 0:
		return 1, true, nil
	case math.IsInf(d, 1):
		return 0, true, nil
	}
	return 0, false, nil
}

// transient runs one transient question as the recovery block
// rbmodel/transient: the transform rung, then the uniformization rung.
func transient(ctx context.Context, transform, uniformization func(context.Context) (float64, error)) (float64, error) {
	res, err := guard.Block[float64]{
		Name:       "rbmodel/transient",
		Primary:    guard.Attempt[float64]{Name: "transform", Run: transform},
		Alternates: []guard.Attempt[float64]{{Name: "uniformization", Run: uniformization}},
		Accept: func(v float64) error {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return guard.Rejectedf("rbmodel: transient answer %v", v)
			}
			return nil
		},
	}.Do(ctx)
	return res.Value, err
}

// DeadlineMissProb for the lumped chain (large n): the one-class count form
// of the transform, with the count operator's uniformization as the
// alternate.
func (m *SymmetricModel) DeadlineMissProb(d float64) (float64, error) {
	if p, done, err := trivialMiss(d); done {
		return p, err
	}
	return transient(context.Background(),
		func(ctx context.Context) (float64, error) {
			return newTransform(Params{}, oneClass(m.N, m.Mu, m.Lambda)).question(ctx).survival(d)
		},
		func(ctx context.Context) (float64, error) {
			S, _, err := m.gridEngine().NewAbsorptionSequence().Survival(ctx, d, transientEps)
			return S, err
		})
}

// QuantileX returns the q-th quantile of X (0 < q < 1) — e.g.
// QuantileX(0.99) is the rollback-distance budget a designer must provision
// to cover 99 % of inter-line intervals.
func (m *AsyncModel) QuantileX(q float64) (float64, error) {
	return m.QuantileXCtx(context.Background(), q)
}

// QuantileXCtx is QuantileX under an explicit context, polled as
// DeadlineMissProbCtx polls it. The transform rung starts from the one-mode
// tail's t̂ = log(C/(1 − q))/η and runs Newton's method on the inverted S
// (S′ = −f from the same passes) until S(t) = 1 − q within the rung's
// tolerance; far enough into the tail t̂ is the answer and one certified
// evaluation accepts it. The uniformization rung runs the same iteration on
// the absorption sequence from E[X], growing the horizon by at most a
// quarter per step, so it costs at most about 1.25 times the matvecs of one
// CDF evaluation at its answer.
func (m *AsyncModel) QuantileXCtx(ctx context.Context, q float64) (float64, error) {
	// The NaN case must be explicit: both range comparisons are false for
	// NaN.
	if math.IsNaN(q) || q <= 0 || q >= 1 {
		return 0, errors.New("rbmodel: quantile must be in (0,1)")
	}
	if q > 1-transientEps {
		// The uniformization CDF is resolved only to transientEps, so it may
		// never reach q.
		return 0, guard.Numericalf("rbmodel: quantile %v beyond numerical range", q)
	}
	return transient(ctx,
		func(ctx context.Context) (float64, error) { return m.transform().question(ctx).quantile(1 - q) },
		func(ctx context.Context) (float64, error) { return m.quantileUniformized(ctx, q) })
}

// quantileUniformized is the uniformization rung of QuantileXCtx.
func (m *AsyncModel) quantileUniformized(ctx context.Context, q float64) (float64, error) {
	mean, err := m.MeanXCtx(ctx)
	if err != nil {
		return 0, err
	}
	seq := m.gridEngine().NewAbsorptionSequence()
	t, _, err := invertSurvival(mean, 1-q, func(t float64) (S, f float64, err error) {
		return seq.Survival(ctx, t, transientEps)
	})
	return t, err
}

// quantile returns the t with S(t) = target, certified by the second
// Talbot order at the answer.
func (q *laplace) quantile(target float64) (float64, error) {
	t0 := 0.0
	if eta, c, err := q.tail(); err == nil {
		t0 = math.Log(c/target) / eta
	} else if q.ctx.Err() != nil {
		return 0, err
	}
	if !(t0 > 0) {
		// No usable tail: start from the exponential law of the same mean.
		m1, err := q.meanX()
		if err != nil {
			return 0, err
		}
		t0 = -m1 * math.Log(target)
	}
	t, S, err := invertSurvival(t0, target, func(t float64) (S, f float64, err error) {
		Ss, fs, err := q.talbot(t, talbotNodes)
		return Ss[0], fs[0], err
	})
	if err != nil {
		return 0, err
	}
	checks, _, err := q.talbot(t, talbotCheck)
	if err != nil {
		return 0, err
	}
	check := checks[0]
	if !within(S, check, S) {
		return 0, guard.Rejectedf("rbmodel: Talbot orders %d and %d disagree at the quantile %v: S = %v and %v", talbotNodes, talbotCheck, t, S, check)
	}
	return t, nil
}

// invertSurvival returns a t with S(t) = target, and S there, by Newton's
// method from t0 on the survival function eval returns with its density
// (S′ = −f). Every evaluation narrows the bracket [lo, hi] around the
// answer, a step that would leave it bisects instead, and until an upper
// end is known a step grows t by at most a quarter. It stops when S is
// within the transform tolerance of target or the bracket has closed to
// 1e-12 relative.
func invertSurvival(t0, target float64, eval func(t float64) (S, f float64, err error)) (float64, float64, error) {
	lo, hi, t := 0.0, math.Inf(1), t0
	for i := 0; i < maxTransformSteps; i++ {
		S, f, err := eval(t)
		if err != nil {
			return 0, 0, err
		}
		if within(S, target, target) || !math.IsInf(hi, 1) && hi-lo <= 1e-12*hi {
			return t, S, nil
		}
		if S > target {
			lo = t
		} else {
			hi = t
		}
		next := t + (S-target)/f
		if math.IsInf(hi, 1) {
			next = math.Min(next, 1.25*t)
			if !(next > t) {
				next = 1.25 * t
			}
		} else if !(next > lo && next < hi) {
			next = (lo + hi) / 2
		}
		t = next
	}
	return 0, 0, guard.Numericalf("rbmodel: quantile search did not converge in %d steps", maxTransformSteps)
}

// DecayRateXCtx returns the decay rate η of P(X > t) and its weight C, from
// the rightmost real root −η of 1 + G(s) = 0: the limit the hazard rate
// f(t)/S(t) settles on. It fails with a typed guard.ErrNumerical error when
// the root cannot be bracketed.
func (m *AsyncModel) DecayRateXCtx(ctx context.Context) (eta, c float64, err error) {
	return m.transform().question(ctx).tail()
}
