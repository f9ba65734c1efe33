package synch

import (
	"errors"
	"math"

	"recoveryblocks/internal/guard"
)

// The paper's Section 1 poses, without solving, the question of "the optimal
// interval between two successive synchronizations". This file answers it
// under the paper's own assumptions with a renewal-reward model.
//
// A synchronization cycle with request interval τ consists of τ time units
// of useful work per process, a commitment wait costing E[CL] = n·E[Z]−Σ1/μ
// in total, and — when an error strikes (Poisson rate θ per process set) —
// a rollback that discards on average half the work accumulated since the
// last recovery line (uniform strike position within the cycle, expected
// n·τ/2 process-work units, plus the restart of the partial wait).
//
// Long-run overhead fraction:
//
//	overhead(τ) = [E[CL] + θ·(τ+E[Z])·n·τ/2] / [n·(τ + E[Z])]
//
// Small τ wastes time synchronizing; large τ exposes more work to loss.
// The minimizer balances them — precisely the trade-off Section 5 describes
// ("we weigh the trade-off between the loss of computation power during
// normal operation and the increase in response time due to rollback").

// OverheadRate returns the long-run fraction of computing power lost to
// synchronization waits plus expected rollback loss, for request interval
// tau and system error rate theta (errors per unit time striking the
// process set).
func OverheadRate(mu []float64, tau, theta float64) (float64, error) {
	if err := validateRates(mu); err != nil {
		return 0, err
	}
	if tau <= 0 || math.IsNaN(tau) || math.IsInf(tau, 0) {
		return 0, guard.Numericalf("synch: tau %v must be positive and finite", tau)
	}
	if theta < 0 || math.IsNaN(theta) || math.IsInf(theta, 0) {
		return 0, guard.Numericalf("synch: theta %v must be nonnegative and finite", theta)
	}
	ez, err := MeanMax(mu)
	if err != nil {
		return 0, err
	}
	return overheadRate(float64(len(mu)), meanLossFrom(mu, ez), ez, tau, theta), nil
}

// overheadRate is the overhead expression for n processes given E[CL] and
// E[Z], neither of which depends on τ.
func overheadRate(n, cl, ez, tau, theta float64) float64 {
	cycle := tau + ez
	lost := cl + theta*cycle*n*tau/2
	return lost / (n * cycle)
}

// OptimalInterval returns the synchronization request interval minimizing
// OverheadRate, found by golden-section search on the unimodal cost, along
// with the achieved overhead fraction. theta must be positive — with no
// errors the optimum is unbounded (never synchronize).
func OptimalInterval(mu []float64, theta float64) (tau, overhead float64, err error) {
	if err := validateRates(mu); err != nil {
		return 0, 0, err
	}
	if theta <= 0 || math.IsNaN(theta) || math.IsInf(theta, 0) {
		return 0, 0, errors.New("synch: theta must be positive and finite (otherwise never synchronize)")
	}
	// E[Z] and E[CL] are computed once: the search probes τ about 65 times
	// and each 2ⁿ-subset MeanMax would otherwise be recomputed per probe.
	ez, err := MeanMax(mu)
	if err != nil {
		return 0, 0, err
	}
	cl := meanLossFrom(mu, ez)
	n := float64(len(mu))
	cost := func(t float64) float64 { return overheadRate(n, cl, ez, t, theta) }
	// Bracket: the optimum scales like sqrt(CL/θ); search a generous span.
	scale := math.Sqrt((cl + 1e-9) / theta)
	lo, hi := scale/1000, scale*1000
	const phi = 0.6180339887498949
	a, b := lo, hi
	c := b - phi*(b-a)
	d := a + phi*(b-a)
	fc, fd := cost(c), cost(d)
	for i := 0; i < 200 && b-a > 1e-10*scale; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - phi*(b-a)
			fc = cost(c)
		} else {
			a, c, fc = c, d, fd
			d = a + phi*(b-a)
			fd = cost(d)
		}
	}
	tau = (a + b) / 2
	overhead = cost(tau)
	return tau, overhead, nil
}
