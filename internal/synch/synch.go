// Package synch implements the Section 3 analysis of synchronized recovery
// blocks: when a synchronization request is issued, process P_i still needs
// an exponential time y_i ~ Exp(μ_i) to reach its next acceptance test, every
// process then waits for the slowest one (Z = max y_i), and the computation
// power lost to waiting is CL = Σ_i (Z − y_i). The paper derives
//
//	E[CL] = n·∫₀^∞ (1 − G(t)) dt − Σ_i 1/μ_i,  G(t) = Π_i (1 − e^{−μ_i t}).
//
// This package evaluates E[Z] and E[CL] exactly by inclusion–exclusion, by
// numeric integration (as written in the paper), and by Monte Carlo, so the
// three routes cross-validate.
package synch

import (
	"errors"
	"fmt"
	"math"

	"recoveryblocks/internal/dist"
	"recoveryblocks/internal/guard"
	"recoveryblocks/internal/mc"
	"recoveryblocks/internal/stats"
)

// validateRates rejects empty or non-positive rate vectors.
func validateRates(mu []float64) error {
	if len(mu) == 0 {
		return errors.New("synch: need at least one process")
	}
	for i, m := range mu {
		if m <= 0 || math.IsNaN(m) || math.IsInf(m, 0) {
			return fmt.Errorf("synch: μ_%d = %v must be positive and finite", i+1, m)
		}
	}
	return nil
}

// MeanMax returns E[Z] = E[max_i y_i] for independent y_i ~ Exp(μ_i) by
// inclusion–exclusion over nonempty subsets:
//
//	E[Z] = Σ_{∅≠S} (−1)^{|S|+1} / Σ_{i∈S} μ_i.
//
// Exact up to floating point; cost 2^n, fine for the process counts the
// paper considers. For n > 30 use MeanMaxIntegral.
func MeanMax(mu []float64) (float64, error) {
	if err := validateRates(mu); err != nil {
		return 0, err
	}
	n := len(mu)
	if n > 30 {
		return 0, errors.New("synch: MeanMax limited to n ≤ 30; use MeanMaxIntegral")
	}
	total := 0.0
	for s := 1; s < 1<<n; s++ {
		rate := 0.0
		bits := 0
		for i := 0; i < n; i++ {
			if s&(1<<i) != 0 {
				rate += mu[i]
				bits++
			}
		}
		if bits%2 == 1 {
			total += 1 / rate
		} else {
			total -= 1 / rate
		}
	}
	return total, nil
}

// MeanMaxEqual returns E[Z] for n iid Exp(μ): the harmonic number H_n / μ.
func MeanMaxEqual(n int, mu float64) (float64, error) {
	// NaN defeats the ≤ comparison, so reject it explicitly: a NaN rate must
	// surface as a typed error, not as H_n/NaN.
	if n < 1 || mu <= 0 || math.IsNaN(mu) || math.IsInf(mu, 0) {
		return 0, guard.Numericalf("synch: need n ≥ 1 and finite μ > 0 (got n = %d, μ = %v)", n, mu)
	}
	h := 0.0
	for k := 1; k <= n; k++ {
		h += 1 / float64(k)
	}
	return h / mu, nil
}

// MeanMaxIntegral evaluates E[Z] = ∫₀^∞ (1 − G(t)) dt numerically — the form
// in which the paper states the result.
func MeanMaxIntegral(mu []float64) (float64, error) {
	if err := validateRates(mu); err != nil {
		return 0, err
	}
	slowest := mu[0]
	for _, m := range mu {
		if m < slowest {
			slowest = m
		}
	}
	panel := 2 / slowest
	return stats.IntegrateToInf(func(t float64) float64 {
		return 1 - dist.MaxExpCDF(mu, t)
	}, 0, panel, 1e-10)
}

// MeanLoss returns the paper's mean computation-power loss
// E[CL] = n·E[Z] − Σ 1/μ_i for one synchronization of n processes.
func MeanLoss(mu []float64) (float64, error) {
	ez, err := MeanMax(mu)
	if err != nil {
		return 0, err
	}
	return meanLossFrom(mu, ez), nil
}

// meanLossFrom returns E[CL] = n·E[Z] − Σ 1/μ_i given E[Z].
func meanLossFrom(mu []float64, ez float64) float64 {
	loss := float64(len(mu)) * ez
	for _, m := range mu {
		loss -= 1 / m
	}
	return loss
}

// MeanLossIntegral is MeanLoss computed via the integral form of E[Z].
func MeanLossIntegral(mu []float64) (float64, error) {
	ez, err := MeanMaxIntegral(mu)
	if err != nil {
		return 0, err
	}
	loss := float64(len(mu)) * ez
	for _, m := range mu {
		loss -= 1 / m
	}
	return loss, nil
}

// SimulateLossWorkers estimates E[CL] and E[Z] by Monte Carlo with reps
// independent synchronizations, returning (loss, z) accumulators with means
// and 95% CIs. It runs on the internal/mc worker pool: workers > 0 means
// exactly that many goroutines, anything else means runtime.NumCPU().
// Replications are sharded into fixed blocks seeded by
// dist.Substream(seed, block) and merged in block order, so for a fixed
// seed the result is bit-identical for every worker count.
func SimulateLossWorkers(mu []float64, reps int, seed int64, workers int) (loss, z stats.Welford, err error) {
	if err := validateRates(mu); err != nil {
		return loss, z, err
	}
	if reps < 1 {
		return loss, z, errors.New("synch: reps must be ≥ 1")
	}
	type block struct{ loss, z stats.Welford }
	blocks := mc.Run(reps, mc.DefaultBlockSize, workers, func(b mc.Block) block {
		s := dist.Substream(seed, b.Index)
		ys := make([]float64, len(mu))
		var blk block
		for r := 0; r < b.N(); r++ {
			zz := 0.0
			sum := 0.0
			for i, m := range mu {
				ys[i] = s.Exp(m)
				sum += ys[i]
				if ys[i] > zz {
					zz = ys[i]
				}
			}
			blk.z.Add(zz)
			blk.loss.Add(float64(len(mu))*zz - sum)
		}
		return blk
	})
	for _, blk := range blocks {
		loss.Merge(blk.loss)
		z.Merge(blk.z)
	}
	return loss, z, nil
}
