package strategy

import (
	"context"
	"fmt"
	"math"

	"recoveryblocks/internal/dist"
	"recoveryblocks/internal/mc"
	"recoveryblocks/internal/stats"
	"recoveryblocks/internal/synch"
)

// everyKStrategy generalizes Section 3: only every k-th recovery block
// carries the conversation (test-line) machinery. A synchronization request
// still fires τ after the previous recovery line — the elapsed-since-line
// discipline the harness validates — but on a request each process must run
// through its next k recovery blocks before it can commit, so its working
// phase is Y_i ~ Erlang(k, μ_i) instead of the Exp(μ_i) residual, the
// commitment wait is Z_k = max_i Y_i, and the computation loss is
// CL_k = Σ_i (Z_k − Y_i) = n·E[Z_k] − k·Σ 1/μ_i. k = 1 degenerates to the
// paper's synchronized organization exactly (Erlang(1) = Exp).
//
// The trade-off it prices: larger k amortizes the conversation machinery
// over more blocks (fewer synchronization points per unit of committed work)
// at the price of a longer, more dispersed commit phase — E[Z_k] grows
// superlinearly in the straggler regime — and a longer cycle exposed to
// deadline risk, P(τ + Z_k > d).
//
// Everything lives in this one file — analytic model (numeric integration of
// the Erlang-max survival function), deterministic sharded simulator on
// internal/mc, advisor pricing, xval family — which is the registry's
// extension proof: no other layer changed to admit the fourth discipline.
type everyKStrategy struct{}

func (everyKStrategy) Name() Name { return SyncEveryK }

func (everyKStrategy) Describe() string {
	return "every-k-th-block synchronization (Section 3 generalized): conversations only at every k-th recovery block, Erlang(k) commit phases; k=1 is the paper's synchronized case"
}

func (everyKStrategy) Validate(w Workload) error {
	if err := validateRates(w.Mu); err != nil {
		return err
	}
	if w.EveryK < 0 || w.EveryK > MaxEveryK {
		return fmt.Errorf("strategy: sync_every_k = %d must be in [1, %d] (0 selects the default %d)",
			w.EveryK, MaxEveryK, DefaultEveryK)
	}
	return nil
}

// erlangCDF returns P(Erlang(k, rate) ≤ t) = 1 − e^{−rt}·Σ_{j<k}(rt)^j/j!.
// The Poisson terms are accumulated by recurrence from e^{−rt}; once rt is
// large enough for e^{−rt} to underflow, every retained term is below
// ~1e−250 for the k values MaxEveryK admits, so the returned 1 is exact to
// double precision (that underflow bound is why MaxEveryK stays at 512).
func erlangCDF(k int, rate, t float64) float64 {
	if t <= 0 {
		return 0
	}
	x := rate * t
	term := math.Exp(-x)
	sum := term
	for j := 1; j < k; j++ {
		term *= x / float64(j)
		sum += term
	}
	if sum > 1 {
		sum = 1
	}
	return 1 - sum
}

// maxErlangCDF returns P(max_i Erlang(k, μ_i) ≤ t) for independent phases.
func maxErlangCDF(k int, mu []float64, t float64) float64 {
	p := 1.0
	for _, m := range mu {
		p *= erlangCDF(k, m, t)
	}
	return p
}

// meanMaxErlang returns E[Z_k] = E[max_i Erlang(k, μ_i)] by integrating the
// survival function, ∫₀^∞ (1 − Π_i F_{Erlang(k,μ_i)}(t)) dt — the same route
// as synch.MeanMaxIntegral, with the Erlang CDFs in place of the
// exponentials. stats.IntegrateToInf runs the adaptive G7/K15
// Gauss–Kronrod rule on each panel to an estimated error |K15 − G7| within
// 1e-11 and stops once a panel contributes below 1e-10. The unmarched tail
// dominates the total error: within 2e-11 of the inclusion–exclusion closed
// form (1e-11 from k = 2), far below every statistical tolerance it is
// compared under.
func meanMaxErlang(k int, mu []float64) (float64, error) {
	slowest := mu[0]
	for _, m := range mu {
		if m < slowest {
			slowest = m
		}
	}
	// The slowest phase has mean k/slowest and standard deviation √k/slowest;
	// two means per panel keeps the adaptive integrator efficient for any k.
	panel := 2 * float64(k) / slowest
	return stats.IntegrateToInf(func(t float64) float64 {
		return 1 - maxErlangCDF(k, mu, t)
	}, 0, panel, 1e-10)
}

// meanLossEveryK returns E[CL_k] = n·E[Z_k] − k·Σ 1/μ_i, the per-cycle
// computation loss (each Y_i has mean k/μ_i).
func meanLossEveryK(k int, mu []float64, ezk float64) float64 {
	loss := float64(len(mu)) * ezk
	for _, m := range mu {
		loss -= float64(k) / m
	}
	return loss
}

// Price: the Section 3 pricing generalized. Per cycle of length τ + E[Z_k]:
// τ·Σμ asynchronous saves plus n·k commit-phase blocks (each block is a
// recovery point; the k-th is the test line), the commitment waits E[CL_k],
// and the same mid-cycle rollback approximation as the sync strategy — an
// error discards the uncommitted asynchronous work since the last line,
// τ/2 per process on average. At k = 1 the discipline is the sync strategy,
// so it returns that strategy's metrics relabelled: E[Z_1] then comes from
// the closed form synch.MeanMax rather than the numerical integral, and the
// advisor never ranks the two by integration error. For k > 1, E[Z_k] comes
// from the context's Memo when it holds it.
func (s everyKStrategy) Price(w Workload) (Metrics, error) {
	if err := s.Validate(w); err != nil {
		return Metrics{}, err
	}
	k := w.ResolveEveryK()
	if k == 1 {
		m, err := syncStrategy{}.Price(w)
		if err != nil {
			return Metrics{}, err
		}
		m.Strategy, m.EveryK = SyncEveryK, 1
		return m, nil
	}
	ezk, err := memoized(w.Context(), func() string { return everyKKey(k, w.Mu) },
		func(context.Context) (float64, error) { return meanMaxErlang(k, w.Mu) })
	if err != nil {
		return Metrics{}, err
	}
	clk := meanLossEveryK(k, w.Mu, ezk)
	// Resolve τ with the discipline's own cost curve: the k = 1 optimum
	// (synch.OptimalInterval) would be presented as optimal while minimizing
	// the wrong objective for k > 1.
	tau := w.SyncInterval
	if w.OptimalSync {
		if tau, err = optimalIntervalEveryK(w, ezk, clk); err != nil {
			return Metrics{}, err
		}
	}
	if tau <= 0 || math.IsNaN(tau) || math.IsInf(tau, 0) {
		return Metrics{}, fmt.Errorf("strategy: sync interval %v must be positive and finite", tau)
	}
	n := float64(w.N())
	cycle := tau + ezk
	m := Metrics{
		Strategy:         SyncEveryK,
		CheckpointRate:   w.CheckpointCost * (tau*w.SumMu() + n*float64(k)) / (n * cycle),
		SyncLossRate:     clk / (n * cycle),
		RollbackRate:     w.ErrorRate * tau / 2,
		MeanRollback:     tau / 2,
		DeadlineMissProb: -1,
		SyncInterval:     tau,
		EveryK:           k,
	}
	if w.Deadline > 0 {
		if w.Deadline <= tau {
			m.DeadlineMissProb = 1
		} else {
			m.DeadlineMissProb = 1 - maxErlangCDF(k, w.Mu, w.Deadline-tau)
		}
	}
	m.OverheadRate = m.CheckpointRate + m.SyncLossRate + m.RollbackRate
	return m, nil
}

// optimalIntervalEveryK resolves OptimalSync for the every-k discipline: the
// request interval minimizing the renewal-reward overhead with the
// k-generalized loss,
//
//	overhead_k(τ) = [E[CL_k] + θ·(τ+E[Z_k])·n·τ/2] / [n·(τ + E[Z_k])],
//
// the direct analogue of synch.OverheadRate (which is its k = 1 case, so the
// resolved τ degenerates to synch.OptimalInterval's). Because E[Z_k] does
// not depend on τ, the minimizer is closed-form: with A = E[CL_k] and
// B = θ·n/2, d/dτ vanishes at (τ+E[Z_k])² = A/B, i.e.
// τ* = √(2·E[CL_k]/(θ·n)) − E[Z_k], clamped to the positive domain (below
// the clamp the overhead is monotone increasing in τ, so the infimum sits at
// τ → 0⁺).
func optimalIntervalEveryK(w Workload, ezk, clk float64) (float64, error) {
	if w.ErrorRate <= 0 {
		return 0, fmt.Errorf("strategy: sync-every-k needs a positive error rate to resolve the optimal interval (otherwise never synchronize)")
	}
	tau := math.Sqrt(2*clk/(w.ErrorRate*float64(w.N()))) - ezk
	if floor := 1e-9 * (ezk + 1); tau < floor {
		tau = floor
	}
	return tau, nil
}

// Model: the closed-form references for the simulator's observables at the
// resolved τ and k — E[Z_k], E[CL_k], the cycle length τ + E[Z_k], and the
// Poisson(τ·Σμ) mean of states saved in the asynchronous phase.
func (s everyKStrategy) Model(w Workload) (References, error) {
	if err := s.Validate(w); err != nil {
		return nil, err
	}
	k := w.ResolveEveryK()
	tau := w.SyncInterval
	if tau <= 0 || math.IsNaN(tau) || math.IsInf(tau, 0) {
		return nil, fmt.Errorf("strategy: sync interval %v must be positive and finite", tau)
	}
	ezk, err := meanMaxErlang(k, w.Mu)
	if err != nil {
		return nil, err
	}
	return References{
		"everyk.meanZ":  ezk,
		"everyk.meanCL": meanLossEveryK(k, w.Mu, ezk),
		"everyk.cycle":  tau + ezk,
		"everyk.saved":  tau * w.SumMu(),
	}, nil
}

// everyKResult accumulates the simulator's per-cycle observables.
type everyKResult struct {
	Z, Loss, Cycle, Saved stats.Welford
}

// merge folds another block's accumulators in, in block order.
func (r *everyKResult) merge(o everyKResult) {
	r.Z.Merge(o.Z)
	r.Loss.Merge(o.Loss)
	r.Cycle.Merge(o.Cycle)
	r.Saved.Merge(o.Saved)
}

// simulateEveryK plays cycles of the every-k protocol on the internal/mc
// pool: per cycle, the request fires τ after the line, the asynchronous
// phase saves Poisson(τ·Σμ) states, each process's commit phase is one
// Erlang(k, μ_i) draw, and the line forms at the slowest commit. Cycles are
// iid (the elapsed-since-line discipline renews at every line), so sharding
// into substream-seeded blocks is exact: results are bit-identical for every
// worker count.
func simulateEveryK(mu []float64, tau float64, k, cycles int, seed int64, workers int) everyKResult {
	sumMu := 0.0
	for _, m := range mu {
		sumMu += m
	}
	n := float64(len(mu))
	blocks := mc.Run(cycles, mc.DefaultBlockSize, workers, func(b mc.Block) everyKResult {
		rng := dist.Substream(seed, b.Index)
		var blk everyKResult
		for c := 0; c < b.N(); c++ {
			blk.Saved.Add(float64(rng.Poisson(sumMu * tau)))
			z, sum := 0.0, 0.0
			for _, m := range mu {
				y := rng.Erlang(k, m)
				sum += y
				if y > z {
					z = y
				}
			}
			blk.Z.Add(z)
			blk.Loss.Add(n*z - sum)
			blk.Cycle.Add(tau + z)
		}
		return blk
	})
	var res everyKResult
	for _, blk := range blocks {
		res.merge(blk)
	}
	return res
}

// Simulate estimates every Model observable with one sharded run.
func (s everyKStrategy) Simulate(w Workload) ([]Measurement, error) {
	if err := s.Validate(w); err != nil {
		return nil, err
	}
	if w.Reps < 1 {
		return nil, fmt.Errorf("strategy: sync-every-k needs Reps ≥ 1, got %d", w.Reps)
	}
	res := simulateEveryK(w.Mu, w.SyncInterval, w.ResolveEveryK(), w.Reps,
		w.Seed+seedOffScenarioEveryK, w.Workers)
	return []Measurement{
		{Name: "everyk.meanZ", Kind: KindZ, W: res.Z},
		{Name: "everyk.meanCL", Kind: KindZ, W: res.Loss},
		{Name: "everyk.cycle", Kind: KindZ, W: res.Cycle},
		{Name: "everyk.saved", Kind: KindZ, W: res.Saved},
	}, nil
}

// XValChecks is the discipline's cross-validation family: the four
// simulator observables against their integral/closed-form references, and —
// at k = 1, where the Erlang model degenerates to the paper's synchronized
// case — an exact-vs-exact check of the integral route against the Section 3
// inclusion–exclusion closed forms. Cells that do not opt into the
// discipline (EveryK == 0) record nothing, which keeps the legacy grids and
// their goldens untouched.
func (s everyKStrategy) XValChecks(w Workload, rec *Recorder) error {
	if w.EveryK == 0 {
		return nil
	}
	refs, err := s.Model(w)
	if err != nil {
		return err
	}
	res := simulateEveryK(w.Mu, w.SyncInterval, w.EveryK, w.Reps,
		w.Seed+seedOffXValEveryK, w.Workers)
	rec.Add("everyk.meanZ", KindZ, refs["everyk.meanZ"], res.Z)
	rec.Add("everyk.meanCL", KindZ, refs["everyk.meanCL"], res.Loss)
	rec.Add("everyk.cycle", KindZ, refs["everyk.cycle"], res.Cycle)
	rec.Add("everyk.saved", KindZ, refs["everyk.saved"], res.Saved)
	if w.EveryK == 1 {
		ez, err := synch.MeanMax(w.Mu)
		if err != nil {
			return err
		}
		cl, err := synch.MeanLoss(w.Mu)
		if err != nil {
			return err
		}
		rec.AddNumeric("everyk.meanZ.k1", ez, refs["everyk.meanZ"])
		rec.AddNumeric("everyk.meanCL.k1", cl, refs["everyk.meanCL"])
	}
	return nil
}
