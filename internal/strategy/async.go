package strategy

import (
	"context"
	"fmt"

	"recoveryblocks/internal/rbmodel"
	"recoveryblocks/internal/sim"
	"recoveryblocks/internal/stats"
)

// Seed offsets separating the estimators of one workload; each estimator
// must draw from its own substream family or two checks would share
// randomness and their errors would correlate. The values are the historical
// ones from the pre-registry scenario engine and xval harness — changing any
// of them would shift RNG streams and invalidate every fixed-seed golden.
const (
	// scenario-engine path (Simulate):
	seedOffScenarioAsync  = 17
	seedOffScenarioSync   = 104729
	seedOffScenarioPRP    = 350377
	seedOffScenarioEveryK = 611953

	// xval path (XValChecks): the async family runs on the cell seed itself.
	seedOffXValAsync2  = 7919
	seedOffXValSynch   = 104729
	seedOffXValSyncSim = 224737
	seedOffXValPRP     = 350377
	seedOffXValEveryK  = 611953
)

// asyncStrategy is Section 2: asynchronous recovery blocks. Processes
// establish recovery points independently; an error rolls every process back
// to the latest recovery line, whose spacing X is the absorption time of the
// 2^n+1-state chain (rbmodel.AsyncModel).
type asyncStrategy struct{}

func (asyncStrategy) Name() Name { return Async }

func (asyncStrategy) Describe() string {
	return "asynchronous recovery blocks (Section 2): uncoordinated checkpoints, rollback propagation and the domino effect; recovery-line spacing from the exact 2^n+1-state chain"
}

func (asyncStrategy) Validate(w Workload) error { return validateRates(w.Mu) }

// Price: saves cost t_r·Σμ/n; an error rolls every process back to the
// latest recovery line, whose stationary age is E[X²]/(2·E[X]) (renewal
// inspection on the exact chain's moments). Deadline risk is P(X > d). The
// chain's answers come from the context's Memo when it holds them.
func (asyncStrategy) Price(w Workload) (Metrics, error) {
	a, err := memoized(w.Context(), func() string { return asyncKey(w) },
		func(ctx context.Context) (asyncAnswer, error) { return solveAsync(ctx, w) })
	if err != nil {
		return Metrics{}, err
	}
	age := a.M2 / (2 * a.M1) // stationary age of the recovery-line renewal process
	n := float64(w.N())
	m := Metrics{
		Strategy:         Async,
		CheckpointRate:   w.CheckpointCost * w.SumMu() / n,
		RollbackRate:     w.ErrorRate * age,
		MeanRollback:     age,
		DeadlineMissProb: -1,
	}
	if w.Deadline > 0 {
		m.DeadlineMissProb = a.Miss
	}
	m.OverheadRate = m.CheckpointRate + m.SyncLossRate + m.RollbackRate
	return m, nil
}

// solveAsync builds the workload's chain and solves its moments and, when
// the workload sets a deadline, P(X > d).
func solveAsync(ctx context.Context, w Workload) (asyncAnswer, error) {
	model, err := rbmodel.NewAsync(w.Params())
	if err != nil {
		return asyncAnswer{}, err
	}
	var a asyncAnswer
	if a.M1, a.M2, err = model.MomentsXCtx(ctx); err != nil {
		return asyncAnswer{}, err
	}
	if w.Deadline > 0 {
		if a.Miss, err = model.DeadlineMissProbCtx(ctx, w.Deadline); err != nil {
			return asyncAnswer{}, err
		}
	}
	return a, nil
}

// Model: the exact chain's E[X], plus P(X > d) when the workload sets a
// deadline.
func (asyncStrategy) Model(w Workload) (References, error) {
	model, err := rbmodel.NewAsync(w.Params())
	if err != nil {
		return nil, err
	}
	exactX, err := model.MeanXCtx(w.Context())
	if err != nil {
		return nil, err
	}
	refs := References{"async.meanX": exactX}
	if w.Deadline > 0 {
		miss, err := model.DeadlineMissProbCtx(w.Context(), w.Deadline)
		if err != nil {
			return nil, err
		}
		refs["async.deadlineMiss"] = miss
	}
	return refs, nil
}

// Simulate: SimulateAsync's E[X] estimate and — when the workload sets a
// deadline — the simulated deadline-miss indicator.
func (asyncStrategy) Simulate(w Workload) ([]Measurement, error) {
	sr, err := sim.SimulateAsync(w.Params(), sim.AsyncOptions{
		Intervals:   w.Reps,
		Seed:        w.Seed + seedOffScenarioAsync,
		KeepSamples: w.Deadline > 0,
		Workers:     w.Workers,
	})
	if err != nil {
		return nil, err
	}
	ms := []Measurement{{Name: "async.meanX", Kind: KindZ, W: sr.X}}
	if w.Deadline > 0 {
		var ind stats.Welford
		for _, x := range sr.Samples {
			if x > w.Deadline {
				ind.Add(1)
			} else {
				ind.Add(0)
			}
		}
		ms = append(ms, Measurement{Name: "async.deadlineMiss", Kind: KindBinomZ, W: ind})
	}
	return ms, nil
}

// XValChecks cross-validates the Section 2 models against SimulateAsync: the
// full chain's E[X] and E[L_i], the split chain's E[L_i] (both against the
// simulator and against the Wald identity), the lumped symmetric chain
// (uniform rates only), the deadline-miss probability, and a two-sample
// self-consistency check between disjoint simulator seeds. Cells without
// interacting processes are outside the family's applicability and record
// nothing.
func (asyncStrategy) XValChecks(w Workload, rec *Recorder) error {
	if w.N() < 2 || !w.HasInteractions() {
		return nil
	}
	p := w.Params()
	model, err := rbmodel.NewAsync(p)
	if err != nil {
		return err
	}
	exactX, err := model.MeanXCtx(w.Context())
	if err != nil {
		return err
	}
	// The Wald identity E[L_i] = μ_i·E[X] prices every process from the one
	// moment solve already paid above; calling MeanLWald would repeat the
	// solve, which at the largest sizes costs seconds to minutes.
	wald := make([]float64, len(p.Mu))
	for i, mu := range p.Mu {
		wald[i] = mu * exactX
	}

	sr, err := sim.SimulateAsync(p, sim.AsyncOptions{
		Intervals:   w.Reps,
		Seed:        w.Seed,
		KeepSamples: w.Deadline > 0,
		Workers:     w.Workers,
	})
	if err != nil {
		return err
	}
	rec.Add("async.meanX", KindZ, exactX, sr.X)
	for i := range p.Mu {
		rec.Add(fmt.Sprintf("async.meanL[%d]", i), KindZ, wald[i], sr.L[i])
	}

	// The split chain enumerates ~3·2^(n−1) states and has no matrix-free
	// counterpart; past its bound the Wald identity (already checked against
	// the simulator above) is the per-process oracle.
	if w.N() <= rbmodel.MaxSplitProcesses {
		for i := range p.Mu {
			split, err := rbmodel.NewSplitChain(p, i)
			if err != nil {
				return err
			}
			l, err := split.MeanL()
			if err != nil {
				return err
			}
			rec.Add(fmt.Sprintf("split.meanL[%d].sim", i), KindZ, l, sr.L[i])
			rec.AddNumeric(fmt.Sprintf("split.meanL[%d].wald", i), wald[i], l)
		}
	}

	if lambda, uniform := w.UniformLambda(); uniform && w.UniformRates() {
		sym, err := rbmodel.NewSymmetric(w.N(), w.Mu[0], lambda)
		if err != nil {
			return err
		}
		symX, err := sym.MeanXCtx(w.Context())
		if err != nil {
			return err
		}
		rec.AddNumeric("symmetric.meanX", exactX, symX)
	}

	if w.Deadline > 0 {
		miss, err := model.DeadlineMissProbCtx(w.Context(), w.Deadline)
		if err != nil {
			return err
		}
		var ind stats.Welford
		for _, x := range sr.Samples {
			if x > w.Deadline {
				ind.Add(1)
			} else {
				ind.Add(0)
			}
		}
		rec.Add("deadline.missProb", KindZ, miss, ind)
	}

	// Self-consistency: the same estimator on a disjoint substream family
	// must agree with itself — a two-sample test, catching variance
	// misreporting that the one-sample checks (which trust the SE) cannot.
	sr2, err := sim.SimulateAsync(p, sim.AsyncOptions{
		Intervals: w.Reps,
		Seed:      w.Seed + seedOffXValAsync2,
		Workers:   w.Workers,
	})
	if err != nil {
		return err
	}
	rec.AddTwoSample("async.selfX", sr2.X, sr.X)
	return nil
}
