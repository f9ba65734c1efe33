// Package strategy is the recovery-discipline registry: the single place
// where a recovery organization — asynchronous recovery blocks, synchronized
// recovery blocks, pseudo recovery points, and any future discipline — plugs
// its analytic cost model, its deterministic sharded simulator, and its
// cross-validation family into the rest of the repository.
//
// Before this package, each discipline was a hand-rolled vertical slice
// duplicated through the advisor (internal/scenario), the cross-validation
// harness (internal/xval), the experiment drivers (internal/expt) and the
// facade: adding a discipline meant touching six layers. Now every layer
// dispatches through the registry:
//
//   - Price is the advisor's exact cost model — the overhead decomposition
//     (checkpointing, synchronization, rollback) plus the deadline-miss
//     metric, computed from chain solves and closed forms alone;
//   - Model returns the exact per-observable references and Simulate returns
//     deterministic sharded Monte Carlo estimates of the same observables
//     (via internal/mc, so results are bit-identical for every worker
//     count); CrossCheck pairs them — the one generic equivalence path the
//     scenario engine judges with its family-wise error rate;
//   - XValChecks is the discipline's full cross-validation family — the
//     richer harness internal/xval sweeps over its scenario grids (split
//     chains, self-consistency two-sample tests, exact-vs-exact routes).
//
// A new discipline is a one-file drop-in: implement Strategy, add one
// Register call, and the advisor ranks it, the scenario engine cross-checks
// it, `rbrepro strategies` lists it, and the registry-completeness test
// demands it ship with xval coverage and a scenario-family hook. The
// sync-every-k strategy in this package is the proof.
package strategy

import (
	"context"
	"errors"
	"fmt"
	"math"

	"recoveryblocks/internal/obs"
	"recoveryblocks/internal/rbmodel"
	"recoveryblocks/internal/synch"
)

// Name identifies a registered recovery discipline ("async", "sync", "prp",
// "sync-every-k"). It is the spelling used by scenario specs, report JSON and
// the -strategy CLI flag.
type Name string

// The built-in discipline names, in canonical registration order.
const (
	// Async is asynchronous recovery blocks (Section 2): no coordination,
	// rollback propagation and the domino effect.
	Async Name = "async"
	// Sync is synchronized recovery blocks (Section 3): commitment waits at
	// test lines in exchange for guaranteed recovery lines.
	Sync Name = "sync"
	// PRP is pseudo recovery points (Section 4): implanted states bound the
	// rollback distance without forced waits.
	PRP Name = "prp"
	// SyncEveryK is the every-k-th-block generalization of Section 3:
	// only every k-th recovery block carries the conversation machinery, so
	// a synchronization request is committed after an Erlang(k, μ_i) working
	// phase per process; k = 1 degenerates to the paper's synchronized case.
	SyncEveryK Name = "sync-every-k"
)

// DefaultEveryK is the block period substituted when a workload requests the
// sync-every-k strategy without choosing k.
const DefaultEveryK = 2

// MaxEveryK bounds the sync-every-k block period. Large k only stretches the
// Erlang commit phase without changing the structure, and the bound keeps
// two things safe: a hostile spec cannot demand unbounded numeric
// integration spans, and the Erlang CDF recurrence (which anchors on
// e^{−μt}) stays exact to double precision — past k ≈ 550 the underflow
// point of the anchor would start truncating non-negligible Poisson mass.
const MaxEveryK = 512

// Workload is the strategy-independent description of one evaluation cell:
// the paper's process model plus the economic knobs every discipline prices
// against. The scenario engine resolves a spec-file scenario into one; the
// cross-validation harness derives one from each grid cell.
type Workload struct {
	// Name labels the workload in reports and error messages.
	Name string
	// Mu holds the per-process recovery-point rates μ_i (length n ≥ 1).
	Mu []float64
	// Lambda is the full symmetric interaction-rate matrix λ_ij with a zero
	// diagonal. All-zero means no interactions.
	Lambda [][]float64
	// SyncInterval is the synchronization request interval τ. Price resolves
	// OptimalSync itself; Model, Simulate and XValChecks expect the caller to
	// have resolved it (they read SyncInterval as the concrete τ).
	SyncInterval float64
	// OptimalSync selects the synch.OptimalInterval request interval; when
	// false, SyncInterval is the interval τ.
	OptimalSync bool
	// EveryK is the sync-every-k block period; 0 means DefaultEveryK.
	EveryK int
	// CheckpointCost is t_r, the time to record one process state.
	CheckpointCost float64
	// Deadline enables the deadline-miss metrics and checks when positive.
	Deadline float64
	// ErrorRate is θ, the system-wide Poisson error rate weighting the
	// expected rollback loss.
	ErrorRate float64
	// PLocal is the probability an error is local to the failing process
	// (vs propagated), for the PRP metrics.
	PLocal float64
	// Reps is the per-estimator replication budget.
	Reps int
	// Seed pins every estimator's RNG; distinct estimators derive distinct
	// substream bases from it.
	Seed int64
	// Workers sets the Monte Carlo worker-pool size inside each estimator
	// (0 = all CPUs). Results are bit-identical for every value.
	Workers int
	// Ctx, when non-nil, carries cancellation (CLI -timeout, Ctrl-C), an
	// injected guard.FaultSpec and a guard.Recorder through every chain solve
	// this workload triggers. It may also carry a Memo (WithMemo) of chain
	// answers shared with other workloads of the same rates, which changes
	// only whether a number is recomputed. Nil means context.Background():
	// the value does not influence any number, only whether and via which
	// fallback route it is computed, so it is deliberately excluded from
	// workload identity.
	Ctx context.Context
}

// Context returns the workload's evaluation context, defaulting to
// context.Background() so the zero Workload keeps working everywhere.
func (w Workload) Context() context.Context {
	if w.Ctx != nil {
		return w.Ctx
	}
	return context.Background()
}

// Params assembles the rbmodel parameterization of the workload.
func (w Workload) Params() rbmodel.Params {
	p := rbmodel.Params{Mu: append([]float64(nil), w.Mu...), Lambda: make([][]float64, len(w.Lambda))}
	for i := range w.Lambda {
		p.Lambda[i] = append([]float64(nil), w.Lambda[i]...)
	}
	return p
}

// N returns the process count.
func (w Workload) N() int { return len(w.Mu) }

// SumMu returns Σμ_i.
func (w Workload) SumMu() float64 {
	s := 0.0
	for _, m := range w.Mu {
		s += m
	}
	return s
}

// HasInteractions reports whether any interaction rate is positive — the
// applicability condition of the Section 2 and Section 4 families.
func (w Workload) HasInteractions() bool {
	for i := range w.Lambda {
		for j, v := range w.Lambda[i] {
			if i != j && v > 0 {
				return true
			}
		}
	}
	return false
}

// UniformRates reports whether every process rate equals the first.
func (w Workload) UniformRates() bool {
	for _, m := range w.Mu[1:] {
		if m != w.Mu[0] {
			return false
		}
	}
	return true
}

// UniformLambda returns the common off-diagonal interaction rate and whether
// the matrix is uniform (every off-diagonal entry equal) — the precondition
// of the lumped symmetric model.
func (w Workload) UniformLambda() (float64, bool) {
	if w.N() < 2 {
		return 0, false
	}
	l := w.Lambda[0][1]
	for i := range w.Lambda {
		for j, v := range w.Lambda[i] {
			if i != j && v != l {
				return 0, false
			}
		}
	}
	return l, true
}

// ResolveSyncInterval returns the synchronization request interval the
// evaluation uses: the workload's τ, or — under OptimalSync — the
// overhead-minimizing interval for the workload's error rate.
func (w Workload) ResolveSyncInterval() (float64, error) {
	if !w.OptimalSync {
		return w.SyncInterval, nil
	}
	tau, _, err := synch.OptimalInterval(w.Mu, w.ErrorRate)
	return tau, err
}

// ResolveEveryK returns the sync-every-k block period with the default
// applied.
func (w Workload) ResolveEveryK() int {
	if w.EveryK == 0 {
		return DefaultEveryK
	}
	return w.EveryK
}

// Metrics prices one discipline for one workload. All rates are fractions of
// one process's computing power per unit time; OverheadRate is their total
// and the advisor's ranking key.
type Metrics struct {
	Strategy Name `json:"strategy"`
	// OverheadRate = CheckpointRate + SyncLossRate + RollbackRate.
	OverheadRate float64 `json:"overhead_rate"`
	// CheckpointRate is the state-save cost during normal operation.
	CheckpointRate float64 `json:"checkpoint_rate"`
	// SyncLossRate is the commitment-wait cost (zero except for the
	// synchronized disciplines).
	SyncLossRate float64 `json:"sync_loss_rate"`
	// RollbackRate is θ × the expected per-process work lost per error.
	RollbackRate float64 `json:"rollback_rate"`
	// MeanRollback is the expected rollback distance when an error strikes.
	MeanRollback float64 `json:"mean_rollback"`
	// DeadlineMissProb is the strategy's deadline-risk metric; -1 when the
	// workload sets no deadline.
	DeadlineMissProb float64 `json:"deadline_miss_prob"`
	// SyncInterval is the resolved request interval τ (synchronized
	// disciplines only, else 0).
	SyncInterval float64 `json:"sync_interval,omitempty"`
	// EveryK is the resolved block period (sync-every-k only, else 0).
	EveryK int `json:"every_k,omitempty"`
}

// References maps observable names ("sync.meanCL", "async.meanX", …) to the
// exact model values the corresponding Simulate estimates are judged against.
type References map[string]float64

// Strategy is one recovery discipline: everything the advisor, the scenario
// engine, the cross-validation harness, the experiment drivers and the CLI
// need, behind one interface. Implementations must be stateless values —
// every method derives all randomness from the workload's seed, so results
// are reproducible and bit-identical across worker counts.
type Strategy interface {
	// Name returns the registry key (also the spec-file spelling).
	Name() Name
	// Describe returns the one-line catalog description.
	Describe() string
	// Validate rejects workloads this discipline cannot evaluate, beyond the
	// strategy-independent checks the caller already ran.
	Validate(w Workload) error
	// Price returns the exact-model cost metrics — the advisor's numbers.
	// It resolves OptimalSync itself and performs no simulation.
	Price(w Workload) (Metrics, error)
	// Model returns the exact references for every observable Simulate
	// estimates. SyncInterval must be resolved by the caller.
	Model(w Workload) (References, error)
	// Simulate runs the discipline's discrete-event simulator on the
	// internal/mc pool and returns the estimates, in report order.
	// SyncInterval must be resolved by the caller.
	Simulate(w Workload) ([]Measurement, error)
	// XValChecks appends the discipline's full cross-validation family for
	// one grid cell to rec — a superset of the Model/Simulate pairing, with
	// strategy-specific extras (split chains, self-consistency, exact
	// routes). A cell outside the discipline's applicability records
	// nothing and returns nil.
	XValChecks(w Workload, rec *Recorder) error
}

// CrossCheck is the generic equivalence path: it pairs every Simulate
// estimate with its Model reference and records one measurement per pair.
// The scenario engine judges the recorded measurements at its family-wise
// error rate; any harness gets the same discipline-agnostic contract.
func CrossCheck(st Strategy, w Workload, rec *Recorder) error {
	if reg := obs.Current(); reg != nil {
		reg.Counter("strategy_crosschecks_total").Inc()
		reg.Counter("strategy_crosschecks_total_" + string(st.Name())).Inc()
	}
	refs, err := st.Model(w)
	if err != nil {
		return err
	}
	ests, err := st.Simulate(w)
	if err != nil {
		return err
	}
	for _, e := range ests {
		ref, ok := refs[e.Name]
		if !ok {
			return fmt.Errorf("strategy %s: simulator observable %q has no model reference", st.Name(), e.Name)
		}
		switch e.Kind {
		case KindZ, KindBinomZ, KindBatchT:
		default:
			// Simulate estimates are one-sample by contract; the richer kinds
			// (two-sample, exact-vs-exact) belong to XValChecks, where the
			// harness knows how to judge them.
			return fmt.Errorf("strategy %s: observable %q has kind %q; Simulate must return one-sample kinds", st.Name(), e.Name, e.Kind)
		}
		e.Ref = ref
		rec.Record(e)
	}
	return nil
}

// validateRates rejects empty or non-positive rate vectors — the shared
// precondition of every discipline.
func validateRates(mu []float64) error {
	if len(mu) == 0 {
		return errors.New("strategy: need at least one process")
	}
	for i, m := range mu {
		if m <= 0 || math.IsNaN(m) || math.IsInf(m, 0) {
			return fmt.Errorf("strategy: μ_%d = %v must be positive and finite", i+1, m)
		}
	}
	return nil
}
