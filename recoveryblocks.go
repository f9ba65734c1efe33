// Package recoveryblocks reproduces Shin & Lee, "Analysis of Backward Error
// Recovery for Concurrent Processes with Recovery Blocks" (ICPP 1983), as a
// production-quality Go library.
//
// It provides three layers:
//
//   - An executable runtime (System, Process programs built with Builder)
//     that runs cooperating concurrent processes — stepped in a fixed
//     round-robin order, so every run repeats exactly — under recovery
//     blocks with acceptance tests and alternates, in the
//     three organizations the paper analyzes: asynchronous recovery blocks
//     (rollback propagation and the domino effect), synchronized recovery
//     blocks (conversations at test lines), and pseudo recovery points
//     (implantation, bounded rollback).
//
//   - The paper's stochastic models, solved exactly: the 2^n+1-state
//     continuous-time Markov chain whose absorption time is the interval X
//     between successive recovery lines (AsyncModel), its lumped symmetric
//     form (SymmetricModel), the split discrete chain Y_d counting saved
//     states L_i (SplitChain), and the closed forms for synchronization
//     loss and PRP overhead.
//
//   - Experiments (Table1, Figure5, Figure6, Section3, Section4,
//     Figure1Domino, Figure7SyncTrace, Figure8PRPTrace, ModelGraphs) that
//     regenerate every table and figure of the paper's evaluation; see
//     cmd/rbrepro for the command-line driver and EXPERIMENTS.md for the
//     paper-vs-measured record.
//
// Every Monte Carlo estimate — the simulators and the experiments built on
// them — runs on a sharded worker pool (internal/mc): replications are cut
// into fixed blocks, each block draws from its own splittable RNG substream,
// and block statistics merge in block order. Results are therefore
// bit-identical for any worker count; the Workers knob (Sizes.Workers,
// AsyncOptions.Workers, …, and cmd/rbrepro's -workers flag) only trades
// wall-clock time. Zero means all CPUs.
//
// The models and the simulators are mechanically kept in agreement by the
// cross-validation harness (internal/xval, re-exported here as
// CrossValidate, XValShortGrid, XValFullGrid): every simulator/model pair is
// checked over a scenario grid with confidence-interval equivalence tests,
// via `rbrepro xval`, the go test suite, and golden regression files.
//
// On top of all of it sits the declarative scenario engine (internal/scenario,
// re-exported as LoadScenarios, RunScenarios, Advise): workloads are data — a
// versioned JSON spec of concrete scenarios and parameterized families — and
// the strategy advisor prices each recovery organization per scenario
// (overhead per unit time, deadline-miss probability), cross-checking every
// advised number against the simulators. See `rbrepro scenario` and the spec
// files under testdata/scenarios/.
//
// The recovery disciplines themselves live behind the strategy registry
// (internal/strategy): every layer above — advisor, cross-validation,
// experiments, this facade, the CLI — dispatches through it, so a discipline
// is a one-package drop-in (analytic model, sharded simulator, check
// families) rather than a hand-rolled vertical slice. The registry ships the
// paper's three organizations plus sync-every-k, the every-k-th-block
// generalization of the synchronized scheme; see StrategyCatalog,
// CompareStrategies and `rbrepro strategies`.
package recoveryblocks

import (
	"context"

	"recoveryblocks/internal/chaos"
	"recoveryblocks/internal/core"
	"recoveryblocks/internal/dist"
	"recoveryblocks/internal/expt"
	"recoveryblocks/internal/guard"
	"recoveryblocks/internal/markov"
	"recoveryblocks/internal/mc"
	"recoveryblocks/internal/obs"
	"recoveryblocks/internal/rare"
	"recoveryblocks/internal/rbmodel"
	"recoveryblocks/internal/scenario"
	"recoveryblocks/internal/sim"
	"recoveryblocks/internal/strategy"
	"recoveryblocks/internal/synch"
	"recoveryblocks/internal/xval"
)

// ---- Runtime layer (internal/core) ----

// Aliases re-exporting the executable recovery-block runtime.
type (
	// System runs n processes under a recovery strategy.
	System = core.System
	// Config configures a System.
	Config = core.Config
	// Program is a process program; build with NewBuilder.
	Program = core.Program
	// Builder assembles Programs.
	Builder = core.Builder
	// Ctx is passed to user step functions.
	Ctx = core.Ctx
	// State is the checkpointable process state.
	State = core.State
	// Value is a message payload.
	Value = core.Value
	// Metrics aggregates a run's accounting.
	Metrics = core.Metrics
	// ProcStats is per-process accounting.
	ProcStats = core.ProcStats
	// FaultPlan schedules error injections.
	FaultPlan = core.FaultPlan
	// Fault is one scheduled error.
	Fault = core.Fault
	// ATPlan schedules acceptance-test failures.
	ATPlan = core.ATPlan
	// ATOverride is one scheduled AT failure.
	ATOverride = core.ATOverride
	// Strategy selects the recovery organization.
	Strategy = core.Strategy
	// Counter, Ints and Record are ready-made State implementations.
	Counter = core.Counter
	// Ints is a ready-made State of int64s.
	Ints = core.Ints
	// Record is a ready-made keyed State.
	Record = core.Record
)

// Re-exported strategy constants and fault kinds.
const (
	// StrategyAsync is asynchronous recovery blocks (Section 2).
	StrategyAsync = core.StrategyAsync
	// StrategyPRP is pseudo recovery points (Section 4).
	StrategyPRP = core.StrategyPRP
	// FaultLocal is an error local to the failing process.
	FaultLocal = core.FaultLocal
	// FaultPropagated is an error that arrived from another process.
	FaultPropagated = core.FaultPropagated
)

// NewSystem assembles a runtime system (see core.New).
func NewSystem(cfg Config, programs []Program, initial []State) (*System, error) {
	return core.New(cfg, programs, initial)
}

// NewBuilder starts a process program.
func NewBuilder() *Builder { return core.NewBuilder() }

// NewFaultPlan bundles scheduled faults.
func NewFaultPlan(faults ...Fault) *FaultPlan { return core.NewFaultPlan(faults...) }

// NewATPlan bundles scheduled acceptance-test failures.
func NewATPlan(overrides ...ATOverride) *ATPlan { return core.NewATPlan(overrides...) }

// ---- Analytic layer (internal/rbmodel, internal/synch) ----

// Aliases re-exporting the stochastic models.
type (
	// Params is the (μ_i, λ_ij) parameterization of Section 2.1.
	Params = rbmodel.Params
	// AsyncModel is the full 2^n+1-state chain of Figure 2.
	AsyncModel = rbmodel.AsyncModel
	// SymmetricModel is the lumped chain of Figure 3.
	SymmetricModel = rbmodel.SymmetricModel
	// SplitChain is the Y_d chain of Figure 4.
	SplitChain = rbmodel.SplitChain
)

// NewAsyncModel builds the full asynchronous-RB chain.
func NewAsyncModel(p Params) (*AsyncModel, error) { return rbmodel.NewAsync(p) }

// NewSymmetricModel builds the lumped chain for identical processes.
func NewSymmetricModel(n int, mu, lambda float64) (*SymmetricModel, error) {
	return rbmodel.NewSymmetric(n, mu, lambda)
}

// NewSplitChain builds Y_d for the given target process.
func NewSplitChain(p Params, target int) (*SplitChain, error) {
	return rbmodel.NewSplitChain(p, target)
}

// UniformParams builds identical-process parameters (μ, λ for all).
func UniformParams(n int, mu, lambda float64) Params { return rbmodel.Uniform(n, mu, lambda) }

// ThreeProcessParams builds the paper's n = 3 parameterization from
// (μ1, μ2, μ3) and (λ12, λ23, λ13).
func ThreeProcessParams(mu1, mu2, mu3, l12, l23, l13 float64) Params {
	return rbmodel.ThreeProcess(mu1, mu2, mu3, l12, l23, l13)
}

// SyncMeanLoss returns the Section 3 mean computation loss
// CL = n·E[Z] − Σ 1/μ_i for one synchronization.
func SyncMeanLoss(mu []float64) (float64, error) { return synch.MeanLoss(mu) }

// SyncMeanWait returns E[Z] = E[max_i Exp(μ_i)], the commitment wait.
func SyncMeanWait(mu []float64) (float64, error) { return synch.MeanMax(mu) }

// OptimalSyncInterval answers the question the paper poses in Section 1 —
// "the optimal interval between two successive synchronizations" — under a
// renewal-reward model with system error rate theta: it returns the request
// interval minimizing the long-run fraction of computing power lost to
// commitment waits plus expected rollback, and that minimal fraction.
func OptimalSyncInterval(mu []float64, theta float64) (tau, overhead float64, err error) {
	return synch.OptimalInterval(mu, theta)
}

// SyncOverheadRate evaluates the same cost model at a given interval.
func SyncOverheadRate(mu []float64, tau, theta float64) (float64, error) {
	return synch.OverheadRate(mu, tau, theta)
}

// ---- Simulation layer (internal/sim) ----

// Aliases re-exporting the discrete-event simulators.
type (
	// AsyncOptions configures SimulateAsync.
	AsyncOptions = sim.AsyncOptions
	// AsyncResult is SimulateAsync's output.
	AsyncResult = sim.AsyncResult
	// SyncOptions configures SimulateSync.
	SyncOptions = sim.SyncOptions
	// SyncSimResult is SimulateSync's output (the experiment-layer
	// reproduction of Section 3 is SyncResult).
	SyncSimResult = sim.SyncResult
	// SyncStrategy selects when synchronization requests are issued.
	SyncStrategy = sim.SyncStrategy
	// PRPOptions configures SimulatePRP.
	PRPOptions = sim.PRPOptions
	// PRPSimResult is SimulatePRP's output (the experiment-layer
	// reproduction of Section 4 is PRPResult).
	PRPSimResult = sim.PRPResult
)

// Re-exported synchronization-request strategies (Section 3).
const (
	// SyncConstantInterval requests at a constant interval.
	SyncConstantInterval = sim.SyncConstantInterval
	// SyncElapsedSinceLine requests when the time since the previous
	// recovery line exceeds the threshold.
	SyncElapsedSinceLine = sim.SyncElapsedSinceLine
	// SyncStatesSaved requests when the states saved since the previous
	// recovery line exceed the threshold.
	SyncStatesSaved = sim.SyncStatesSaved
)

// SimulateAsync estimates E[X] and E[L_i] by discrete-event simulation.
func SimulateAsync(p Params, opt AsyncOptions) (*AsyncResult, error) {
	return sim.SimulateAsync(p, opt)
}

// SimulateSync measures the Section 3 synchronized scheme's computation
// loss, commitment wait and cycle statistics by simulation.
func SimulateSync(mu []float64, opt SyncOptions) (*SyncSimResult, error) {
	return sim.SimulateSync(mu, opt)
}

// SimulatePRP measures rollback distances with pseudo recovery points
// against the asynchronous scheme by simulation (Section 4).
func SimulatePRP(p Params, opt PRPOptions) (*PRPSimResult, error) {
	return sim.SimulatePRP(p, opt)
}

// ---- Experiment layer (internal/expt) ----

// Aliases re-exporting the experiment drivers.
type (
	// Sizes scales the Monte Carlo effort of experiments.
	Sizes = expt.Sizes
	// Table1Result reproduces Table 1.
	Table1Result = expt.Table1Result
	// Fig5Result reproduces Figure 5.
	Fig5Result = expt.Fig5Result
	// Fig6Result reproduces Figure 6.
	Fig6Result = expt.Fig6Result
	// SyncResult reproduces Section 3.
	SyncResult = expt.SyncResult
	// PRPResult reproduces Section 4.
	PRPResult = expt.PRPResult
	// TraceResult is a runtime history-diagram reproduction (Figs 1, 7, 8).
	TraceResult = expt.TraceResult
)

// DefaultSizes is the publication-quality experiment configuration.
func DefaultSizes() Sizes { return expt.DefaultSizes() }

// QuickSizes is a fast experiment configuration for smoke tests.
func QuickSizes() Sizes { return expt.QuickSizes() }

// Table1 regenerates Table 1 (exact + split-chain + simulation).
func Table1(sz Sizes) (*Table1Result, error) { return expt.Table1(sz) }

// Figure5 regenerates the Figure 5 sweep of E[X] against n.
func Figure5(ns []int, rhos []float64, exactUpTo int, sz Sizes) (*Fig5Result, error) {
	return expt.Figure5(ns, rhos, exactUpTo, sz)
}

// Figure6 regenerates the Figure 6 density curves.
func Figure6(points int, tmax float64, sz Sizes) (*Fig6Result, error) {
	return expt.Figure6(points, tmax, sz)
}

// Section3 regenerates the synchronization-loss analysis.
func Section3(sz Sizes) (*SyncResult, error) { return expt.Section3(sz) }

// Section4 regenerates the PRP overhead/rollback analysis.
func Section4(ns []int, saveCost, lambda float64, sz Sizes) (*PRPResult, error) {
	return expt.Section4(ns, saveCost, lambda, sz)
}

// Figure1Domino reproduces the Figure 1 rollback-propagation scenario on the
// runtime and renders its history diagram.
func Figure1Domino(seed int64) (*TraceResult, error) { return expt.Figure1Domino(seed) }

// Figure7SyncTrace reproduces the Figure 7 synchronization scenario.
func Figure7SyncTrace(seed int64) (*TraceResult, error) { return expt.Figure7SyncTrace(seed) }

// Figure8PRPTrace reproduces the Figure 8 PRP scenario.
func Figure8PRPTrace(seed int64) (*TraceResult, error) { return expt.Figure8PRPTrace(seed) }

// ModelGraphs exports the Figure 2–4 model structure as Graphviz DOT.
func ModelGraphs() (*expt.GraphsResult, error) { return expt.ModelGraphs() }

// ---- Cross-validation layer (internal/xval) ----

// Aliases re-exporting the model↔simulator cross-validation harness — the
// statistical oracle that checks every Monte Carlo simulator against the
// exact solver computing the same quantity.
type (
	// XValScenario is one cell of the cross-validation grid.
	XValScenario = xval.Scenario
	// XValOptions tunes a cross-validation run (family-wise error rate,
	// exact-route tolerance, worker count).
	XValOptions = xval.Options
	// XValReport is the judged outcome of a grid run.
	XValReport = xval.Report
	// XValCheck is one comparison of the report.
	XValCheck = xval.Check
)

// XValShortGrid returns the deterministic smoke grid (seconds of CPU).
func XValShortGrid() []XValScenario { return xval.ShortGrid() }

// XValFullGrid returns the thorough sweep grid.
func XValFullGrid() []XValScenario { return xval.FullGrid() }

// XValRareGrid returns the overlap-regime grid: deadline-miss probabilities
// pushed into the ≤ 1e−6 regime, where the rare-event estimators are judged
// against the exact solvers (run with XValOptions.RareOnly).
func XValRareGrid() []XValScenario { return xval.RareGrid() }

// CrossValidate runs every model↔simulator check of the grid and judges the
// results at the family-wise error rate of opt (see internal/xval).
func CrossValidate(grid []XValScenario, opt XValOptions) (*XValReport, error) {
	return xval.Run(grid, opt)
}

// ---- Scenario engine (internal/scenario) ----

// Aliases re-exporting the declarative scenario engine and strategy advisor:
// workloads as data, evaluated under every requested recovery organization
// with the exact models, cross-checked against the simulators, and ranked.
type (
	// Scenario is one fully resolved workload (build via LoadScenarios,
	// DefaultScenarioFamily, or by hand followed by Validate).
	Scenario = scenario.Scenario
	// ScenarioSpec is the versioned JSON document holding scenarios and
	// families; LoadScenarios decodes and expands it in one step.
	ScenarioSpec = scenario.Spec
	// ScenarioFamily is a parameterized scenario generator (uniform,
	// hot-pair, pipeline, straggler, deadline-sweep, random).
	ScenarioFamily = scenario.FamilySpec
	// ScenarioStrategy names a recovery organization in a scenario
	// ("async", "sync" or "prp"); distinct from the runtime's Strategy.
	ScenarioStrategy = scenario.Strategy
	// ScenarioOptions tunes a batch run (family-wise error rate, workers).
	ScenarioOptions = scenario.Options
	// ScenarioReport is the judged outcome of a batch run.
	ScenarioReport = scenario.Report
	// ScenarioResult is one scenario's slice of the report.
	ScenarioResult = scenario.Result
	// ScenarioCheck is one model↔simulator cross-check of the report.
	ScenarioCheck = scenario.Check
	// Advice is the advisor's ranking for one scenario.
	Advice = scenario.Advice
	// StrategyMetrics prices one organization for one scenario.
	StrategyMetrics = scenario.StrategyMetrics
)

// Re-exported scenario strategy names.
const (
	// ScenarioAsync selects asynchronous recovery blocks (Section 2).
	ScenarioAsync = scenario.StrategyAsync
	// ScenarioSync selects synchronized recovery blocks (Section 3).
	ScenarioSync = scenario.StrategySync
	// ScenarioPRP selects pseudo recovery points (Section 4).
	ScenarioPRP = scenario.StrategyPRP
	// ScenarioSyncEveryK selects every-k-th-block synchronization (the
	// Section 3 generalization; k = 1 is the paper's synchronized case).
	ScenarioSyncEveryK = scenario.StrategySyncEveryK
)

// LoadScenarios decodes a versioned JSON spec (strictly: unknown fields,
// trailing data and version mismatches are errors) and expands it into its
// concrete scenario grid.
func LoadScenarios(data []byte) ([]Scenario, error) { return scenario.Load(data) }

// ScenarioFamilies returns the built-in family names.
func ScenarioFamilies() []string { return scenario.Families() }

// DefaultScenarioFamily expands the named built-in family with its default
// parameter grid; quick substitutes the smoke-test replication budget.
func DefaultScenarioFamily(name string, quick bool) ([]Scenario, error) {
	f, err := scenario.DefaultFamily(name, quick)
	if err != nil {
		return nil, err
	}
	return f.Expand()
}

// RunScenarios evaluates every scenario of the batch — advisor pricing per
// strategy plus model↔simulator cross-checks — fanning the grid across the
// Monte Carlo worker pool. Fixed seeds make the report bit-identical for
// every worker count.
func RunScenarios(scs []Scenario, opt ScenarioOptions) (*ScenarioReport, error) {
	return scenario.Run(scs, opt)
}

// Advise prices every requested strategy of one scenario from the exact
// models alone (no simulation) and ranks them by expected overhead per unit
// time; see RunScenarios for the cross-checked version.
func Advise(sc Scenario) (*Advice, error) { return scenario.Advise(sc) }

// AdviseCtx is Advise under an explicit context: cancellation aborts the
// chain solves mid-ladder, and the returned advice carries a confidence
// label whenever any priced number came off a fallback route instead of its
// primary solver (see ConfidenceFallback, ConfidenceDegraded).
func AdviseCtx(ctx context.Context, sc Scenario) (*Advice, error) {
	return scenario.AdviseCtx(ctx, sc)
}

// ---- Recovery-block guard layer (internal/guard) ----
//
// Every numerical route in the engine — chain solves, simulator batches, the
// rare-event router, the advisor — runs inside an acceptance-tested recovery
// block: a primary solver plus fallback alternates, each attempt
// panic-isolated and its result checked before use. The sentinels below
// classify why a route (or a whole block) failed; match with errors.Is.

// Re-exported guard failure classes.
var (
	// ErrNumerical marks a solver failure: non-convergence, NaN/Inf, a
	// residual past tolerance.
	ErrNumerical = guard.ErrNumerical
	// ErrBudget marks an exhausted budget — a cancelled context (CLI
	// -timeout, Ctrl-C) or a block's wall-clock deadline.
	ErrBudget = guard.ErrBudget
	// ErrPanic marks a captured panic: the attempt crashed, the process did
	// not.
	ErrPanic = guard.ErrPanic
	// ErrRejected marks an acceptance-test rejection.
	ErrRejected = guard.ErrRejected
	// ErrInvalid marks a structurally unrecoverable input: no alternate can
	// help, so fallback ladders abort instead of degrading.
	ErrInvalid = guard.ErrInvalid
)

// Re-exported advice confidence labels (Advice.Confidence).
const (
	// ConfidenceExact: every number came from its primary exact route.
	ConfidenceExact = scenario.ConfidenceExact
	// ConfidenceFallback: at least one number came from an exact alternate
	// (sparse or uniformization rung) after the primary failed.
	ConfidenceFallback = scenario.ConfidenceFallback
	// ConfidenceDegraded: at least one number came from the Monte Carlo
	// estimate rung — correct in expectation, carries sampling error.
	ConfidenceDegraded = scenario.ConfidenceDegraded
)

// WithSolverFaults returns a context that forces the first depth attempts of
// every recovery block under it to fail, driving each numerical route onto
// its fallback alternates. Depth is clamped per block so the last rung always
// runs: the engine degrades, never refuses. This is the fault-injection
// surface behind `rbrepro -solver-fault` and the chaos solver-fault
// perturbation; depth <= 0 returns ctx unchanged.
func WithSolverFaults(ctx context.Context, depth int) context.Context {
	if depth <= 0 {
		return ctx
	}
	return guard.WithFaults(ctx, guard.FaultSpec{Depth: depth})
}

// ---- Rare-event engine (internal/rare, internal/scenario) ----

// Aliases re-exporting the variance-reduced deadline-miss estimator layer:
// importance sampling (defensive mixtures with exact likelihood-ratio
// correction), fixed-effort splitting, and the pilot-run auto-router, all
// bit-identical for every worker count.
type (
	// RareOptions tunes one rare-event estimate (method, budget, forced
	// strength, precision target, control variate, seed, workers).
	RareOptions = rare.Options
	// RareEstimate is one estimate with its standard error, diagnostics and
	// the router's reasoning.
	RareEstimate = rare.Estimate
	// RareMethod selects a rare-event estimator.
	RareMethod = rare.Method
	// RareReport is the outcome of a RareSweep — one row per scenario ×
	// strategy with the exact reference beside the estimate.
	RareReport = scenario.RareReport
	// RareRow is one row of a RareReport.
	RareRow = scenario.RareRow
)

// Re-exported rare-event method names.
const (
	// RareAuto lets the pilot-run router choose the estimator.
	RareAuto = rare.MethodAuto
	// RareMC is plain binomial Monte Carlo.
	RareMC = rare.MethodMC
	// RareIS is importance sampling.
	RareIS = rare.MethodIS
	// RareSplit is fixed-effort splitting over time levels.
	RareSplit = rare.MethodSplit
	// RareExact labels results that needed no simulation.
	RareExact = rare.MethodExact
)

// RareSweep estimates the deadline-miss probability of every scenario ×
// requested strategy with the rare-event engine, carrying each discipline's
// exact analytic answer beside the estimate — the tail regime (miss rates
// ≤ 1e−6) where the advisor's plain estimators see only zeros.
func RareSweep(scs []Scenario, opt RareOptions) (*RareReport, error) {
	return scenario.RareSweep(scs, opt)
}

// ---- Strategy registry (internal/strategy) ----

// StrategyInfo describes one registered recovery discipline.
type StrategyInfo struct {
	// Name is the registry key — the spelling scenario specs and the
	// -strategy CLI flag use.
	Name string
	// Description is the one-line catalog entry.
	Description string
}

// StrategyCatalog lists every registered recovery discipline in canonical
// order — the paper's three organizations plus the registered extensions.
// `rbrepro strategies` prints exactly this.
func StrategyCatalog() []StrategyInfo {
	all := strategy.All()
	out := make([]StrategyInfo, len(all))
	for i, st := range all {
		out[i] = StrategyInfo{Name: string(st.Name()), Description: st.Describe()}
	}
	return out
}

// ParseScenarioStrategy validates a strategy name against the registry (the
// seam behind the -strategy flag of `rbrepro xval` and `rbrepro scenario`).
func ParseScenarioStrategy(s string) (ScenarioStrategy, error) {
	return scenario.ParseStrategy(s)
}

// StrategyComparison tabulates every registered discipline priced on one
// canonical workload.
type StrategyComparison = expt.CompareResult

// CompareStrategies prices every registered discipline on the canonical
// comparison workload — sync-every-k once per block period in ks (nil
// selects k ∈ {1, 2, 4}) — ranked by overhead rate. Deterministic model
// evaluation only; see `rbrepro strategies -table`.
func CompareStrategies(ks []int) (*StrategyComparison, error) {
	return expt.CompareStrategies(ks)
}

// XValEveryKGrid returns the sync-every-k cross-validation grid — the cells
// `rbrepro xval -strategy sync-every-k` sweeps.
func XValEveryKGrid() []XValScenario { return xval.EveryKGrid() }

// XValKronGrid returns the matrix-free proof grid: n ∈ {18, 20, 24} cells,
// past every materialized chain, whose distinct-μ ramps force the
// Kronecker route — `rbrepro xval -kron` sweeps it.
func XValKronGrid() []XValScenario { return xval.KronGrid() }

// ---- Chaos harness (internal/chaos) ----

type (
	// ChaosOptions tunes a ranking-stability sweep (zero value = defaults).
	ChaosOptions = chaos.Options
	// ChaosReport is the outcome of a stability sweep.
	ChaosReport = chaos.Report
	// ChaosStack is one composed perturbation adversary.
	ChaosStack = chaos.Stack
)

// ChaosCorpus generates count valid scenarios from the seed — the fixed-seed
// random workload population the chaos gate sweeps. Scenario i depends only
// on (seed, i), so growing the corpus never changes existing scenarios.
func ChaosCorpus(count int, seed int64) ([]Scenario, error) { return chaos.Corpus(count, seed) }

// RunChaos sweeps every scenario under every perturbation stack and judges
// ranking stability: the advisor prices the clean workload and many perturbed
// draws per stack, and a cell is unstable only when the winner-flip rate
// exceeds the tolerated threshold by more than sampling noise explains AND the
// clean margin was wide enough that the flip is not near-tie geometry.
// Deterministic: bit-identical for every worker count.
func RunChaos(scs []Scenario, opt ChaosOptions) (*ChaosReport, error) { return chaos.Run(scs, opt) }

// ChaosPerturbations lists the registered perturbations (name and one-line
// description), in catalog order — what `rbrepro chaos` accepts in -perturb.
func ChaosPerturbations() []StrategyInfo {
	all := chaos.All()
	out := make([]StrategyInfo, len(all))
	for i, p := range all {
		out[i] = StrategyInfo{Name: p.Name(), Description: p.Describe()}
	}
	return out
}

// ParseChaosStacks decodes the -perturb syntax: stacks separated by "|",
// layers within a stack by "+", each layer "name" or "name:magnitude".
func ParseChaosStacks(s string) ([]ChaosStack, error) { return chaos.ParseStacks(s) }

// ---- Observability (internal/obs) ----

// Aliases re-exporting the zero-overhead-when-off metrics and tracing layer:
// atomic counters, gauges and mergeable histograms across the whole pipeline
// (Monte Carlo engine, simulators, exact solvers, scenario/xval/rare/chaos
// harnesses), hierarchical run spans, and two export surfaces — a
// structured JSON run report split into deterministic and runtime sections,
// and a human-readable summary. When no registry is installed, every
// instrumented site is one atomic pointer load and a nil check.
type (
	// MetricsRegistry holds one run's metrics; install with MetricsEnable.
	MetricsRegistry = obs.Registry
	// MetricsReport is the structured snapshot: the deterministic section is
	// bit-identical across worker counts and same-seed reruns; everything
	// clock- or scheduling-shaped is quarantined in the runtime section.
	MetricsReport = obs.Report
	// MetricDef documents one cataloged metric (name, kind, section, help).
	MetricDef = obs.Def
	// MetricsSpan is one open hierarchical run span; close with End.
	MetricsSpan = obs.Span
)

// MetricsEnable installs a fresh global metrics registry and returns it.
// Every instrumented layer starts recording; call MetricsDisable (or just
// drop the registry) to return to the zero-overhead disabled state.
func MetricsEnable() *MetricsRegistry { return obs.Enable() }

// MetricsDisable uninstalls the global metrics registry.
func MetricsDisable() { obs.Disable() }

// MetricsEnabled reports whether a metrics registry is installed.
func MetricsEnabled() bool { return obs.Enabled() }

// CurrentMetrics returns the installed registry, or nil when observability
// is off. The returned registry's WriteJSON, Summary and Report methods are
// the export surfaces behind `rbrepro -metrics` and `-metrics-summary`.
func CurrentMetrics() *MetricsRegistry { return obs.Current() }

// StartMetricsSpan opens a hierarchical run span ("cmd/scenario",
// "pipeline/stage/shard"); same-path spans aggregate. Returns nil (safe to
// End) when observability is off.
func StartMetricsSpan(path string) *MetricsSpan { return obs.StartSpan(path) }

// MetricsCatalog returns the full metric catalog — the authoritative list
// behind the deterministic/runtime report split. `rbrepro info` prints it.
func MetricsCatalog() []MetricDef { return append([]MetricDef(nil), obs.Catalog...) }

// Limits reports the compiled-in structural bounds of the analysis stack —
// the numbers that decide which route a given workload takes.
type Limits struct {
	// MaxExactProcesses bounds the full model's exact solve: the
	// matrix-free Kronecker engine carries the answer up to this n.
	MaxExactProcesses int `json:"max_exact_processes"`
	// MaxEnumeratedProcesses is the largest n whose 2^n+1-state chain the
	// async model enumerates: 2^n stays below SparseCutoff, so every solve
	// is dense LU. Above it the model routes to orbit lumping or the
	// matrix-free engine.
	MaxEnumeratedProcesses int `json:"max_enumerated_processes"`
	// MaxSplitProcesses bounds the split chain behind the per-process E[L_i]
	// cross-check; it has no matrix-free counterpart.
	MaxSplitProcesses int `json:"max_split_processes"`
	// KronCutoff is the orbit-lumped state count at and above which the
	// async model runs the matrix-free Kronecker route instead.
	KronCutoff int `json:"kron_cutoff"`
	// SparseCutoff is the transient-state count at and above which chain
	// solves switch from dense LU to the CSR two-level Gauss–Seidel route.
	SparseCutoff int `json:"sparse_cutoff"`
	// DefaultBlockSize is the Monte Carlo replication-block granularity.
	DefaultBlockSize int `json:"default_block_size"`
	// MaxEveryK bounds the sync-every-k block period.
	MaxEveryK int `json:"max_every_k"`
	// MaxAliasCategories bounds the event-category count of the superposed
	// Poisson samplers (n + C(n,2) categories at n processes).
	MaxAliasCategories int `json:"max_alias_categories"`
}

// EngineLimits returns the structural bounds compiled into this build.
func EngineLimits() Limits {
	return Limits{
		MaxExactProcesses:      rbmodel.MaxExactProcesses,
		MaxEnumeratedProcesses: rbmodel.MaxEnumeratedProcesses,
		MaxSplitProcesses:      rbmodel.MaxSplitProcesses,
		KronCutoff:             markov.KronCutoff,
		SparseCutoff:           markov.SparseCutoff,
		DefaultBlockSize:       mc.DefaultBlockSize,
		MaxEveryK:              strategy.MaxEveryK,
		MaxAliasCategories:     dist.MaxAliasCategories,
	}
}
