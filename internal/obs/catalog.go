package obs

import "strings"

// Kind classifies a catalog entry.
type Kind string

// The metric kinds. They mirror the Prometheus type vocabulary.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Def documents one metric: its name (a trailing '*' marks a family whose
// suffix varies at runtime, e.g. one counter per registered strategy),
// kind, section, and help text. The catalog is the contract behind the
// report split: a metric whose Def has Runtime = false must be
// worker-invariant and rerun-invariant for a fixed seed, and the CLI
// determinism regression holds every deterministic metric to it. Unknown
// (uncataloged) names are placed in the runtime section — the safe side.
type Def struct {
	Name    string    `json:"name"`
	Kind    Kind      `json:"kind"`
	Runtime bool      `json:"runtime,omitempty"`
	Help    string    `json:"help"`
	Buckets []float64 `json:"-"`
}

// Catalog is the full metric catalog, in export order (deterministic
// metrics first, then runtime). `rbrepro info` prints it; LookupDef serves
// the encoders.
var Catalog = []Def{
	// Monte Carlo engine (internal/mc).
	{Name: "mc_runs_total", Kind: KindCounter, Help: "Monte Carlo engine invocations that executed at least one block"},
	{Name: "mc_blocks_total", Kind: KindCounter, Help: "replication blocks executed by the Monte Carlo worker pool"},
	{Name: "mc_map_items_total", Kind: KindCounter, Help: "independent grid items fanned out through mc.MapCtx"},
	{Name: "mc_block_panics_total", Kind: KindCounter, Help: "replication blocks whose panic was captured and converted to a typed error"},

	// Simulators (internal/sim).
	{Name: "sim_async_intervals_total", Kind: KindCounter, Help: "recovery-line intervals observed by the asynchronous simulator"},
	{Name: "sim_async_events_total", Kind: KindCounter, Help: "events drawn by the asynchronous simulator; below the per-state table budget, interactions between two unmarked processes are thinned out and never drawn"},
	{Name: "sim_sync_cycles_total", Kind: KindCounter, Help: "synchronization cycles simulated by the synchronous simulator"},
	{Name: "sim_prp_probes_total", Kind: KindCounter, Help: "error probes simulated by the pseudo-recovery-point simulator"},

	// Exact solvers (internal/markov, internal/linalg).
	{Name: "markov_solve_dense_total", Kind: KindCounter, Help: "absorbing-chain solves routed to the dense LU path"},
	{Name: "markov_solve_sparse_total", Kind: KindCounter, Help: "absorbing-chain solves routed to the CSR two-level Gauss–Seidel path"},
	{Name: "markov_uniformization_matvecs_total", Kind: KindCounter, Help: "uniformized transient-solve matrix–vector products"},
	{Name: "markov_solve_mc_total", Kind: KindCounter, Help: "absorbing-chain solves that fell back to the last-resort jump-chain Monte Carlo estimate"},
	{Name: "markov_solve_kron_total", Kind: KindCounter, Help: "moment solves routed to the matrix-free Kronecker engine"},
	{Name: "markov_kron_matvecs_total", Kind: KindCounter, Help: "matrix-free Kronecker operator applications (forward and transposed)"},
	{Name: "markov_krylov_iters_total", Kind: KindCounter, Help: "operator applications inside the matrix-free Krylov solves: one per Arnoldi step of GMRES or a Krylov exponential, two per BiCGSTAB iteration; residual checks excluded"},
	{Name: "linalg_csr_builds_total", Kind: KindCounter, Help: "CSR matrices assembled"},
	{Name: "linalg_csr_nnz", Kind: KindHistogram, Help: "nonzeros per assembled CSR matrix"},
	{Name: "linalg_gs_sweeps_total", Kind: KindCounter, Help: "two-level Gauss–Seidel sweeps across all sparse solves"},
	{Name: "linalg_gs_sweeps", Kind: KindHistogram, Help: "two-level Gauss–Seidel sweeps per sparse solve"},

	// Strategy registry and pipelines.
	{Name: "strategy_crosschecks_total", Kind: KindCounter, Help: "model↔simulator cross-check runs through the strategy registry"},
	{Name: "strategy_crosschecks_total_*", Kind: KindCounter, Help: "cross-check runs per registered strategy (suffix = strategy name)"},
	{Name: "scenario_cells_total", Kind: KindCounter, Help: "scenarios evaluated by the batch engine"},
	{Name: "scenario_advise_total", Kind: KindCounter, Help: "advisor pricings performed"},
	{Name: "scenario_checks_total", Kind: KindCounter, Help: "statistical cross-check comparisons judged by the scenario engine"},
	{Name: "scenario_check_failures_total", Kind: KindCounter, Help: "scenario cross-check comparisons that failed"},
	{Name: "xval_cells_total", Kind: KindCounter, Help: "cross-validation grid cells executed"},
	{Name: "xval_checks_total", Kind: KindCounter, Help: "cross-validation comparisons judged"},
	{Name: "xval_check_failures_total", Kind: KindCounter, Help: "cross-validation comparisons that failed"},

	// Rare-event engine (internal/rare).
	{Name: "rare_runs_total", Kind: KindCounter, Help: "rare-event estimates computed"},
	{Name: "rare_route_auto_total", Kind: KindCounter, Help: "rare-event estimates that went through the auto-router pilot"},
	{Name: "rare_method_exact_total", Kind: KindCounter, Help: "rare-event estimates answered exactly (deadline inside the deterministic offset)"},
	{Name: "rare_method_mc_total", Kind: KindCounter, Help: "rare-event estimates computed by plain Monte Carlo"},
	{Name: "rare_method_is_total", Kind: KindCounter, Help: "rare-event estimates computed by importance sampling"},
	{Name: "rare_method_split_total", Kind: KindCounter, Help: "rare-event estimates computed by fixed-effort splitting"},

	// Chaos harness (internal/chaos).
	{Name: "chaos_cells_total", Kind: KindCounter, Help: "(scenario, stack) stability cells evaluated"},
	{Name: "chaos_draws_total", Kind: KindCounter, Help: "perturbed advisor draws executed"},
	{Name: "chaos_flips_total", Kind: KindCounter, Help: "perturbed draws whose advised winner flipped"},
	{Name: "chaos_perturb_layers_total", Kind: KindCounter, Help: "perturbation layers applied to scenario draws"},

	// Recovery-block guard (internal/guard). Deterministic: the ladder a
	// solve walks depends only on the inputs and any injected fault spec,
	// never on scheduling.
	{Name: "guard_blocks_total", Kind: KindCounter, Help: "recovery blocks executed"},
	{Name: "guard_fallbacks_total", Kind: KindCounter, Help: "blocks whose accepted value came from an alternate route"},
	{Name: "guard_rejects_total", Kind: KindCounter, Help: "acceptance-test rejections (including injected faults)"},
	{Name: "guard_forced_failures_total", Kind: KindCounter, Help: "rungs force-failed by an injected fault spec"},
	{Name: "guard_panics_total", Kind: KindCounter, Help: "panics captured inside guard attempts"},
	{Name: "guard_exhausted_total", Kind: KindCounter, Help: "blocks that failed every rung of their ladder"},
	{Name: "guard_fallback_depth", Kind: KindHistogram, Help: "accepted ladder index per block (0 = primary)",
		Buckets: []float64{0, 1, 2, 3, 4}},
	{Name: "scenario_quarantined_total", Kind: KindCounter, Help: "scenarios quarantined by the batch runner instead of aborting the corpus"},

	// Runtime section: scheduling- and clock-dependent by nature.
	{Name: "mc_workers", Kind: KindGauge, Runtime: true, Help: "resolved worker-pool size of the most recent parallel Monte Carlo run"},
	{Name: "mc_imbalance_blocks", Kind: KindGauge, Runtime: true, Help: "largest per-run spread (max−min) of blocks executed per worker"},
	{Name: "mc_worker_blocks", Kind: KindHistogram, Runtime: true, Help: "blocks executed per worker per parallel run"},
	{Name: "mc_worker_busy_seconds", Kind: KindHistogram, Runtime: true, Help: "busy time per worker per parallel run (queue wait is run wall time minus busy time)"},
	{Name: "mc_run_seconds", Kind: KindHistogram, Runtime: true, Help: "wall time per Monte Carlo engine run"},
	{Name: "guard_budget_exhausted_total", Kind: KindCounter, Runtime: true, Help: "blocks abandoned because their wall-clock budget or context expired"},
}

// LookupDef resolves a metric name against the catalog: exact match first,
// then the longest matching '*'-family prefix.
func LookupDef(name string) (Def, bool) {
	best, bestLen, found := Def{}, -1, false
	for _, d := range Catalog {
		if d.Name == name {
			return d, true
		}
		if prefix, ok := strings.CutSuffix(d.Name, "*"); ok &&
			strings.HasPrefix(name, prefix) && len(prefix) > bestLen {
			best, bestLen, found = d, len(prefix), true
		}
	}
	return best, found
}

// isRuntime reports the section of a metric: runtime when the catalog says
// so, and for unknown names (the safe default — nothing uncataloged may
// claim determinism).
func isRuntime(name string) bool {
	d, ok := LookupDef(name)
	return !ok || d.Runtime
}

// Default bucket ladders. Sizes use powers of four up to ~16M (nnz, sweep
// counts, per-worker blocks); durations use a decade ladder from 100µs to
// 1000s.
var (
	sizeBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216}
	timeBuckets = []float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10, 100, 1000}
)

// bucketsFor resolves a histogram's bounds: the catalog entry's Buckets,
// else the time ladder for *_seconds names, else the size ladder.
func bucketsFor(name string) []float64 {
	if d, ok := LookupDef(name); ok && len(d.Buckets) > 0 {
		return d.Buckets
	}
	if strings.HasSuffix(name, "_seconds") {
		return timeBuckets
	}
	return sizeBuckets
}
