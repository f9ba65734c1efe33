package main

// metricDef is one reported metric. The lists below are the source of truth
// for BENCHMARK.json at the repository root; TestBenchmarkJSONMatches keeps
// the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move ("metric @ workload").
	Moves string
}

// endToEnd is what a user of the engine sees, measured with tracing off.
// Every workload reports every one of them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "answers_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "ok_frac", Unit: "frac", Better: "higher", Bound: 0.01},
}

// perLayer is measured by the traced run: counter deltas per pass read from
// internal/obs, the benchmark's own spans around its calls into each layer,
// and direct probes of single layers after the timed passes. A metric whose
// layer a workload never calls reads 0 on that workload.
var perLayer = []metricDef{
	{Name: "linalg.kron_matvec_ms", Unit: "ms", Better: "lower", Moves: "wall_s @ exact-wall"},
	{Name: "linalg.kron_gbps_computed", Unit: "GB/s", Better: "higher", Moves: "wall_s @ exact-wall"},
	{Name: "linalg.csr_builds", Unit: "count", Better: "lower", Moves: "setup_s, wall_s @ exact-wall"},
	{Name: "linalg.gs_sweeps", Unit: "count", Better: "lower", Moves: "wall_s @ exact-wall"},

	{Name: "markov.solves_dense", Unit: "count", Better: "lower", Moves: "wall_s @ exact-wall; answers_per_s @ advisor-corpus"},
	{Name: "markov.solves_sparse", Unit: "count", Better: "lower", Moves: "wall_s @ exact-wall"},
	{Name: "markov.solves_kron", Unit: "count", Better: "lower", Moves: "wall_s @ exact-wall"},
	{Name: "markov.kron_matvecs", Unit: "count", Better: "lower", Moves: "wall_s @ exact-wall"},
	{Name: "markov.krylov_iters", Unit: "count", Better: "lower", Moves: "wall_s @ exact-wall"},
	{Name: "markov.uniformization_matvecs", Unit: "count", Better: "lower", Moves: "wall_s @ exact-wall, paper-repro; answers_per_s @ advisor-corpus"},

	{Name: "rbmodel.build_s", Unit: "s", Better: "lower", Moves: "setup_s @ exact-wall"},
	{Name: "rbmodel.moments_s", Unit: "s", Better: "lower", Moves: "wall_s @ exact-wall"},
	{Name: "rbmodel.moments_below_wall_s", Unit: "s", Better: "lower", Moves: "wall_s @ exact-wall"},
	{Name: "rbmodel.moments_past_wall_s", Unit: "s", Better: "lower", Moves: "wall_s @ exact-wall"},
	{Name: "rbmodel.transient_s", Unit: "s", Better: "lower", Moves: "wall_s @ exact-wall, paper-repro"},
	{Name: "rbmodel.quantile_s", Unit: "s", Better: "lower", Moves: "wall_s @ exact-wall, paper-repro"},
	{Name: "rbmodel.quantile_matvecs", Unit: "count", Better: "lower", Moves: "wall_s @ exact-wall, paper-repro"},
	{Name: "rbmodel.quantile_waste_ratio", Unit: "ratio", Better: "lower", Moves: "wall_s @ exact-wall, paper-repro"},

	{Name: "sim.async_events", Unit: "count", Better: "lower", Moves: "wall_s @ paper-repro"},
	{Name: "sim.sync_cycles", Unit: "count", Better: "lower", Moves: "wall_s @ paper-repro"},
	{Name: "sim.prp_probes", Unit: "count", Better: "lower", Moves: "wall_s @ paper-repro"},

	{Name: "mc.blocks", Unit: "count", Better: "lower", Moves: "wall_s @ paper-repro; answers_per_s @ advisor-corpus"},
	{Name: "mc.map_items", Unit: "count", Better: "lower", Moves: "answers_per_s @ advisor-corpus"},
	{Name: "mc.busy_s", Unit: "s", Better: "lower", Moves: "wall_s @ paper-repro; answers_per_s @ advisor-corpus"},
	{Name: "mc.wait_frac", Unit: "frac", Better: "lower", Moves: "wall_s @ paper-repro; answers_per_s @ advisor-corpus"},
	{Name: "mc.imbalance_blocks", Unit: "count", Better: "lower", Moves: "wall_s @ paper-repro; answers_per_s @ advisor-corpus"},

	{Name: "strategy.price_ms.async", Unit: "ms", Better: "lower", Moves: "answers_per_s @ advisor-corpus"},
	{Name: "strategy.price_ms.sync", Unit: "ms", Better: "lower", Moves: "answers_per_s @ advisor-corpus"},
	{Name: "strategy.price_ms.prp", Unit: "ms", Better: "lower", Moves: "answers_per_s @ advisor-corpus"},
	{Name: "strategy.price_ms.sync-every-k", Unit: "ms", Better: "lower", Moves: "answers_per_s @ advisor-corpus"},

	{Name: "scenario.advise_ms_p50", Unit: "ms", Better: "lower", Moves: "answers_per_s @ advisor-corpus"},
	{Name: "scenario.advise_ms_p99", Unit: "ms", Better: "lower", Moves: "answers_per_s @ advisor-corpus"},
	{Name: "scenario.advise_count", Unit: "count", Better: "higher", Moves: "answers_per_s @ advisor-corpus"},

	{Name: "chaos.cells", Unit: "count", Better: "lower", Moves: "answers_per_s @ advisor-corpus"},
	{Name: "chaos.draws", Unit: "count", Better: "lower", Moves: "answers_per_s @ advisor-corpus"},

	{Name: "guard.blocks", Unit: "count", Better: "lower", Moves: "ok_frac @ all"},
	{Name: "guard.fallbacks", Unit: "count", Better: "lower", Moves: "ok_frac @ all"},
	{Name: "guard.rejects", Unit: "count", Better: "lower", Moves: "ok_frac @ all"},
	{Name: "guard.primary_ratio", Unit: "frac", Better: "higher", Moves: "ok_frac @ all"},

	{Name: "expt.table1_s", Unit: "s", Better: "lower", Moves: "wall_s @ paper-repro"},
	{Name: "expt.fig5_s", Unit: "s", Better: "lower", Moves: "wall_s @ paper-repro"},
	{Name: "expt.fig6_s", Unit: "s", Better: "lower", Moves: "wall_s @ paper-repro"},
	{Name: "expt.section3_s", Unit: "s", Better: "lower", Moves: "wall_s @ paper-repro"},
	{Name: "expt.section4_s", Unit: "s", Better: "lower", Moves: "wall_s @ paper-repro"},
	{Name: "expt.traces_s", Unit: "s", Better: "lower", Moves: "wall_s @ paper-repro"},
	{Name: "expt.plan_s", Unit: "s", Better: "lower", Moves: "wall_s @ paper-repro"},

	{Name: "obs.trace_overhead_frac", Unit: "frac", Better: "lower", Moves: "none; it must stay small"},
}

// counterMetrics maps per-layer count metrics to the internal/obs counter
// whose per-pass delta they report.
var counterMetrics = map[string]string{
	"linalg.csr_builds":             "linalg_csr_builds_total",
	"linalg.gs_sweeps":              "linalg_gs_sweeps_total",
	"markov.solves_dense":           "markov_solve_dense_total",
	"markov.solves_sparse":          "markov_solve_sparse_total",
	"markov.solves_kron":            "markov_solve_kron_total",
	"markov.kron_matvecs":           "markov_kron_matvecs_total",
	"markov.krylov_iters":           "markov_krylov_iters_total",
	"markov.uniformization_matvecs": "markov_uniformization_matvecs_total",
	"sim.async_events":              "sim_async_events_total",
	"sim.sync_cycles":               "sim_sync_cycles_total",
	"sim.prp_probes":                "sim_prp_probes_total",
	"mc.blocks":                     "mc_blocks_total",
	"mc.map_items":                  "mc_map_items_total",
	"chaos.cells":                   "chaos_cells_total",
	"chaos.draws":                   "chaos_draws_total",
	"guard.blocks":                  "guard_blocks_total",
	"guard.fallbacks":               "guard_fallbacks_total",
	"guard.rejects":                 "guard_rejects_total",
}

// spanMetrics maps per-layer time metrics to the span names whose summed
// duration within one pass they report (median over the traced passes).
var spanMetrics = map[string][]string{
	"rbmodel.moments_s":            {spanMomentsBelow, spanMomentsPast},
	"rbmodel.moments_below_wall_s": {spanMomentsBelow},
	"rbmodel.moments_past_wall_s":  {spanMomentsPast},
	"rbmodel.transient_s":          {spanDeadline, spanQuantile},
	"rbmodel.quantile_s":           {spanQuantile},
	"expt.table1_s":                {"expt.table1"},
	"expt.fig5_s":                  {"expt.fig5"},
	"expt.fig6_s":                  {"expt.fig6"},
	"expt.section3_s":              {"expt.section3"},
	"expt.section4_s":              {"expt.section4"},
	"expt.traces_s":                {"expt.traces"},
	"expt.plan_s":                  {"expt.plan"},
}

// Span names shared by the workloads and the metric derivation.
const (
	spanPass         = "pass"
	spanSetup        = "setup"
	spanBuild        = "rbmodel.build"
	spanMomentsBelow = "rbmodel.moments.below_wall"
	spanMomentsPast  = "rbmodel.moments.past_wall"
	spanDeadline     = "rbmodel.deadline_miss"
	spanQuantile     = "rbmodel.quantile"
)
