package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	rb "recoveryblocks"
)

// errUsage marks command-line errors (unknown command, bad flags): main
// prints the usage text and exits 2 instead of 1.
var errUsage = errors.New("usage")

// errDegraded marks a run that completed — the full report was printed — but
// with some results quarantined or priced on fallback routes instead of their
// primary solvers. main exits 4 so pipelines can tell "finished, degraded"
// apart from failure (1) and timeout (3).
var errDegraded = errors.New("degraded results")

// Run executes one rbrepro command with the given arguments, writing every
// result to stdout. It is the whole CLI behind a testable seam: main only
// maps the returned error onto an exit code. A nil return means the command
// succeeded; for `xval` that includes every model↔simulator check passing
// (any disagreement is an error, so the process exits non-zero).
func Run(args []string, stdout io.Writer) error {
	return RunContext(context.Background(), args, stdout)
}

// RunContext is Run under an explicit context: cancellation (Ctrl-C in main,
// a test deadline) aborts the harness subcommands — xval, scenario, rare,
// chaos, plan — at the next work-item boundary, surfacing as an
// ErrBudget-classified error that main maps to exit code 3. The -timeout
// flag layers a deadline on top; -solver-fault N forces the first N attempts
// of every recovery block to fail, driving the whole run onto its fallback
// routes.
func RunContext(ctx context.Context, args []string, stdout io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("%w: missing command", errUsage)
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	// Flag-parse errors belong on stderr (via the returned error), never in
	// stdout where they would corrupt redirected reports; -h prints the flag
	// help to stdout and succeeds.
	var flagOut bytes.Buffer
	fs.SetOutput(&flagOut)
	quick := fs.Bool("quick", false, "use small Monte Carlo sizes (xval: the short grid)")
	seed := fs.Int64("seed", 1983, "random seed (xval: offsets the grid's pinned seeds)")
	workers := fs.Int("workers", 0, "Monte Carlo worker goroutines (0 = all CPUs; never changes results)")
	rhos := fs.String("rhos", "1,2,4", "comma-separated rho values (fig5)")
	maxn := fs.Int("maxn", 10, "largest process count (fig5)")
	exact := fs.Int("exact", 8, "solve the full model exactly up to this n (fig5)")
	points := fs.Int("points", 41, "grid points (fig6)")
	tmax := fs.Float64("tmax", 2.0, "time horizon (fig6)")
	tr := fs.Float64("tr", 0.05, "state-save cost t_r (prp)")
	lambda := fs.Float64("lambda", 2.0, "per-pair interaction rate (prp)")
	scheme := fs.String("scheme", "sync", "trace scheme: sync or prp")
	model := fs.String("model", "full", "graph model: full, symmetric or split")
	jsonOut := fs.Bool("json", false, "emit the machine-readable report (xval, scenario, rare, chaos)")
	specPath := fs.String("spec", "", "scenario spec file to run (scenario, rare, chaos)")
	family := fs.String("family", "", "built-in scenario family to run (scenario, rare)")
	strategyName := fs.String("strategy", "", "restrict the run to one registered recovery strategy (xval, scenario, rare)")
	table := fs.Bool("table", false, "also print the registry-driven comparison table (strategies)")
	ks := fs.String("k", "1,2,4", "comma-separated sync-every-k block periods (strategies -table)")
	rareGrid := fs.Bool("rare", false, "run only the rare-event overlap grid (xval)")
	kronGrid := fs.Bool("kron", false, "run only the matrix-free proof grid, n in {18, 20, 24} (xval)")
	method := fs.String("method", "", "rare estimator: auto, mc, is or split (rare)")
	reps := fs.Int("reps", 0, "replication budget per estimate; 0 = scenario default (rare)")
	tilt := fs.Float64("tilt", 0, "force the importance-sampling strength; 0 = adaptive (rare)")
	splits := fs.Int("splits", 0, "force the splitting level count; 0 = from the pilot (rare)")
	target := fs.Float64("target", 0, "required relative 95% CI half-width, e.g. 0.1; rows that miss it fail the run (rare)")
	corpus := fs.Int("corpus", 0, "generate a fixed-seed random scenario corpus of this size (chaos)")
	perturb := fs.String("perturb", "", `perturbation stacks, "|"-separated, layers "+"-composed, each "name[:magnitude]" (chaos)`)
	draws := fs.Int("draws", 0, "perturbed draws per (scenario, stack) cell; 0 = default (chaos)")
	threshold := fs.Float64("threshold", 0, "tolerated winner-flip probability per draw; 0 = default, negative = zero tolerance (chaos)")
	marginFloor := fs.Float64("margin-floor", 0, "lower bound of the knife-edge margin boundary; 0 = default, negative = disabled (chaos)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the command to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the command to this file")
	metricsPath := fs.String("metrics", "", `write the structured metrics run report (JSON) to this file; "-" means stderr`)
	metricsSummary := fs.Bool("metrics-summary", false, "print a human-readable metrics summary to stderr after the command")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the command; on expiry the run aborts at the next work-item boundary and exits 3 (xval, scenario, rare, chaos, plan)")
	solverFault := fs.Int("solver-fault", 0, "force the first N attempts of every recovery block to fail, driving all numerics onto fallback routes; degraded reports exit 4 (xval, scenario, rare, chaos)")
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			_, werr := io.Copy(stdout, &flagOut)
			return werr
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if *timeout < 0 {
		return fmt.Errorf("%w: -timeout must be positive", errUsage)
	}
	if *solverFault < 0 {
		return fmt.Errorf("%w: -solver-fault must be non-negative", errUsage)
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx = rb.WithSolverFaults(ctx, *solverFault)
	sz := rb.DefaultSizes()
	if *quick {
		sz = rb.QuickSizes()
	}
	sz.Seed = *seed
	sz.Workers = *workers

	// Profiling wraps whichever command runs below, so future performance
	// work on any experiment driver starts from a profile rather than a
	// guess: rbrepro <cmd> -cpuprofile cpu.out, then `go tool pprof`.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// Create eagerly: a bad path must fail the run up front (like
		// -cpuprofile), not after minutes of work with only a stderr note.
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // settle allocations so the heap profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "rbrepro: memprofile:", err)
			}
			f.Close()
		}()
	}

	var run func(string) error
	run = func(name string) error {
		switch name {
		case "table1":
			r, err := rb.Table1(sz)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, r.Format())
		case "fig5":
			var rs []float64
			for _, s := range strings.Split(*rhos, ",") {
				v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
				if err != nil {
					return fmt.Errorf("bad rho %q: %w", s, err)
				}
				rs = append(rs, v)
			}
			var ns []int
			for n := 2; n <= *maxn; n++ {
				ns = append(ns, n)
			}
			r, err := rb.Figure5(ns, rs, *exact, sz)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, r.Format())
		case "fig6":
			r, err := rb.Figure6(*points, *tmax, sz)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, r.Format())
		case "sync":
			r, err := rb.Section3(sz)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, r.Format())
		case "prp":
			r, err := rb.Section4([]int{2, 3, 4, 6, 8}, *tr, *lambda, sz)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, r.Format())
		case "domino":
			r, err := rb.Figure1Domino(sz.Seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, r.Format())
		case "trace":
			var r *rb.TraceResult
			var err error
			switch *scheme {
			case "sync":
				r, err = rb.Figure7SyncTrace(sz.Seed)
			case "prp":
				r, err = rb.Figure8PRPTrace(sz.Seed)
			default:
				return fmt.Errorf("unknown scheme %q (want sync or prp)", *scheme)
			}
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, r.Format())
		case "graph":
			g, err := rb.ModelGraphs()
			if err != nil {
				return err
			}
			switch *model {
			case "full":
				fmt.Fprintln(stdout, g.FullDOT)
			case "symmetric":
				fmt.Fprintln(stdout, g.SymmetricDOT)
			case "split":
				fmt.Fprintln(stdout, g.SplitDOT)
			default:
				return fmt.Errorf("unknown model %q (want full, symmetric or split)", *model)
			}
		case "plan":
			// Extension beyond the paper's evaluation: the Section 1 open
			// question (optimal synchronization interval) and the Section 5
			// deadline argument, quantified.
			mu := []float64{1, 1, 1}
			fmt.Fprintln(stdout, "Design aids (extensions; see DESIGN.md and EXPERIMENTS.md)")
			fmt.Fprintln(stdout, "\nOptimal synchronization interval, mu = (1,1,1):")
			fmt.Fprintln(stdout, "theta (error rate) | tau* | overhead fraction")
			for _, theta := range []float64{0.001, 0.01, 0.1, 0.5} {
				tau, over, err := rb.OptimalSyncInterval(mu, theta)
				if err != nil {
					return err
				}
				fmt.Fprintf(stdout, "  %6.3f           | %7.3f | %.4f\n", theta, tau, over)
			}
			fmt.Fprintln(stdout, "\nDeadline risk under asynchronous RBs (rho = 2, mu = 1, deadline d = 3):")
			fmt.Fprintln(stdout, "n | P(X > d) | 99th percentile of X | eta*E[X] (tail decay rate)")
			for n := 2; n <= 7; n++ {
				m, err := rb.NewAsyncModel(rb.UniformParams(n, 1, 2/float64(n-1)))
				if err != nil {
					return err
				}
				p, err := m.DeadlineMissProbCtx(ctx, 3)
				if err != nil {
					return err
				}
				q, err := m.QuantileXCtx(ctx, 0.99)
				if err != nil {
					return err
				}
				eta, _, err := m.DecayRateXCtx(ctx)
				if err != nil {
					return err
				}
				mean, err := m.MeanXCtx(ctx)
				if err != nil {
					return err
				}
				fmt.Fprintf(stdout, "%d | %.4f   | %8.2f | %.4f\n", n, p, q, eta*mean)
			}
		case "xval":
			return runXVal(ctx, stdout, *quick, *seed, *workers, *jsonOut, *strategyName, *rareGrid, *kronGrid)
		case "scenario":
			return runScenario(ctx, stdout, *specPath, *family, *quick, *seed, *workers, *jsonOut, *strategyName)
		case "rare":
			return runRare(ctx, stdout, rareArgs{
				specPath: *specPath, family: *family, quick: *quick,
				seed: *seed, workers: *workers, jsonOut: *jsonOut,
				strategyName: *strategyName, method: *method, reps: *reps,
				tilt: *tilt, splits: *splits, target: *target,
			})
		case "strategies":
			return runStrategies(stdout, *table, *ks)
		case "info":
			return runInfo(stdout, *jsonOut)
		case "chaos":
			return runChaos(ctx, stdout, *specPath, *corpus, *perturb, *seed, *workers, *jsonOut, *draws, *threshold, *marginFloor)
		case "all":
			for _, sub := range []string{"table1", "fig5", "fig6", "sync", "prp", "domino", "plan"} {
				fmt.Fprintf(stdout, "================ %s ================\n", sub)
				if err := run(sub); err != nil {
					return err
				}
			}
			fmt.Fprintln(stdout, "================ trace (fig 7) ================")
			r7, err := rb.Figure7SyncTrace(sz.Seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, r7.Format())
			fmt.Fprintln(stdout, "================ trace (fig 8) ================")
			r8, err := rb.Figure8PRPTrace(sz.Seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, r8.Format())
		default:
			return fmt.Errorf("%w: unknown command %q", errUsage, name)
		}
		return nil
	}

	// Observability wraps whichever command runs: -metrics enables the
	// registry, runs the command under a "cmd/<name>" span, and writes the
	// structured report afterwards — to a file or stderr, never stdout, so
	// redirected reports and goldens stay byte-identical with and without
	// metrics. The report is written even when the command fails (a failing
	// xval sweep still has accounting worth keeping); the command's own error
	// wins over a report-write error.
	if *metricsPath == "" && !*metricsSummary {
		return run(cmd)
	}
	reg := rb.MetricsEnable()
	defer rb.MetricsDisable()
	err := func() error {
		defer rb.StartMetricsSpan("cmd/" + cmd).End()
		return run(cmd)
	}()
	if werr := writeMetrics(reg, *metricsPath, *metricsSummary); werr != nil && err == nil {
		err = werr
	}
	return err
}

// writeMetrics emits the run report the -metrics/-metrics-summary flags asked
// for. Both surfaces avoid stdout by design: the JSON report goes to the
// named file ("-" = stderr) and the summary trailer always to stderr.
func writeMetrics(reg *rb.MetricsRegistry, path string, summary bool) error {
	if path != "" {
		if path == "-" {
			if err := reg.WriteJSON(os.Stderr); err != nil {
				return fmt.Errorf("metrics: %w", err)
			}
		} else {
			f, err := os.Create(path)
			if err != nil {
				return fmt.Errorf("metrics: %w", err)
			}
			werr := reg.WriteJSON(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return fmt.Errorf("metrics: %w", werr)
			}
		}
	}
	if summary {
		fmt.Fprint(os.Stderr, reg.Summary())
	}
	return nil
}

// runStrategies prints the recovery-discipline catalog — one line per
// registered strategy — and, under -table, the registry-driven comparison
// pricing every discipline (sync-every-k once per -k period) on the
// canonical workload.
func runStrategies(stdout io.Writer, table bool, ksCSV string) error {
	fmt.Fprintln(stdout, "Registered recovery strategies:")
	for _, info := range rb.StrategyCatalog() {
		fmt.Fprintf(stdout, "  %-14s %s\n", info.Name, info.Description)
	}
	if !table {
		return nil
	}
	var ks []int
	for _, s := range strings.Split(ksCSV, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return fmt.Errorf("bad -k value %q: %w", s, err)
		}
		ks = append(ks, v)
	}
	cmp, err := rb.CompareStrategies(ks)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, cmp.Format())
	return nil
}

// runScenario loads a workload — a spec file or a built-in family — runs the
// batch engine, and prints the advisor report. Any model↔simulator
// cross-check disagreement is returned as an error so the process exits
// non-zero: advice whose numbers the simulators dispute must not look like
// success in a pipeline.
func runScenario(ctx context.Context, stdout io.Writer, specPath, family string, quick bool, seed int64, workers int, jsonOut bool, strategyName string) error {
	var scs []rb.Scenario
	var err error
	switch {
	case specPath != "" && family != "":
		return fmt.Errorf("%w: give -spec or -family, not both", errUsage)
	case specPath != "":
		// -quick is a family knob: spec files carry their own replication
		// budgets as data.
		data, rerr := os.ReadFile(specPath)
		if rerr != nil {
			return rerr
		}
		scs, err = rb.LoadScenarios(data)
	case family != "":
		scs, err = rb.DefaultScenarioFamily(family, quick)
	default:
		return fmt.Errorf("%w: scenario needs -spec <file> or -family <name> (built-ins: %s)",
			errUsage, strings.Join(rb.ScenarioFamilies(), ", "))
	}
	if err != nil {
		return err
	}
	// Spec and family seeds are pinned for reproducibility; a non-default
	// -seed shifts them all, replicating the whole batch on disjoint
	// substreams (the same convention as xval).
	if seed != 1983 {
		for i := range scs {
			scs[i].Seed += seed - 1983
		}
	}
	// -strategy narrows every scenario to one registered discipline: the
	// advisor prices and cross-checks just that strategy, whatever the spec
	// or family requested.
	if strategyName != "" {
		st, err := rb.ParseScenarioStrategy(strategyName)
		if err != nil {
			return err
		}
		for i := range scs {
			scs[i].Strategies = []rb.ScenarioStrategy{st}
		}
	}
	rep, err := rb.RunScenarios(scs, rb.ScenarioOptions{Workers: workers, Ctx: ctx})
	if err != nil {
		return err
	}
	if jsonOut {
		b, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(b))
	} else {
		fmt.Fprintln(stdout, rep.Format())
	}
	if rep.Failures > 0 {
		return fmt.Errorf("scenario: %d cross-check disagreement(s)", rep.Failures)
	}
	if n := rep.Degraded(); n > 0 {
		return fmt.Errorf("%w: scenario: %d scenario(s) quarantined or advised with fallback-route confidence", errDegraded, n)
	}
	return nil
}

// runChaos sweeps ranking stability: the advisor's clean ranking of every
// scenario against many perturbed draws per adversary stack. The scenarios
// come from a spec file (-spec) or a fixed-seed random corpus (-corpus N).
// An unstable verdict — a significant winner flip on a confidently-won
// scenario — is returned as an error so the process exits non-zero: advice
// that does not survive realistic faults must not look like success in CI.
func runChaos(ctx context.Context, stdout io.Writer, specPath string, corpus int, perturb string, seed int64, workers int, jsonOut bool, draws int, threshold, marginFloor float64) error {
	var scs []rb.Scenario
	var err error
	switch {
	case specPath != "" && corpus > 0:
		return fmt.Errorf("%w: give -spec or -corpus, not both", errUsage)
	case specPath != "":
		data, rerr := os.ReadFile(specPath)
		if rerr != nil {
			return rerr
		}
		scs, err = rb.LoadScenarios(data)
		if err != nil {
			return err
		}
		// Spec seeds are pinned; a non-default -seed shifts them all onto
		// disjoint substreams (the same convention as scenario and xval).
		if seed != 1983 {
			for i := range scs {
				scs[i].Seed += seed - 1983
			}
		}
	case corpus > 0:
		// The corpus is derived from -seed directly: same seed, same corpus,
		// whatever the size of previous runs.
		scs, err = rb.ChaosCorpus(corpus, seed)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: chaos needs -spec <file> or -corpus <count>", errUsage)
	}

	opt := rb.ChaosOptions{
		Draws:         draws,
		FlipThreshold: threshold,
		MarginFloor:   marginFloor,
		Workers:       workers,
		Ctx:           ctx,
	}
	if perturb != "" {
		opt.Stacks, err = rb.ParseChaosStacks(perturb)
		if err != nil {
			return err
		}
	}
	rep, err := rb.RunChaos(scs, opt)
	if err != nil {
		return err
	}
	if jsonOut {
		b, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(b))
	} else {
		fmt.Fprintln(stdout, rep.Format())
	}
	if rep.Unstable > 0 {
		return fmt.Errorf("chaos: %d unstable cell(s) — advised winner does not survive perturbation", rep.Unstable)
	}
	if rep.Degraded > 0 {
		return fmt.Errorf("%w: chaos: %d perturbed advisement(s) priced on fallback routes", errDegraded, rep.Degraded)
	}
	return nil
}

// rareArgs bundles the rare subcommand's flag values; the flag set has grown
// past what a readable parameter list carries.
type rareArgs struct {
	specPath, family      string
	quick, jsonOut        bool
	seed                  int64
	workers, reps, splits int
	strategyName, method  string
	tilt, target          float64
}

// runRare drives the rare-event engine over a scenario batch — a spec file,
// a built-in family, or the deadline-tail family by default — and prints the
// sweep: each scenario × strategy row pairs the exact analytic deadline-miss
// probability (where a solver answers) with the variance-reduced estimate.
// A row that misses the -target precision is returned as an error so the
// process exits non-zero: an estimate too wide to trust must not look like
// success in a pipeline.
func runRare(ctx context.Context, stdout io.Writer, a rareArgs) error {
	var scs []rb.Scenario
	var err error
	switch {
	case a.specPath != "" && a.family != "":
		return fmt.Errorf("%w: give -spec or -family, not both", errUsage)
	case a.specPath != "":
		data, rerr := os.ReadFile(a.specPath)
		if rerr != nil {
			return rerr
		}
		scs, err = rb.LoadScenarios(data)
	default:
		// The deadline-tail family is the natural default: it is the one
		// built to walk deadlines down into the ≤ 1e−6 regime.
		fam := a.family
		if fam == "" {
			fam = "deadline-tail"
		}
		scs, err = rb.DefaultScenarioFamily(fam, a.quick)
	}
	if err != nil {
		return err
	}
	// Pinned seeds shift under a non-default -seed, replicating the whole
	// sweep on disjoint substreams (the same convention as scenario and
	// xval); -strategy narrows every scenario to one discipline.
	if a.seed != 1983 {
		for i := range scs {
			scs[i].Seed += a.seed - 1983
		}
	}
	if a.strategyName != "" {
		st, err := rb.ParseScenarioStrategy(a.strategyName)
		if err != nil {
			return err
		}
		for i := range scs {
			scs[i].Strategies = []rb.ScenarioStrategy{st}
		}
	}
	opt := rb.RareOptions{
		Method:  rb.RareMethod(a.method),
		Reps:    a.reps,
		Tilt:    a.tilt,
		Splits:  a.splits,
		Target:  a.target,
		Workers: a.workers,
		Ctx:     ctx,
	}
	rep, err := rb.RareSweep(scs, opt)
	if err != nil {
		return err
	}
	if a.jsonOut {
		b, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(b))
	} else {
		fmt.Fprintln(stdout, rep.Format())
	}
	if rep.Misses > 0 {
		return fmt.Errorf("rare: %d estimate(s) missed the precision target %g", rep.Misses, a.target)
	}
	return nil
}

// runXVal sweeps the cross-validation grid and reports; any model↔simulator
// disagreement is returned as an error so the process exits non-zero.
// -strategy restricts the checks to one registered discipline; for
// sync-every-k — whose cells must opt in with a block period — it selects
// the discipline's dedicated grid. -rare swaps in the rare-event overlap
// grid and runs only the rare check family: the focused gate proving the
// variance-reduced estimators against the exact solvers.
func runXVal(ctx context.Context, stdout io.Writer, quick bool, seed int64, workers int, jsonOut bool, strategyName string, rareOnly, kronOnly bool) error {
	grid := rb.XValFullGrid()
	if quick {
		grid = rb.XValShortGrid()
	}
	if rareOnly {
		grid = rb.XValRareGrid()
	}
	if kronOnly {
		if rareOnly {
			return fmt.Errorf("rbrepro: -kron and -rare select disjoint grids")
		}
		grid = rb.XValKronGrid()
	}
	var opt rb.XValOptions
	opt.Workers = workers
	opt.RareOnly = rareOnly
	opt.Ctx = ctx
	if strategyName != "" {
		st, err := rb.ParseScenarioStrategy(strategyName)
		if err != nil {
			return err
		}
		opt.Strategies = []string{string(st)}
		if st == rb.ScenarioSyncEveryK && !rareOnly && !kronOnly {
			grid = rb.XValEveryKGrid()
		}
	}
	if kronOnly && strategyName == "" {
		// Every kron cell pays 2^n-vector exact solves; without an explicit
		// -strategy, run only the async family so the other disciplines do not
		// each repeat the expensive model build.
		opt.Strategies = []string{string(rb.ScenarioAsync)}
	}
	// The grids pin per-scenario seeds so runs are reproducible; a
	// non-default -seed shifts them all, giving an independent replication
	// of the whole sweep.
	if seed != 1983 {
		for i := range grid {
			grid[i].Seed += seed - 1983
		}
	}
	rep, err := rb.CrossValidate(grid, opt)
	if err != nil {
		return err
	}
	if jsonOut {
		b, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(b))
	} else {
		fmt.Fprintln(stdout, rep.Format())
	}
	if rep.Failures > 0 {
		return fmt.Errorf("xval: %d model/simulator disagreement(s)", rep.Failures)
	}
	return nil
}
