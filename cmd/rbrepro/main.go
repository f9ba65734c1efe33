// Command rbrepro regenerates the tables and figures of Shin & Lee (1983),
// "Analysis of Backward Error Recovery for Concurrent Processes with
// Recovery Blocks", and cross-validates the repository's models against its
// simulators.
//
// Usage:
//
//	rbrepro table1                      # Table 1: E(X), E(L_i), five cases
//	rbrepro fig5  [-rhos 1,2,4] [-maxn 10] [-exact 8]
//	rbrepro fig6  [-points 41] [-tmax 2]
//	rbrepro sync                        # Section 3: computation loss CL
//	rbrepro prp   [-tr 0.05] [-lambda 2]
//	rbrepro domino                      # Figure 1 scenario on the runtime
//	rbrepro trace -scheme sync|prp      # Figures 7 / 8 runtime traces
//	rbrepro graph -model full|symmetric|split   # Figures 2-4 as DOT
//	rbrepro plan                        # design aids beyond the paper
//	rbrepro strategies [-table [-k 1,2,4]]  # the recovery-discipline registry
//	rbrepro info  [-json]               # build info, limits, registries, metric catalog
//	rbrepro xval  [-json] [-strategy S] [-rare] [-kron]  # model vs simulator cross-validation
//	rbrepro scenario -spec f | -family n [-json] [-strategy S]
//	rbrepro rare  [-spec f | -family n] [-method auto|mc|is|split] [-target r] [-json]
//	rbrepro chaos -spec f | -corpus N [-perturb stacks] [-json]
//	rbrepro all                         # every experiment above
//
// Global flags: -quick (small Monte Carlo sizes; for xval, the short grid),
// -seed N, -workers N (Monte Carlo worker-pool size; 0 = all CPUs; results
// are bit-identical for every value).
//
// Resilience: every numerical route runs inside an acceptance-tested
// recovery block (primary solver plus fallback alternates, panic-isolated).
// -timeout d bounds a harness run's wall clock — on expiry (or Ctrl-C) the
// sweep stops at the next work-item boundary and the process exits 3.
// -solver-fault N forces the first N attempts of every recovery block to
// fail, driving all numerics onto their fallback routes: the run completes,
// reports carry confidence labels and quarantine stubs instead of crashes,
// and the process exits 4 to mark the degraded results.
//
// Observability: -metrics <path|-> enables the internal/obs layer for the
// run and writes the structured JSON metrics report to the file (or stderr
// with "-"); -metrics-summary prints a compact human-readable trailer to
// stderr. Both leave stdout untouched, so redirected reports and goldens are
// byte-identical with and without metrics; the report's deterministic
// section is itself bit-identical across worker counts and same-seed reruns
// (timings and scheduling facts are quarantined in the runtime section).
//
// chaos runs the fault-injection stability harness: the advisor's clean
// ranking of each scenario (from a spec file or a fixed-seed random corpus)
// is compared against many perturbed draws per adversary (-perturb selects
// the perturbation stacks; see the catalog in internal/chaos), and the
// process exits non-zero when a confidently-won ranking flips significantly
// more often than the tolerated threshold.
//
// xval sweeps the declarative scenario grid of internal/xval, printing one
// row per model↔simulator comparison (the -json flag emits the
// machine-readable report instead), and exits non-zero on any disagreement —
// the statistical oracle CI runs against every change. Both xval and
// scenario accept -strategy to restrict the run to one registered recovery
// discipline (see `rbrepro strategies` for the catalog); for sync-every-k,
// xval selects the discipline's dedicated grid. -rare swaps in the
// rare-event overlap grid: variance-reduced deadline-miss estimates judged
// against the exact solvers in the ≤ 1e−6 regime. -kron swaps in the
// matrix-free proof grid (n ∈ {18, 20, 24}, async family by default): exact
// Kronecker answers at sizes no materialized chain reaches, judged
// against the event-driven simulator.
//
// rare runs the rare-event engine over a scenario batch (default: the
// deadline-tail family, which walks deadlines into the ≤ 1e−6 regime),
// printing one row per scenario × strategy with the exact analytic miss
// probability next to the variance-reduced estimate. -method forces an
// estimator past the auto-router, -tilt and -splits force their knobs,
// -reps sets the budget, and -target r demands a relative 95% CI half-width
// of r on every row — the process exits non-zero when any row misses it.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

// Exit codes: 0 success; 1 failure (a cross-check disagreement, an unstable
// chaos cell, a missed precision target, any hard error); 2 usage; 3 the run
// was cut short by -timeout or Ctrl-C; 4 the run completed but degraded —
// quarantined scenarios or advice priced on fallback routes (see
// -solver-fault). Pipelines gate on 1, archive partial reports on 3, and
// treat 4 as "results present, trust reduced".
func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := RunContext(ctx, os.Args[1:], os.Stdout)
	switch {
	case err == nil:
	case errors.Is(err, errUsage):
		usage(os.Stderr)
		if msg := err.Error(); msg != errUsage.Error() {
			fmt.Fprintln(os.Stderr, "rbrepro:", msg)
		}
		os.Exit(2)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "rbrepro:", err)
		os.Exit(3)
	case errors.Is(err, errDegraded):
		fmt.Fprintln(os.Stderr, "rbrepro:", err)
		os.Exit(4)
	default:
		fmt.Fprintln(os.Stderr, "rbrepro:", err)
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `rbrepro — reproduce Shin & Lee (1983) tables and figures
commands: table1 fig5 fig6 sync prp domino trace graph plan strategies info xval scenario rare chaos all
flags:    -quick -seed N -workers N -metrics path|- -metrics-summary -timeout d -solver-fault N;
          fig5: -rhos -maxn -exact; fig6: -points -tmax;
          prp: -tr -lambda; trace: -scheme sync|prp; graph: -model full|symmetric|split;
          strategies: -table -k 1,2,4; info: -json; xval: -json -strategy S -rare -kron;
          scenario: -spec f | -family n, -json -strategy S;
          rare: -spec f | -family n, -method auto|mc|is|split -reps N -tilt b -splits L -target r -json;
          chaos: -spec f | -corpus N, -perturb stacks -draws N -threshold p -margin-floor m -json`)
}
