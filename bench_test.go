package recoveryblocks

import (
	"runtime"
	"testing"

	"recoveryblocks/internal/rbmodel"
	"recoveryblocks/internal/sim"
	"recoveryblocks/internal/synch"
)

// One benchmark per table/figure of the paper's evaluation, each running the
// exact code path that regenerates the artifact (scaled-down Monte Carlo so
// a full -bench=. pass stays in the seconds range). Absolute times are
// machine-dependent; the benches exist so `go test -bench` regenerates every
// artifact and reports the cost of doing so.

// BenchmarkTable1 regenerates Table 1: exact chain solves, Y_d split chains,
// and the DES estimate for all five parameter cases.
func BenchmarkTable1(b *testing.B) {
	sz := QuickSizes()
	for i := 0; i < b.N; i++ {
		r, err := Table1(sz)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 5 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFigure1Domino regenerates the Figure 1 rollback-propagation
// scenario on the step-loop runtime, including the trace rendering.
func BenchmarkFigure1Domino(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Figure1Domino(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if r.Metrics.Recoveries < 1 {
			b.Fatal("no recovery")
		}
	}
}

// BenchmarkFigure2ModelBuild regenerates the full Figure 2 chain (n = 3)
// and its absorption solve.
func BenchmarkFigure2ModelBuild(b *testing.B) {
	p := rbmodel.Uniform(3, 1, 1)
	for i := 0; i < b.N; i++ {
		m, err := rbmodel.NewAsync(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.MeanX(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3SymmetricBuild regenerates the lumped Figure 3 chain at a
// scale the full model cannot reach (n = 64).
func BenchmarkFigure3SymmetricBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := rbmodel.NewSymmetric(64, 1, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.MeanX(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4SplitChain regenerates the Y_d split chain of Figure 4 and
// its E[L_t] visit counting.
func BenchmarkFigure4SplitChain(b *testing.B) {
	p := rbmodel.Table1Cases()[1].Params
	for i := 0; i < b.N; i++ {
		sc, err := rbmodel.NewSplitChain(p, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sc.MeanL(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Sweep regenerates the Figure 5 sweep (exact models up to
// n = 6, lumped beyond).
func BenchmarkFigure5Sweep(b *testing.B) {
	ns := []int{2, 3, 4, 5, 6, 8, 12, 24}
	for i := 0; i < b.N; i++ {
		r, err := Figure5(ns, []float64{1.0, 2.0}, 6, Sizes{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Points) != 2*len(ns) {
			b.Fatal("wrong point count")
		}
	}
}

// BenchmarkFigure6Density regenerates the Figure 6 density curves
// (uniformization over the 9-state chains plus a simulated histogram).
func BenchmarkFigure6Density(b *testing.B) {
	sz := QuickSizes()
	for i := 0; i < b.N; i++ {
		r, err := Figure6(41, 2.0, sz)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Series) != 3 {
			b.Fatal("wrong series count")
		}
	}
}

// BenchmarkFigure7SyncTrace regenerates the Figure 7 conversation scenario.
func BenchmarkFigure7SyncTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Figure7SyncTrace(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8PRPTrace regenerates the Figure 8 PRP scenario.
func BenchmarkFigure8PRPTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Figure8PRPTrace(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSection3SyncLoss regenerates the Section 3 loss analysis.
func BenchmarkSection3SyncLoss(b *testing.B) {
	sz := QuickSizes()
	for i := 0; i < b.N; i++ {
		if _, err := Section3(sz); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSection4PRPOverhead regenerates the Section 4 trade-off table.
func BenchmarkSection4PRPOverhead(b *testing.B) {
	sz := QuickSizes()
	for i := 0; i < b.N; i++ {
		if _, err := Section4([]int{2, 3, 4}, 0.05, 2.0, sz); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Parallel Monte Carlo engine: sequential vs sharded ----

// workerCounts are the pool sizes the scaling benchmarks sweep: sequential,
// a couple of fixed intermediate sizes, and the full machine. Results are
// bit-identical across all of them (see internal/mc); only time may differ.
func workerCounts() []int {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkTable1Workers regenerates Table 1 at DefaultSizes' Monte Carlo
// effort per worker count — the acceptance benchmark for the sharded
// engine: at 4+ cores the sharded run must beat workers=1 by ≥ 2×.
func BenchmarkTable1Workers(b *testing.B) {
	sz := DefaultSizes()
	for _, w := range workerCounts() {
		sz.Workers = w
		b.Run(benchName("workers", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := Table1(sz)
				if err != nil {
					b.Fatal(err)
				}
				if len(r.Rows) != 5 {
					b.Fatal("wrong row count")
				}
			}
		})
	}
}

// BenchmarkSimulateAsyncWorkers measures the DES throughput scaling of a
// single SimulateAsync call across pool sizes.
func BenchmarkSimulateAsyncWorkers(b *testing.B) {
	p := rbmodel.Uniform(3, 1, 1)
	for _, w := range workerCounts() {
		w := w
		b.Run(benchName("workers", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := sim.SimulateAsync(p, sim.AsyncOptions{Intervals: 100000, Seed: 1983, Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if r.Intervals != 100000 {
					b.Fatal("wrong interval count")
				}
			}
		})
	}
}

// BenchmarkSimulatePRPWorkers measures the PRP probe-stream scaling.
func BenchmarkSimulatePRPWorkers(b *testing.B) {
	p := rbmodel.Uniform(4, 1, 2)
	for _, w := range workerCounts() {
		w := w
		b.Run(benchName("workers", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := sim.PRPOptions{Probes: 50000, Seed: 1983, Warmup: 100, PLocal: 0.5, Workers: w}
				if _, err := sim.SimulatePRP(p, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulateLossWorkers measures the Section 3 Monte Carlo scaling.
func BenchmarkSimulateLossWorkers(b *testing.B) {
	mu := []float64{1.5, 1.0, 0.5}
	for _, w := range workerCounts() {
		w := w
		b.Run(benchName("workers", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := synch.SimulateLossWorkers(mu, 500000, 1983, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScenarioRunnerWorkers measures the scenario batch runner fanning
// the default uniform family grid (9 scenarios, quick replication budgets,
// every strategy cross-checked) across 1, 2 and all workers. Reports are
// bit-identical across all pool sizes; only time may differ. This is the
// BENCH_scenario.json artifact populating the perf trajectory of the
// declarative workload layer.
func BenchmarkScenarioRunnerWorkers(b *testing.B) {
	grid, err := DefaultScenarioFamily("uniform", true)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range workerCounts() {
		w := w
		b.Run(benchName("workers", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := RunScenarios(grid, ScenarioOptions{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Failures != 0 {
					b.Fatalf("%d cross-check failures", rep.Failures)
				}
			}
		})
	}
}

// BenchmarkAdvise measures one advisor pricing pass (pure model evaluation:
// chain solve, closed forms, optimal-interval search) — the cost of serving
// one "which strategy?" query without cross-checks.
func BenchmarkAdvise(b *testing.B) {
	scs, err := LoadScenarios([]byte(`{
	  "version": 1,
	  "scenarios": [{
	    "name": "bench", "mu": [1, 1, 1, 1], "rho": 2,
	    "sync_interval": "optimal", "checkpoint_cost": 0.05,
	    "deadline": 4, "error_rate": 0.1, "reps": 1000
	  }]
	}`))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		adv, err := Advise(scs[0])
		if err != nil {
			b.Fatal(err)
		}
		if adv.Winner == "" {
			b.Fatal("no winner")
		}
	}
}

// ---- Ablation / micro benchmarks for the design choices in DESIGN.md ----

// BenchmarkAbsorptionSolveDirect measures the dense LU absorption solve on
// the full model at growing n (the 2^n scaling DESIGN.md calls out). Rates
// follow the Figure 5 convention (μ = 1, λ = ρ/(n−1) at ρ = 2) so the
// problem difficulty is comparable across n. The chain is built by
// rbmodel.EnumerateAsync and the dense route invoked explicitly: MeanX
// answers in closed form at every n without enumerating, and this
// benchmark exists to keep the dense trajectory visible (see
// BenchmarkHotPaths for the gated dense-vs-sparse pair).
func BenchmarkAbsorptionSolveDirect(b *testing.B) {
	for _, n := range []int{4, 6, 8, 10} {
		p := rbmodel.Uniform(n, 1, 2/float64(n-1))
		b.Run(benchName("n", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := rbmodel.EnumerateAsync(p)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := c.AbsorptionMomentsDense(0); err != nil { // state 0 = S_r
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAbsorptionSolveIterative measures the Gauss–Seidel alternative on
// the same fixed-ρ instances (its advantage is memory: no dense 2^n×2^n
// factorization; its weakness is slow convergence as λ/μ grows).
func BenchmarkAbsorptionSolveIterative(b *testing.B) {
	for _, n := range []int{4, 6, 8, 10} {
		p := rbmodel.Uniform(n, 1, 2/float64(n-1))
		c, err := rbmodel.EnumerateAsync(p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(benchName("n", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.MeanAbsorptionTimeIterative(0, 1e-10, 2000000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatedInterval measures the DES cost per recovery-line
// interval.
func BenchmarkSimulatedInterval(b *testing.B) {
	p := rbmodel.Uniform(3, 1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.SimulateAsync(p, sim.AsyncOptions{Intervals: 100, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyncLossClosedForm measures the 2^n inclusion–exclusion E[Z].
func BenchmarkSyncLossClosedForm(b *testing.B) {
	mu := make([]float64, 16)
	for i := range mu {
		mu[i] = 1 + float64(i)/16
	}
	for i := 0; i < b.N; i++ {
		if _, err := synch.MeanLoss(mu); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuntimeMessageRoundtrip measures the step-loop runtime's cost
// for a send/receive pair through the logging router.
func BenchmarkRuntimeMessageRoundtrip(b *testing.B) {
	const k = 200
	p0 := NewBuilder()
	p1 := NewBuilder()
	for i := 0; i < k; i++ {
		p0.Send(1, "m", func(c *Ctx) Value { return int64(1) })
		p1.Recv(0, "m", func(c *Ctx, v Value) { c.State.(*Counter).V += v.(int64) })
	}
	prog0, prog1 := p0.MustBuild(), p1.MustBuild()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(Config{Seed: int64(i)}, []Program{prog0, prog1},
			[]State{&Counter{}, &Counter{}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkChaosCorpus measures generating the CI-gate corpus: 200 random
// scenario specs drawn, encoded, and re-read through the strict decoder (the
// validity oracle). Pure CPU, no simulation.
func BenchmarkChaosCorpus(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scs, err := ChaosCorpus(200, 1983)
		if err != nil {
			b.Fatal(err)
		}
		if len(scs) != 200 {
			b.Fatal("wrong corpus size")
		}
	}
}

// BenchmarkChaosStabilityWorkers measures the stability sweep — clean advice
// plus Draws perturbed advisor solves per (scenario, stack) cell — fanning a
// 20-scenario corpus across 1, 2 and all workers. Reports are bit-identical
// across all pool sizes; only time may differ. This is the BENCH_chaos.json
// artifact tracking the cost of the chaos CI gate.
func BenchmarkChaosStabilityWorkers(b *testing.B) {
	scs, err := ChaosCorpus(20, 1983)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range workerCounts() {
		w := w
		b.Run(benchName("workers", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := RunChaos(scs, ChaosOptions{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Unstable != 0 {
					b.Fatalf("%d unstable cells", rep.Unstable)
				}
			}
		})
	}
}
