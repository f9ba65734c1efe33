package xval

// The declarative scenario grids. Both grids sweep the axes the paper's
// evaluation varies — process count n, recovery-point rates μ (uniform and
// the asymmetric Table 1 vectors), interaction rate λ at fixed ρ = 2λ·C(n,2)/Σμ,
// synchronization interval τ, and deadline d — at fixed seeds, so a grid run
// is exactly reproducible and can be pinned by golden files.

// ShortGrid is the deterministic smoke grid: small replication budgets, a
// few seconds of CPU, run by `go test ./internal/xval` and `rbrepro xval
// -quick`. It covers every simulator/model pair at least twice (a uniform
// and an asymmetric scenario) without aiming for tight intervals.
func ShortGrid() []Scenario {
	return []Scenario{
		{
			// The paper's canonical case: Table 1 case 1 / Figure 5 at ρ = 2.
			Name: "n3-uniform-rho2", Mu: []float64{1, 1, 1}, Lambda: 1,
			SyncThreshold: 1, Deadline: 3, Reps: 6000, Seed: 1983,
		},
		{
			// Table 1 case 2: asymmetric rates exercise the per-process L_i
			// and the non-lumpable chain.
			Name: "n3-asym-rho2", Mu: []float64{1.5, 1.0, 0.5}, Lambda: 1,
			SyncThreshold: 2, Deadline: 4, Reps: 6000, Seed: 2083,
		},
		{
			// Smallest interacting system; light coupling.
			Name: "n2-light", Mu: []float64{1, 2}, Lambda: 0.5,
			SyncThreshold: 0.5, Deadline: 2, Reps: 6000, Seed: 2183,
		},
		{
			// Four processes at ρ = 2 (λ = ρ/(n−1)): a larger state space
			// (17 exact states) on the same short budget.
			Name: "n4-uniform-rho2", Mu: []float64{1, 1, 1, 1}, Lambda: 2.0 / 3.0,
			SyncThreshold: 1, Deadline: 4, Reps: 6000, Seed: 2283,
		},
	}
}

// EveryKGrid is the sync-every-k equivalence proof: cells that opt into the
// discipline's check family (simulated E[Z_k], E[CL_k], cycle length and
// saved states against the Erlang-max integral model) across the k axis,
// including the k = 1 cell whose exact routes must degenerate to the
// Section 3 closed forms. λ = 0 keeps the cells focused on the
// synchronization families; the legacy grids stay untouched (their cells
// carry no every_k, so the discipline records nothing there and their
// goldens are preserved). Run by `go test ./internal/xval` and by
// `rbrepro xval -strategy sync-every-k`.
func EveryKGrid() []Scenario {
	return []Scenario{
		{
			// Degeneracy cell: k = 1 must reproduce the paper's synchronized
			// organization (numeric checks against synch.MeanMax/MeanLoss).
			Name: "everyk-n3-k1", Mu: []float64{1, 1, 1},
			SyncThreshold: 1, EveryK: 1, Reps: 6000, Seed: 3083,
		},
		{
			// The default period on asymmetric rates: the straggler's
			// Erlang(2) phase dominates Z_k.
			Name: "everyk-n3-asym-k2", Mu: []float64{1.5, 1.0, 0.5},
			SyncThreshold: 2, EveryK: 2, Reps: 6000, Seed: 3183,
		},
		{
			// A long period at larger n: the amortization regime the
			// EXPERIMENTS.md appendix prices.
			Name: "everyk-n5-k4", Mu: []float64{1, 1, 1, 1, 1},
			SyncThreshold: 1, EveryK: 4, Reps: 6000, Seed: 3283,
		},
	}
}

// KronGrid is the matrix-free proof grid: cells past n = 16, past the
// test-only rbmodel.EnumerateAsync, so no materialized chain reaches them.
// The per-process μ ramps are pairwise distinct, so orbit lumping refuses
// every cell and the async model takes the cube form — the
// grid is the end-to-end evidence that its O(n·2^n) answers (the moment
// pair and the deadline miss, both from the renewal recursion) agree with
// the event-driven simulator where no materialized chain can be built.
// λ is sized for ρ = 2λ·C(n,2)/Σμ ≈ 1, the regime where interactions
// matter but recovery lines still form at observable frequency. Every cell
// checks P(X > 8) against the simulator, the transform's exact transient
// law (its inversion is the costliest surface, about 25 s at n = 24);
// replication budgets are modest because each cell also pays exact
// 2^n-vector passes. Run by `go test ./internal/xval` (n = 18 only, not
// -short) and `rbrepro xval -kron` (all cells).
func KronGrid() []Scenario {
	return []Scenario{
		{Name: "kron-n18-ramp", Mu: muRamp(18, 0.80, 0.05), Lambda: lambdaForRho(muRamp(18, 0.80, 0.05), 1),
			SyncThreshold: 1, Deadline: 8, Reps: 4000, Seed: 4183},
		{Name: "kron-n20-ramp", Mu: muRamp(20, 0.70, 0.04), Lambda: lambdaForRho(muRamp(20, 0.70, 0.04), 1),
			SyncThreshold: 1, Deadline: 8, Reps: 3000, Seed: 4283},
		{Name: "kron-n24-ramp", Mu: muRamp(24, 0.60, 0.03), Lambda: lambdaForRho(muRamp(24, 0.60, 0.03), 1),
			SyncThreshold: 1, Deadline: 8, Reps: 3000, Seed: 4383},
	}
}

// muRamp returns the arithmetic ramp μ_i = base + i·step — the simplest rate
// vector with n distinct values, guaranteed non-lumpable.
func muRamp(n int, base, step float64) []float64 {
	mu := make([]float64, n)
	for i := range mu {
		mu[i] = base + float64(i)*step
	}
	return mu
}

// lambdaForRho returns the uniform interaction rate putting the cell at the
// given interaction intensity ρ = 2λ·C(n,2)/Σμ.
func lambdaForRho(mu []float64, rho float64) float64 {
	sum := 0.0
	for _, m := range mu {
		sum += m
	}
	n := float64(len(mu))
	return rho * sum / (n * (n - 1))
}

// FullGrid is the thorough sweep run by `rbrepro xval` (without -quick):
// larger replication budgets for tight intervals, more points along every
// axis. Runtime is dominated by the Monte Carlo budgets and parallelizes
// across the worker pool.
func FullGrid() []Scenario {
	return []Scenario{
		// ρ sweep at n = 3, μ = 1 (the Figure 5 axis).
		{Name: "n3-uniform-rho1", Mu: []float64{1, 1, 1}, Lambda: 0.5,
			SyncThreshold: 1, Deadline: 2, Reps: 120000, Seed: 1983},
		{Name: "n3-uniform-rho2", Mu: []float64{1, 1, 1}, Lambda: 1,
			SyncThreshold: 1, Deadline: 3, Reps: 120000, Seed: 1984},
		{Name: "n3-uniform-rho4", Mu: []float64{1, 1, 1}, Lambda: 2,
			SyncThreshold: 1, Deadline: 5, Reps: 120000, Seed: 1985},

		// The asymmetric Table 1 vectors (cases 2 and 5 share μ; case 5's λ
		// pattern is non-uniform in the paper — here the uniform-λ analogue).
		{Name: "n3-asym-fast", Mu: []float64{1.5, 1.0, 0.5}, Lambda: 1,
			SyncThreshold: 1, Deadline: 4, Reps: 120000, Seed: 1986},
		{Name: "n3-slow-figure6", Mu: []float64{0.6, 0.45, 0.45}, Lambda: 0.5,
			SyncThreshold: 2, Deadline: 6, Reps: 120000, Seed: 1987},

		// n sweep at ρ = 2 (λ = 2/(n−1)): growing state spaces, the regime
		// where the full chain, the lumped chain and the simulator must keep
		// agreeing as recovery lines get rare.
		{Name: "n2-uniform-rho2", Mu: []float64{1, 1}, Lambda: 2,
			SyncThreshold: 0.5, Deadline: 2, Reps: 120000, Seed: 1988},
		{Name: "n4-uniform-rho2", Mu: []float64{1, 1, 1, 1}, Lambda: 2.0 / 3.0,
			SyncThreshold: 1, Deadline: 4, Reps: 80000, Seed: 1989},
		{Name: "n5-uniform-rho2", Mu: []float64{1, 1, 1, 1, 1}, Lambda: 0.5,
			SyncThreshold: 1, Deadline: 6, Reps: 60000, Seed: 1990},
		{Name: "n6-uniform-rho2", Mu: []float64{1, 1, 1, 1, 1, 1}, Lambda: 0.4,
			SyncThreshold: 2, Deadline: 8, Reps: 40000, Seed: 1991},

		// Checkpoint-interval (τ) variants at fixed dynamics: the SimulateSync
		// cycle identities must hold for every request interval.
		{Name: "n3-tau-short", Mu: []float64{1, 1, 1}, Lambda: 1,
			SyncThreshold: 0.25, Deadline: 3, Reps: 80000, Seed: 1992},
		{Name: "n3-tau-long", Mu: []float64{1, 1, 1}, Lambda: 1,
			SyncThreshold: 4, Deadline: 3, Reps: 80000, Seed: 1993},

		// Synchronization-only scenario (λ = 0): exercises the Section 3
		// closed forms at larger n, where the async chain is irrelevant.
		{Name: "n8-sync-only", Mu: []float64{1, 1, 1, 1, 1, 1, 1, 1}, Lambda: 0,
			SyncThreshold: 1, Reps: 120000, Seed: 1994},
	}
}
