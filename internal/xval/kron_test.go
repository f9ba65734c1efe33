package xval

import (
	"strings"
	"testing"

	"recoveryblocks/internal/rbmodel"
)

// TestKronGridCells pins the proof grid's construction invariants without
// paying any solve: every cell sits past the split chain's bound, routes to the
// matrix-free Kronecker backend (distinct-μ ramps defeat orbit lumping),
// lands at interaction intensity ρ ≈ 1 by the λ sizing rule, and checks a
// deadline miss.
func TestKronGridCells(t *testing.T) {
	grid := KronGrid()
	if len(grid) != 3 {
		t.Fatalf("kron grid has %d cells, want 3", len(grid))
	}
	wantN := []int{18, 20, 24}
	for i, sc := range grid {
		n := len(sc.Mu)
		if n != wantN[i] {
			t.Errorf("cell %s: n = %d, want %d", sc.Name, n, wantN[i])
		}
		if n <= rbmodel.MaxSplitProcesses || n > rbmodel.MaxExactProcesses {
			t.Errorf("cell %s: n = %d is not in the matrix-free-only band (%d, %d]",
				sc.Name, n, rbmodel.MaxSplitProcesses, rbmodel.MaxExactProcesses)
		}
		if sc.Deadline <= 0 {
			t.Errorf("cell %s: no deadline, so its transient law goes unchecked", sc.Name)
		}
		seen := map[float64]bool{}
		for _, m := range sc.Mu {
			if seen[m] {
				t.Errorf("cell %s: repeated μ = %v would admit orbit lumping", sc.Name, m)
			}
			seen[m] = true
		}
		sum := 0.0
		for _, m := range sc.Mu {
			sum += m
		}
		rho := sc.Lambda * float64(n) * float64(n-1) / sum
		if rho < 0.99 || rho > 1.01 {
			t.Errorf("cell %s: ρ = %v, want ≈ 1", sc.Name, rho)
		}
	}
}

// TestKronGridN18 is the harness-level proof that the matrix-free engine's
// exact answers agree with the event-driven simulator past the split chain:
// the n = 18 cell (2^18-vector solves, a few seconds) restricted to the async
// family. The n = 20 and n = 24 cells run the same route via `rbrepro xval
// -kron` and the CI smoke job; one cell in-tree keeps `go test` bounded.
func TestKronGridN18(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 2^18-state matrix-free solve plus Monte Carlo")
	}
	grid := KronGrid()[:1]

	// The cell must actually exercise the cube form, not the count form.
	w := grid[0].Workload(1)
	model, err := rbmodel.NewAsync(w.Params())
	if err != nil {
		t.Fatal(err)
	}
	if r := model.Route(); r != "cube" {
		t.Fatalf("cell %s takes the %q form, want cube", grid[0].Name, r)
	}

	rep, err := Run(grid, Options{Strategies: []string{"async"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 0 {
		for _, c := range rep.Failed() {
			t.Errorf("FAIL %s/%s: ref %v vs est %v (stat %v, crit %v)",
				c.Scenario, c.Name, c.Ref, c.Est, c.Stat, c.Crit)
		}
		t.Fatalf("%d disagreement(s) on the kron proof cell", rep.Failures)
	}
	// meanX + 18 per-process Wald E[L_i] + deadline + self-consistency; the
	// split-chain family must be absent past MaxSplitProcesses.
	async := 0
	for _, c := range rep.Checks {
		if strings.HasPrefix(c.Name, "split.") {
			t.Errorf("unexpected split-chain check %s past MaxSplitProcesses", c.Name)
		}
		if strings.HasPrefix(c.Name, "async.") || strings.HasPrefix(c.Name, "deadline.") {
			async++
		}
	}
	if async != 21 {
		t.Fatalf("async-family checks = %d, want 21", async)
	}
}
