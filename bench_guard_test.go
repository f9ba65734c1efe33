package recoveryblocks

// BenchmarkGuardOverhead prices the recovery-block layer on the healthy
// path, split into its two ingredients on the same dense absorbing-chain
// moment solve:
//
//   - direct:  AbsorptionMomentsDense called raw — the baseline.
//   - wrapped: the identical solve inside a guard.Block with a no-op
//     acceptance test — the pure cost of the guard machinery (closure
//     dispatch, panic capture, fault/recorder context lookups, disabled-obs
//     nil checks). This is the pair behind the "healthy path pays ≈ nothing"
//     claim: wrapped must stay within ~1% of direct.
//   - guarded: the identical solve as the closed-form rung of the
//     production moment ladder (markov.AbsorptionMomentsLadder, over a CSR
//     copy of the chain) — wrapper plus the acceptance test's
//     finiteness and Jensen checks. The residual sweep over both moment
//     systems runs only behind a rung that returns solution vectors, which
//     a closed form does not.
//
// CI converts a fresh run to BENCH_guard.new.json and compares it against
// the committed BENCH_guard.json with `benchjson -compare` (advisory).
// Refresh with
//
//	go test -bench 'BenchmarkGuardOverhead' -benchtime 0.5s -run '^$' . | go run ./cmd/benchjson > BENCH_guard.json
import (
	"context"
	"testing"

	"recoveryblocks/internal/guard"
	"recoveryblocks/internal/linalg"
	"recoveryblocks/internal/markov"
)

// guardBenchChain builds a 64-transient-state absorbing chain — a forward
// path with per-state absorption leaks — and the production moment ladder
// over a CSR copy of it, the chain's dense LU solve as its closed form.
func guardBenchChain() (*markov.CTMC, func(context.Context) (float64, float64, error)) {
	const n = 64
	c := markov.NewCTMC(n + 1)
	op := linalg.NewCSRBuilder(n, 2*n)
	absIdx := make([]int, n)
	absRate := make([]float64, n)
	for i := 0; i < n; i++ {
		leak := 0.05 + 0.001*float64(i)
		if i+1 < n {
			c.AddRate(i, i+1, 1.0)
		}
		c.AddRate(i, n, leak)
		op.Add(i, i, -c.OutRate(i))
		if i+1 < n {
			op.Add(i, i+1, 1.0)
		}
		absIdx[i], absRate[i] = i, leak
	}
	c.SetAbsorbing(n)
	mf := markov.NewMatrixFree(markov.MatrixFreeSpec{
		Op: op.Build(), Gamma: c.MaxOutRate(), Start: 0,
		AbsorbIdx: absIdx, AbsorbRate: absRate,
	})
	closed := func() (float64, float64) {
		m1, m2, _ := c.AbsorptionMomentsDense(0)
		return m1, m2
	}
	engine := func() *markov.MatrixFree { return mf }
	return c, func(ctx context.Context) (float64, float64, error) {
		return markov.AbsorptionMomentsLadder(ctx, closed, engine)
	}
}

func BenchmarkGuardOverhead(b *testing.B) {
	c, ladder := guardBenchChain()
	b.Run("direct/dense-64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.AbsorptionMomentsDense(0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wrapped/dense-64", func(b *testing.B) {
		b.ReportAllocs()
		ctx := context.Background()
		blk := guard.Block[[2]float64]{
			Name: "bench/dense-solve",
			Primary: guard.Attempt[[2]float64]{Name: "dense-lu", Run: func(context.Context) ([2]float64, error) {
				m1, m2, err := c.AbsorptionMomentsDense(0)
				return [2]float64{m1, m2}, err
			}},
			Accept: func([2]float64) error { return nil },
		}
		for i := 0; i < b.N; i++ {
			if _, err := blk.Do(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("guarded/dense-64", func(b *testing.B) {
		b.ReportAllocs()
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			if _, _, err := ladder(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}
