package recoveryblocks

// BenchmarkHotPaths is the enforced perf gate of this repository: one
// sub-benchmark per optimized hot path, with fixed workloads so ns/op is
// comparable run to run and allocs/op is exact. CI converts a fresh run to
// BENCH_core.new.json and compares it against the committed BENCH_core.json
// with `benchjson -compare` — regressions beyond the tolerance fail the
// build (see .github/workflows/ci.yml for the -tol escape hatch). The
// committed baseline records the post-PR-4 state:
//
//   - alias vs linear: O(1) Walker/Vose category sampling against the O(k)
//     prefix-sum scan it replaced, at the n = 8 category count;
//   - async/sync/prp at n ∈ {3, 8, 12}: the three simulators' inner loops
//     (allocs/op also gates the zero-steady-state-allocation contract —
//     the small constant per op is block setup, so any per-event
//     allocation multiplies it by orders of magnitude);
//   - solve dense vs sparse: the absorbing-chain moment solve through both
//     routes. Dense at n = 12 is omitted on purpose — the O(8^n) cost is
//     tens of seconds, which is the point of the sparse route.

import (
	"testing"

	"recoveryblocks/internal/dist"
	"recoveryblocks/internal/rbmodel"
	"recoveryblocks/internal/sim"
)

// hotParams pins the Figure 5 convention (μ = 1, λ = ρ/(n−1) at ρ = 2) so
// problem difficulty is comparable across n.
func hotParams(n int) rbmodel.Params {
	return rbmodel.Uniform(n, 1, 2/float64(n-1))
}

// hotAsyncIntervals keeps each async sub-benchmark at a few milliseconds
// per op: recovery lines get rarer as n grows, so the interval budget
// shrinks while the event count per op stays comparable.
func hotAsyncIntervals(n int) int {
	switch {
	case n <= 3:
		return 20000
	case n <= 8:
		return 200
	default:
		return 20
	}
}

func BenchmarkHotPaths(b *testing.B) {
	// The two sampling micro-benchmarks draw a fixed 1e6 categories per op
	// so they stay meaningful under the low fixed iteration counts CI uses
	// for the heavyweight sub-benchmarks (ns/op ≈ ns per million draws).
	const drawsPerOp = 1_000_000
	b.Run("alias/k=36", func(b *testing.B) {
		weights := make([]float64, 36)
		for i := range weights {
			weights[i] = 1 + float64(i%7)
		}
		a := dist.NewAlias(weights)
		rng := dist.NewStream(11)
		b.ReportAllocs()
		b.ResetTimer()
		sink := 0
		for i := 0; i < b.N; i++ {
			for j := 0; j < drawsPerOp; j++ {
				sink += a.Sample(rng)
			}
		}
		_ = sink
	})
	b.Run("linear/k=36", func(b *testing.B) {
		weights := make([]float64, 36)
		total := 0.0
		for i := range weights {
			weights[i] = 1 + float64(i%7)
			total += weights[i]
		}
		rng := dist.NewStream(11)
		b.ReportAllocs()
		b.ResetTimer()
		sink := 0
		for i := 0; i < b.N; i++ {
			for j := 0; j < drawsPerOp; j++ {
				sink += rng.ChoiceTotal(weights, total)
			}
		}
		_ = sink
	})

	for _, n := range []int{3, 8, 12} {
		n := n
		p := hotParams(n)
		iv := hotAsyncIntervals(n)
		b.Run("async/"+benchName("n", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.SimulateAsync(p, sim.AsyncOptions{Intervals: iv, Seed: 1983, Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("sync/"+benchName("n", n), func(b *testing.B) {
			mu := make([]float64, n)
			for i := range mu {
				mu[i] = 1
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opt := sim.SyncOptions{Strategy: sim.SyncStatesSaved, Threshold: 6, Cycles: 10000, Seed: 1983, Workers: 1}
				if _, err := sim.SimulateSync(mu, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("prp/"+benchName("n", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opt := sim.PRPOptions{Probes: 2000, Seed: 1983, Warmup: 100, PLocal: 0.5, Workers: 1}
				if _, err := sim.SimulatePRP(p, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	for _, n := range []int{8, 10} {
		n := n
		c, err := rbmodel.EnumerateAsync(hotParams(n))
		if err != nil {
			b.Fatal(err)
		}
		b.Run("solve/dense/"+benchName("n", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := c.AbsorptionMomentsDense(0); err != nil { // state 0 = S_r
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{8, 10, 12} {
		n := n
		c, err := rbmodel.EnumerateAsync(hotParams(n))
		if err != nil {
			b.Fatal(err)
		}
		b.Run("solve/sparse/"+benchName("n", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := c.AbsorptionMomentsSparse(0); err != nil { // state 0 = S_r
					b.Fatal(err)
				}
			}
		})
	}
}
