package recoveryblocks

// BenchmarkObsOverhead is the perf gate of the observability layer: the same
// workloads with metrics off and on, so the off/on ratio — not the absolute
// ns/op — is the number under test. The contract (pinned by the committed
// BENCH_obs.json and the advisory CI compare): the disabled path costs one
// atomic pointer load plus a nil check per instrumented block, ≤ 2% on any
// instrumented workload against the pre-obs baseline; the enabled path stays
// within 10% because every counter is block-granular, never per-event.
//
//   - async/off|on: the hottest instrumented loop (the async simulator at
//     n = 8), whose only per-interval addition is a plain int64 field add;
//   - solve/off|on: the dense absorbing-chain solve, instrumented with one
//     counter per solve;
//   - counter/off|on: the raw obs.C("...").Add(1) micro-cost per access at
//     1e6 adds per op — the upper bound on what any single instrumentation
//     point can cost in either state.

import (
	"testing"

	"recoveryblocks/internal/obs"
	"recoveryblocks/internal/rbmodel"
	"recoveryblocks/internal/sim"
)

func BenchmarkObsOverhead(b *testing.B) {
	p := rbmodel.Uniform(8, 1, 2/float64(7))
	c, err := rbmodel.EnumerateAsync(p)
	if err != nil {
		b.Fatal(err)
	}

	async := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.SimulateAsync(p, sim.AsyncOptions{Intervals: 200, Seed: 1983, Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
	solve := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := c.AbsorptionMomentsDense(0); err != nil { // state 0 = S_r
				b.Fatal(err)
			}
		}
	}
	const addsPerOp = 1_000_000
	counter := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < addsPerOp; j++ {
				obs.C("mc_runs_total").Add(1)
			}
		}
	}

	for _, bench := range []struct {
		name string
		run  func(*testing.B)
	}{{"async", async}, {"solve", solve}, {"counter", counter}} {
		b.Run(bench.name+"/off", func(b *testing.B) {
			MetricsDisable()
			bench.run(b)
		})
		b.Run(bench.name+"/on", func(b *testing.B) {
			MetricsEnable()
			defer MetricsDisable()
			bench.run(b)
		})
	}
}
