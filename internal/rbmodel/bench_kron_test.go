package rbmodel

// BenchmarkKron is the matrix-free engine's perf baseline: the raw Kronecker
// operator application, the moment pair on the ladder's primary rung, and
// the end-to-end MeanX through NewAsync's router, at n = 16, 20 and 24, all
// on the matrix-free route, and from n = 20 the orbit route's count-form
// moments. The moment rows keep the name gmres/n=*, which the committed
// baseline keys on, though the primary rung is the closed form kron-renewal
// (BenchmarkMomentRungs prices the Krylov rung). CI
// converts a fresh run to BENCH_kron.new.json and enforces
// `benchjson -compare` against the committed BENCH_kron.json. The 2^20/2^24-vector sizes cost seconds to
// minutes per op, so they are opt-in: set RB_BENCH_KRON=1 (the CI kron job
// does; a default `go test -bench .` sweep only pays n = 16).
//
// Refresh the baseline with
//
//	RB_BENCH_KRON=1 go test -bench BenchmarkKron -benchtime 2x -run '^$' \
//	    ./internal/rbmodel | go run ./cmd/benchjson > BENCH_kron.json

import (
	"context"
	"fmt"
	"os"
	"testing"

	"recoveryblocks/internal/guard"
	"recoveryblocks/internal/obs"
)

// benchKronParams pins the proof-grid convention: a distinct-μ arithmetic
// ramp (never lumpable, so it always takes the kron route) with the
// uniform λ that puts interaction intensity at ρ = 1.
func benchKronParams(n int) Params {
	mu := make([]float64, n)
	sum := 0.0
	for i := range mu {
		mu[i] = 0.6 + 0.03*float64(i)
		sum += mu[i]
	}
	p := Uniform(n, 1, sum/float64(n*(n-1)))
	p.Mu = mu
	return p
}

func BenchmarkKron(b *testing.B) {
	heavy := os.Getenv("RB_BENCH_KRON") != ""
	for _, n := range []int{16, 20, 24} {
		if n > 16 && !heavy {
			continue // 2^n-vector sizes are opt-in: set RB_BENCH_KRON=1
		}
		p := benchKronParams(n)

		b.Run(fmt.Sprintf("matvec/n=%d", n), func(b *testing.B) {
			e := newKronEngine(p)
			x := make([]float64, e.op.Dim())
			y := make([]float64, e.op.Dim())
			for i := range x {
				x[i] = 1 / float64(len(x))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.op.MulVecInto(y, x)
			}
		})

		b.Run(fmt.Sprintf("gmres/n=%d", n), func(b *testing.B) {
			e := newKronEngine(p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.mf.AbsorptionMoments(); err != nil {
					b.Fatal(err)
				}
			}
		})

		if n > 16 {
			// The lumping contrast: two μ-classes at the same n collapse the
			// 2^n cube onto ~(n/2+1)^2 class-count cells; the orbit route's
			// moment pair, the count form of the recursion, prices what
			// exchangeability buys over the cube recursion.
			b.Run(fmt.Sprintf("orbit-moments/n=%d", n), func(b *testing.B) {
				po := benchKronParams(n)
				for i := range po.Mu {
					po.Mu[i] = 1.0
					if i >= n/2 {
						po.Mu[i] = 2.0
					}
				}
				m, err := NewAsync(po)
				if err != nil {
					b.Fatal(err)
				}
				if m.Route() != "count" {
					b.Fatalf("two-class n=%d takes the %s form, want count", n, m.Route())
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := m.MomentsX(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}

		b.Run(fmt.Sprintf("e2e-meanx/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := NewAsync(p)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.MeanX(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// routeParams is benchKronParams's λ at intensity ρ over two μ classes,
// 1 and 2, uniform across pairs: lumpable onto ⌊n/2⌋+1 by ⌈n/2⌉+1 cells.
func routeParams(n int, rho float64) Params {
	p := benchKronParams(n)
	for i := range p.Mu {
		p.Mu[i] = 1
		if i >= n/2 {
			p.Mu[i] = 2
		}
	}
	v := rho * p.SumMu() / float64(n*(n-1))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p.Lambda[i][j], p.Lambda[j][i] = v, v
		}
	}
	return p
}

// BenchmarkAsyncRoutes prices the two forms of the full model side by side
// on the same lumpable rates: the count form NewAsync picks, and the cube
// form build(p, nil) forces. Each uniformization op builds the model and
// answers the deadline miss at d = 2 plus the 0.99 quantile at ρ = 0.25 on
// the transient block's uniformization rung, stepping the count operator
// or the cube's KronOp; the transform rows answer the same questions on its
// primary rung, and the moment rows the pair at ρ = 1, in closed form. Not
// part of any committed baseline; the table in EXPERIMENTS.md comes from
//
//	go test -bench BenchmarkAsyncRoutes -benchtime 3x -run '^$' ./internal/rbmodel
func BenchmarkAsyncRoutes(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		for _, form := range []string{"count", "cube"} {
			model := func(p Params) *AsyncModel {
				if form == "cube" {
					return build(p, nil)
				}
				m, err := NewAsync(p)
				if err != nil {
					b.Fatal(err)
				}
				return m
			}
			b.Run(fmt.Sprintf("moments/%s/n=%d", form, n), func(b *testing.B) {
				p := routeParams(n, 1)
				for i := 0; i < b.N; i++ {
					if _, _, err := model(p).MomentsX(); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("uniformization/%s/n=%d", form, n), func(b *testing.B) {
				p := routeParams(n, 0.25)
				ctx := context.Background()
				for i := 0; i < b.N; i++ {
					m := model(p)
					if _, err := m.missUniformized(ctx, 2); err != nil {
						b.Fatal(err)
					}
					if _, err := m.quantileUniformized(ctx, 0.99); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("transform/%s/n=%d", form, n), func(b *testing.B) {
				p := routeParams(n, 0.25)
				for i := 0; i < b.N; i++ {
					m := model(p)
					if _, err := m.DeadlineMissProb(2); err != nil {
						b.Fatal(err)
					}
					if _, err := m.QuantileX(0.99); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMomentRungs prices the first two rungs of the matrix-free moment
// ladder on the exact-wall ramp (wallRamp): the closed form kron-renewal
// (two state-space vectors, no operator application) and kron-krylov
// (BiCGSTAB, eight vectors), the latter reached by forcing the closed form
// off with fault depth 1. Each op is one moment pair through
// AbsorptionMomentsCtx, acceptance residuals included, and the first op of
// the Krylov rung builds its preconditioner; matvecs/op counts every
// operator application. n = 17 and 20 are opt-in
// via RB_BENCH_KRON=1. Not part of any committed baseline; the table in
// EXPERIMENTS.md comes from
//
//	RB_BENCH_KRON=1 go test -bench BenchmarkMomentRungs -benchtime 1x -benchmem -run '^$' ./internal/rbmodel
func BenchmarkMomentRungs(b *testing.B) {
	sizes := []int{12, 14, 16}
	if os.Getenv("RB_BENCH_KRON") != "" {
		sizes = append(sizes, 17, 20)
	}
	for _, n := range sizes {
		for _, rho := range []float64{0.25, 1, 4} {
			for _, rung := range []struct {
				name  string
				depth int
			}{{"renewal", 0}, {"bicgstab", 1}} {
				b.Run(fmt.Sprintf("%s/n=%d/rho=%g", rung.name, n, rho), func(b *testing.B) {
					// The engine resolves its counters at construction.
					reg := obs.Enable()
					defer obs.Disable()
					e := newKronEngine(wallRamp(n, rho))
					ctx := guard.WithFaults(context.Background(), guard.FaultSpec{Depth: rung.depth})
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, _, err := e.mf.AbsorptionMomentsCtx(ctx); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(reg.Counter("markov_kron_matvecs_total").Value())/float64(b.N), "matvecs/op")
				})
			}
		}
	}
}
