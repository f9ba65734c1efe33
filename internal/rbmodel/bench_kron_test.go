package rbmodel

import (
	"context"
	"fmt"
	"os"
	"testing"

	"recoveryblocks/internal/guard"
	"recoveryblocks/internal/obs"
)

// routeParams puts two μ classes, 1 and 2, under a uniform λ at
// intensity ρ: lumpable onto ⌊n/2⌋+1 by ⌈n/2⌉+1 cells.
func routeParams(n int, rho float64) Params {
	sum := float64(n/2) + 2*float64(n-n/2)
	p := Uniform(n, 1, rho*sum/float64(n*(n-1)))
	for i := n / 2; i < n; i++ {
		p.Mu[i] = 2
	}
	return p
}

// BenchmarkAsyncRoutes prices the two forms of the full model side by side
// on the same lumpable rates: the count form NewAsync picks, and the cube
// form build(p, nil) forces. Each uniformization op builds the model and
// answers the deadline miss at d = 2 plus the 0.99 quantile at ρ = 0.25 on
// the transient block's uniformization rung, stepping the count operator
// or the cube's KronOp; the transform rows answer the same questions on its
// primary rung, and the moment rows the pair at ρ = 1, in closed form. The
// table in EXPERIMENTS.md comes from
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
// via RB_BENCH_KRON=1. The table in EXPERIMENTS.md comes from
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
