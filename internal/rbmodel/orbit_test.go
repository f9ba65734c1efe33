package rbmodel

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// randomClassParams draws a random partition of n processes into k < n
// nonempty classes, a distinct μ per class and a symmetric block-constant
// λ with some zero blocks, at intensity ρ: lumpable by construction.
func randomClassParams(rng *rand.Rand, n int) Params {
	k := 1 + rng.Intn(n-1)
	of := make([]int, n)
	for i := range of {
		of[i] = i % k // every class nonempty
	}
	rng.Shuffle(n, func(i, j int) { of[i], of[j] = of[j], of[i] })
	mu := make([]float64, k)
	L := make([][]float64, k)
	for a := range mu {
		mu[a] = 0.3 + 0.2*float64(a) + 0.15*rng.Float64()
		L[a] = make([]float64, k)
	}
	for a := range L {
		for b := a; b < k; b++ {
			if rng.Float64() < 0.8 {
				L[a][b] = 0.1 + rng.Float64()
				L[b][a] = L[a][b]
			}
		}
	}
	return classParams(of, mu, L, 0.25+4*rng.Float64())
}

// cellOfVertex maps every cube vertex of p to its count cell under cls: a
// vertex's cell counts its marked processes per class, so the all-ones
// vertex maps to the all-full entry cell.
func cellOfVertex(p Params, cls *classes) []int {
	n := p.N()
	stride := make([]int, n)
	for i, mu := range p.Mu {
		for a, m := range cls.mu {
			if m == mu {
				stride[i] = cls.stride[a]
			}
		}
	}
	cell := make([]int, 1<<n)
	for u := range cell {
		for i := 0; i < n; i++ {
			if u>>i&1 == 1 {
				cell[u] += stride[i]
			}
		}
	}
	return cell
}

// checkCountOperator holds the count operator of lumpable p to strong
// lumpability against the cube's KronOp, in both directions, within 1e-13
// of the row scale 2γ: lifting x to the cube and applying the cube's
// operator gives the lift of Q̂·x, and aggregating Q_Tᵀ·π over the cells
// gives Q̂ᵀ applied to the aggregate of π. The transpose is an adjoint,
// ⟨y, Q̂x⟩ = ⟨Q̂ᵀy, x⟩, and the row deficits are the engine's absorption
// vector.
func checkCountOperator(t *testing.T, rng *rand.Rand, p Params) {
	t.Helper()
	cls := lumpClasses(p)
	if cls == nil {
		t.Fatalf("%v: rates do not lump", p)
	}
	op, cube := newCountOp(cls), newKronEngine(p).op
	cell := cellOfVertex(p, cls)
	cells, dim := cls.cells, 1<<p.N()
	tol := 1e-13 * 2 * entryRate(p)

	x, y := make([]float64, cells), make([]float64, cells)
	for s := range x {
		x[s], y[s] = rng.Float64(), rng.Float64()
	}
	lift, lifted := make([]float64, dim), make([]float64, dim)
	for u := range lift {
		lift[u] = x[cell[u]]
	}
	qx := make([]float64, cells)
	op.MulVecInto(qx, x)
	cube.MulVecInto(lifted, lift)
	for u, v := range lifted {
		if math.Abs(v-qx[cell[u]]) > tol {
			t.Fatalf("n=%d %d cells: (Q_T·lift x)[%b] = %.17g, lift of Q̂·x gives %.17g", p.N(), cells, u, v, qx[cell[u]])
		}
	}

	pi, flow := make([]float64, dim), make([]float64, dim)
	agg, aggFlow := make([]float64, cells), make([]float64, cells)
	for u := range pi {
		pi[u] = rng.Float64()
		agg[cell[u]] += pi[u]
	}
	cube.MulVecTransInto(flow, pi)
	for u, v := range flow {
		aggFlow[cell[u]] += v
	}
	qtAgg := make([]float64, cells)
	op.MulVecTransInto(qtAgg, agg)
	for s := range qtAgg {
		if math.Abs(qtAgg[s]-aggFlow[s]) > tol*float64(dim) {
			t.Fatalf("n=%d %d cells: (Q̂ᵀ·agg π)[%d] = %.17g, aggregate of Q_Tᵀ·π %.17g", p.N(), cells, s, qtAgg[s], aggFlow[s])
		}
	}

	qty := make([]float64, cells)
	op.MulVecTransInto(qty, y)
	var lhs, rhs float64
	for s := range x {
		lhs += y[s] * qx[s]
		rhs += qty[s] * x[s]
	}
	if math.Abs(lhs-rhs) > tol*float64(cells) {
		t.Fatalf("n=%d %d cells: ⟨y, Q̂x⟩ = %.17g, ⟨Q̂ᵀy, x⟩ = %.17g", p.N(), cells, lhs, rhs)
	}

	ones, deficit := make([]float64, cells), make([]float64, cells)
	for s := range ones {
		ones[s] = 1
	}
	op.MulVecInto(deficit, ones)
	entry := cells - 1
	want := make([]float64, cells)
	want[entry] = op.sumMu
	for a, mu := range cls.mu {
		want[entry-cls.stride[a]] += mu
	}
	for s, v := range deficit {
		if math.Abs(v+want[s]) > tol {
			t.Fatalf("n=%d %d cells: row %d sums to %.17g, absorption rate %.17g", p.N(), cells, s, v, want[s])
		}
	}
}

// TestCountOperatorLumpsCube runs checkCountOperator on random class
// partitions at n = 2..8 with block-constant λ, and on the one-class and
// two-class rates the other tests use.
func TestCountOperatorLumpsCube(t *testing.T) {
	rng := rand.New(rand.NewSource(2817))
	for trial := 0; trial < 60; trial++ {
		checkCountOperator(t, rng, randomClassParams(rng, 2+rng.Intn(7)))
	}
	checkCountOperator(t, rng, Uniform(8, 1, 0.3))
	checkCountOperator(t, rng, twoClassParams(3, 2, 1.0, 2.5, 0.3, 0.8, 0.5))
	checkCountOperator(t, rng, pairClasses(4, 2))
}

// FuzzCountOperator runs checkCountOperator on fuzzed class partitions at
// n ≤ 8.
func FuzzCountOperator(f *testing.F) {
	for _, seed := range []int64{1, 7, 2817, -3} {
		f.Add(seed, uint8(6))
	}
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		checkCountOperator(t, rng, randomClassParams(rng, 2+int(nRaw)%7))
	})
}

// TestCountOperatorDoesNotAllocate: once built, the count operator's
// applications in both directions allocate nothing, and neither does an
// absorption-sequence step on it. The sequence's recorded masses grow
// geometrically, so over 200 extensions of a few steps each their growth
// averages to zero allocations per call; a step that allocated would read
// at least one.
func TestCountOperatorDoesNotAllocate(t *testing.T) {
	for _, p := range []Params{Uniform(12, 1, 0.2), twoClassParams(4, 3, 1, 2, 0.3, 0.5, 0.4), pairClasses(8, 1)} {
		cls := lumpClasses(p)
		op := newCountOp(cls)
		x, y := make([]float64, cls.cells), make([]float64, cls.cells)
		for i := range x {
			x[i] = float64(i%7) / 7
		}
		if a := testing.AllocsPerRun(5, func() { op.MulVecInto(y, x) }); a != 0 {
			t.Errorf("n=%d %d cells: MulVecInto: %v allocations per application", p.N(), cls.cells, a)
		}
		if a := testing.AllocsPerRun(5, func() { op.MulVecTransInto(y, x) }); a != 0 {
			t.Errorf("n=%d %d cells: MulVecTransInto: %v allocations per application", p.N(), cls.cells, a)
		}
		gamma := entryRate(p)
		q := newCountEngine(cls, gamma).NewAbsorptionSequence()
		ctx := context.Background()
		horizon := 0.0
		if a := testing.AllocsPerRun(200, func() {
			horizon += 3 / gamma
			if _, _, err := q.Survival(ctx, horizon, transientEps); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("n=%d %d cells: %v allocations per sequence extension", p.N(), cls.cells, a)
		}
	}
}
