package rbmodel

import (
	"math/bits"

	"recoveryblocks/internal/linalg"
	"recoveryblocks/internal/markov"
)

// The matrix-free backend for n past MaxEnumeratedProcesses. The transient
// space of the full model is the n-cube with the entry state identified with
// the all-ones vertex (the paper's S_r behaves exactly like (1,…,1) once the
// raising transitions into it are redirected to absorption), so the transient
// generator is a Kronecker sum of 2×2 per-process recovery-point factors plus
// the pairwise interaction family and n+1 boundary fixups — a linalg.KronOp
// applied in O(n·2^n) flops with O(2^n) memory, never materialized. The
// markov.MatrixFree engine runs the moment and transient solves against it.
type kronEngine struct {
	op *linalg.KronOp
	mf *markov.MatrixFree
}

// newKronEngine assembles the Kronecker factors directly from validated
// Params. State s ∈ [0, 2^n) is the paper's vector (x_1..x_n) with bit i−1
// carrying x_i; the entry state is the all-ones vertex and the absorbing
// state is implicit (row deficits).
func newKronEngine(p Params) *kronEngine {
	n := p.N()
	ones, sumMu := 1<<n-1, p.SumMu()
	op := linalg.NewKronOp(n)
	// R1 per process: x_i 0→1 at μ_i, as the site factor [[−μ_i, μ_i],[0,0]].
	for i, mu := range p.Mu {
		op.AddSite(i, -mu, mu, 0, 0)
	}
	// R2/R3 interactions: each pair sends (1,1), (1,0), (0,1) to (0,0) at
	// λ_ij. A uniform rate collapses all C(n,2) pairs into the exchange
	// family's n prefix sweeps; otherwise each positive pair gets its own
	// lowering factor.
	if rate, uniform := uniformPairRate(p); uniform {
		if rate > 0 {
			op.AddExchange(rate)
		}
	} else {
		var k [16]float64
		for _, r := range []int{1, 2, 3} {
			k[r*4+0] = 1
			k[r*4+r] = -1
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				rate := p.Lambda[i][j]
				if rate == 0 {
					continue
				}
				var kr [16]float64
				for idx, v := range k {
					kr[idx] = rate * v
				}
				op.AddPair(i, j, kr)
			}
		}
	}
	// Boundary fixups identifying the all-ones vertex with S_r: completing the
	// line absorbs instead of re-entering the cube (remove each raising edge
	// into ones), and the entry pays rule R4's exit rate Σμ on its diagonal.
	for i, mu := range p.Mu {
		op.AddFixup(ones&^(1<<i), ones, -mu)
	}
	op.AddFixup(ones, ones, -sumMu)

	// Sparse absorption vector: the n vertices one RP short of a line (rate =
	// the missing process's μ) and the entry itself (rate Σμ).
	absIdx := make([]int, 0, n+1)
	absRate := make([]float64, 0, n+1)
	for i, mu := range p.Mu {
		absIdx = append(absIdx, ones&^(1<<i))
		absRate = append(absRate, mu)
	}
	absIdx = append(absIdx, ones)
	absRate = append(absRate, sumMu)

	pre := newKronPrecond(op, p)
	return &kronEngine{op: op, mf: markov.NewMatrixFree(markov.MatrixFreeSpec{
		Op:         op,
		Gamma:      p.TotalEventRate(),
		Start:      ones,
		AbsorbIdx:  absIdx,
		AbsorbRate: absRate,
		Precond:    pre.forward,
		Rows:       func(u int, yield func(int, float64)) { cubeRows(p, u, yield) },
	})}
}

// uniformPairRate reports whether every off-diagonal interaction rate is the
// same, and that common rate.
func uniformPairRate(p Params) (float64, bool) {
	n := p.N()
	if n < 2 {
		return 0, true
	}
	rate := p.Lambda[0][1]
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if p.Lambda[i][j] != rate {
				return 0, false
			}
		}
	}
	return rate, true
}

// kronPrecond is the two-level additive preconditioner of the Krylov rungs:
// an exact Gauss–Seidel solve with D + U plus a coarse correction on the
// popcount-level aggregation of the cube.
//
// The fine level is the Gauss–Seidel splitting Q_T = (D + U) + L in natural
// index order: D is the operator's diagonal (assembled once by DiagInto), U
// its strictly upper part and L its strictly lower part. Rule R1 sets one bit,
// so every raising edge s → s|1<<i runs to a larger index. Rules R2 and R3
// only clear bits, so every interaction edge runs to a smaller one. Hence U is
// exactly the R1 raising part μ_i·e_s·e_{s|1<<i}ᵀ, less the n edges into the
// all-ones entry state that the boundary fixups turn into absorption, and
// (D + U)⁻¹ is one matrix-free pass over the cube with every superset solved
// before its subsets, in descending s. Each pass costs O(n·2^n) and writes
// only its output vector. Only that order matters, so the entries of one
// popcount level are independent of each other.
//
// The coarse level carries the interaction flow between popcount levels that
// D + U leaves out: without it the Krylov iterations stop on the same
// residual with a forward error that grows with ρ (2.6e-6 relative in E[X]
// at n = 12, ρ = 8, against 8e-8 with it). The Galerkin coarse operator
// Ac[u][v] = Σ_{|s|=u} Σ_{|t|=v} Q_T[s][t] never needs the matrix: every
// level-to-level rate sum has a closed binomial form because the count of
// vertices at level u containing a fixed bit pattern is independent of which
// rates sit on it.
type kronPrecond struct {
	diag []float64
	mu   []float64
	lu   *linalg.LU
	// rc and ec are the coarse restriction and correction, reused by every
	// application.
	rc, ec []float64
}

func newKronPrecond(op *linalg.KronOp, p Params) *kronPrecond {
	n := p.N()
	kp := &kronPrecond{
		diag: make([]float64, op.Dim()),
		mu:   append([]float64(nil), p.Mu...),
		rc:   make([]float64, n+1),
		ec:   make([]float64, n+1),
	}
	op.DiagInto(kp.diag)
	sumMu := p.SumMu()
	lamPairs := p.SumLambdaPairs()
	ac := linalg.NewMatrix(n+1, n+1)
	for u := 0; u <= n; u++ {
		// R1 raising (level u → u+1); the u = n−1 edges absorb instead, but
		// their diagonal share remains.
		if u <= n-2 {
			ac.Add(u, u+1, choose(n-1, u)*sumMu)
		}
		ac.Add(u, u, -choose(n-1, u)*sumMu)
		// R2 (u → u−2) and R3 (u → u−1) aggregate over Σ_{i<j} λ_ij: a level-u
		// vertex contains a fixed pair with multiplicity C(n−2, u−2) and a
		// fixed ordered marked/unmarked pair with multiplicity C(n−2, u−1).
		r2 := choose(n-2, u-2) * lamPairs
		r3 := choose(n-2, u-1) * 2 * lamPairs
		if u >= 2 {
			ac.Add(u, u-2, r2)
		}
		if u >= 1 {
			ac.Add(u, u-1, r3)
		}
		ac.Add(u, u, -r2-r3)
	}
	ac.Add(n, n, -sumMu) // the entry's R4 exit
	// A singular factorization only arises from non-finite rates; the engine
	// then runs on Gauss–Seidel alone and the acceptance test judges the
	// result.
	if lu, err := linalg.Factor(ac); err == nil {
		kp.lu = lu
	}
	return kp
}

// choose returns C(n, k) as a float64 (0 outside the triangle); exact for
// every n ≤ MaxExactProcesses+6.
func choose(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}

// forward computes dst = (D + U)⁻¹·src + P·Ac⁻¹·R·src: the additive
// two-level sweep. The coarse restriction R sums each popcount level; the
// prolongation P injects the level correction back to every vertex of the
// level.
func (kp *kronPrecond) forward(dst, src []float64) {
	kp.sweep(dst, src)
	kp.coarse(dst, src)
}

// sweep solves (D + U)·y = r into y, s descending:
// y[s] = (r[s] − Σ_{i∉s} μ_i·y[s|1<<i]) / D[s]. A vertex one bit short of
// all-ones (and all-ones itself) has no raising edge left in U.
func (kp *kronPrecond) sweep(y, r []float64) {
	ones := len(r) - 1
	for s := ones; s >= 0; s-- {
		v := r[s]
		if z := ones &^ s; z&(z-1) != 0 {
			for ; z != 0; z &= z - 1 {
				i := bits.TrailingZeros(uint(z))
				v -= kp.mu[i] * y[s|1<<i]
			}
		}
		y[s] = v / kp.diag[s]
	}
}

// coarse adds P·Ac⁻¹·R·src to dst.
func (kp *kronPrecond) coarse(dst, src []float64) {
	if kp.lu == nil {
		return
	}
	for u := range kp.rc {
		kp.rc[u] = 0
	}
	for s, v := range src {
		kp.rc[bits.OnesCount(uint(s))] += v
	}
	if kp.lu.SolveInto(kp.ec, kp.rc) != nil {
		return
	}
	for s := range dst {
		dst[s] += kp.ec[bits.OnesCount(uint(s))]
	}
}
