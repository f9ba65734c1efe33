package rbmodel

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

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
// markov.MatrixFree engine runs the transient solves against it, and the
// moment pair's Krylov alternates behind the closed form of renewalMoments.
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

	// The preconditioner holds a 2^n diagonal and serves only the Krylov
	// alternates, so it is built on their first application.
	pre := sync.OnceValue(func() *kronPrecond { return newKronPrecond(op, p) })
	return &kronEngine{op: op, mf: markov.NewMatrixFree(markov.MatrixFreeSpec{
		Op:         op,
		Gamma:      p.TotalEventRate(),
		Start:      ones,
		AbsorbIdx:  absIdx,
		AbsorbRate: absRate,
		ClosedForm: func() (float64, float64) { return renewalMoments(p) },
		Precond:    func(dst, src []float64) { pre().forward(dst, src) },
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

// kronPrecond is the two-level preconditioner of the Krylov rungs: a coarse
// solve on the popcount-level aggregation of the cube, then an exact
// Gauss–Seidel solve with D + U on the residual the coarse correction leaves.
//
// The fine level is the Gauss–Seidel splitting Q_T = (D + U) + L in natural
// index order: D is the operator's diagonal (assembled once by DiagInto), U
// its strictly upper part and L its strictly lower part. Rule R1 sets one bit,
// so every raising edge s → s|1<<i runs to a larger index. Rules R2 and R3
// only clear bits, so every interaction edge runs to a smaller one. Hence U is
// exactly the R1 raising part μ_i·e_s·e_{s|1<<i}ᵀ, less the n edges into the
// all-ones entry state that the boundary fixups turn into absorption, and
// (D + U)⁻¹ is one matrix-free pass over the cube with every superset solved
// before its subsets, in descending s. Each pass costs O(n·2^n) and runs in
// place. Only that order matters, so the entries of one popcount level are
// independent of each other.
//
// The coarse level carries the interaction flow between popcount levels that
// D + U leaves out: without it the Krylov iterations stop on the same
// residual with a forward error that grows with ρ (2.6e-6 relative in E[X]
// at n = 12, ρ = 8, against 8e-8 with it). The Galerkin coarse operator
// Ac[u][v] = Σ_{|s|=u} Σ_{|t|=v} Q_T[s][t] never needs the matrix: every
// level-to-level rate sum has a closed binomial form because the count of
// vertices at level u containing a fixed bit pattern is independent of which
// rates sit on it.
//
// The two levels combine multiplicatively, coarse first: c = Ac⁻¹·R·r, then
// y = (D + U)⁻¹·(r − Q_T·P·c) + P·c, with R summing each popcount level and
// P injecting a level value back into every vertex of the level. Q_T·P·c
// costs no operator application (see coarseResidual). The additive form
// (D + U)⁻¹·r + P·c took about half again as many Krylov iterations.
//
// Past 2^16 vertices every pass but the level sums splits between two
// goroutines through linalg.Shard: the coarse residual and the final
// level add by vertex range, the sweep by a pipeline across the top bit (see
// sweep). Each vertex keeps its operations and their order, so the result
// does not depend on the core count. A kronPrecond reuses its buffers and
// must not be applied from two goroutines at once.
type kronPrecond struct {
	diag []float64
	mu   []float64
	lu   *linalg.LU
	// rc and ec are the coarse restriction and correction, and lv the
	// per-level weights of coarseResidual, reused by every application.
	rc, ec []float64
	lv     [][5]float64
	sumMu  float64
	// The mu and lam tables hold Σ μ_i and Σ Λ_i (Λ_i = Σ_j λ_ij) over the
	// set bits of a vertex, split into its low byte (the [256] tables) and
	// its higher bits (the 2^(n−8)-entry tables).
	muLo, lamLo [256]float64
	muHi, lamHi []float64

	job precondJob
}

func newKronPrecond(op *linalg.KronOp, p Params) *kronPrecond {
	n := p.N()
	lam := make([]float64, n)
	for i, row := range p.Lambda {
		for j, v := range row {
			if j != i {
				lam[i] += v
			}
		}
	}
	kp := &kronPrecond{
		diag:  make([]float64, op.Dim()),
		mu:    append([]float64(nil), p.Mu...),
		rc:    make([]float64, n+1),
		ec:    make([]float64, n+1),
		lv:    make([][5]float64, n+1),
		sumMu: p.SumMu(),
	}
	kp.job.kp = kp
	op.DiagInto(kp.diag)
	lo := min(n, 8)
	setSums(kp.muLo[:1<<lo], p.Mu[:lo])
	setSums(kp.lamLo[:1<<lo], lam[:lo])
	kp.muHi = make([]float64, 1<<(n-lo))
	kp.lamHi = make([]float64, 1<<(n-lo))
	setSums(kp.muHi, p.Mu[lo:])
	setSums(kp.lamHi, lam[lo:])

	sumMu := kp.sumMu
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

// setSums fills t[b] with the sum of w[i] over the set bits i of b.
func setSums(t, w []float64) {
	for b := 1; b < len(t); b++ {
		t[b] = t[b&(b-1)] + w[bits.TrailingZeros(uint(b))]
	}
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

// forward computes dst = M⁻¹·src for the coarse-first two-level M: three
// passes over the cube after the level sums, the sweep running in place on
// the residual in dst. The level sums are a reduction and stay on one
// goroutine; the three passes shard (see sweep).
func (kp *kronPrecond) forward(dst, src []float64) {
	if kp.lu == nil {
		kp.sweep(dst, src)
		return
	}
	clear(kp.rc)
	for s, v := range src {
		kp.rc[bits.OnesCount(uint(s))] += v
	}
	if kp.lu.SolveInto(kp.ec, kp.rc) != nil {
		kp.sweep(dst, src)
		return
	}
	kp.coarseResidual(dst, src, kp.ec)
	kp.sweep(dst, dst)
	kp.job.shard(stageLift, dst, nil)
}

// coarseResidual writes t = r − Q_T·P·c from the level values c. P·c is
// constant on each level, so row s of Q_T·P·c at level u = |s| only needs
// the rate sums from s into each level:
//
//	D[s]·c[u] + R′(s)·c[u+1] + R3(s)·c[u−1] + R2(s)·c[u−2],
//
// with R(s) = Σ_{i∉s} μ_i the raising rate (R′ = R except at level n−1,
// whose raising edge absorbs), I = −D − R (less the entry's exit Σμ at
// the all-ones vertex) the interaction out-rate, and R2 = L − I and
// R3 = 2I − L its two- and one-bit parts, where L = Σ_{i∈s} Λ_i counts every
// pair inside s twice and every pair across it once. t and r may alias.
func (kp *kronPrecond) coarseResidual(t, r, c []float64) {
	n := len(c) - 1
	for u := range kp.lv {
		w := &kp.lv[u]
		*w = [5]float64{c[u]}
		if u <= n-2 {
			w[1] = c[u+1]
		}
		if u >= 1 {
			w[2] = c[u-1]
		}
		if u >= 2 {
			w[3] = c[u-2]
		}
	}
	kp.lv[n][4] = kp.sumMu
	kp.job.shard(stageResidual, t, r)
}

// residualRange is coarseResidual on the vertices [lo, hi), with the level
// weights already in kp.lv.
func (kp *kronPrecond) residualRange(t, r []float64, lo, hi int) {
	ones := len(r) - 1
	for s := lo; s < hi; s++ {
		d := kp.diag[s]
		w := &kp.lv[bits.OnesCount(uint(s))]
		z := ones &^ s
		up := kp.muLo[z&0xff] + kp.muHi[z>>8]
		in := -d - up - w[4]
		r2 := kp.lamLo[s&0xff] + kp.lamHi[s>>8] - in
		t[s] = r[s] - (d*w[0] + up*w[1] + (in-r2)*w[2] + r2*w[3])
	}
}

// sweep solves (D + U)·y = r into y, s descending:
// y[s] = (r[s] − Σ_{i∉s} μ_i·y[s|1<<i]) / D[s]. y may alias r: each step
// reads r[s] before it writes y[s], and reads only y above s.
//
// When linalg.Shard splits it between two goroutines, the sweep pipelines
// across the top bit t = 2^(n−1). An upper vertex (t set) reads only upper
// supersets, so the upper half is a sweep of its own; a lower vertex s reads
// its own half's supersets and s|t, which sits as far below the top of the
// cube as s sits below t. So the lower half can run in step with the upper
// one, sweepChunk vertices behind it: before each chunk it waits until the
// upper half has finished the chunk the same distance from the top. Every
// vertex still reads final values only, so y is bit for bit the
// one-goroutine sweep, which runs the same chunks top down and never waits.
func (kp *kronPrecond) sweep(y, r []float64) {
	kp.job.shard(stageSweep, y, r)
}

// sweepRange runs the sweep over the vertices [lo, hi), s descending. A
// vertex one bit short of all-ones (and all-ones itself) has no raising
// edge left in U.
func (kp *kronPrecond) sweepRange(y, r []float64, lo, hi int) {
	ones := len(r) - 1
	for s := hi - 1; s >= lo; s-- {
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

// sweepChunk is the grain of the sweep's top-bit pipeline, and how far the
// lower half runs behind the upper one: 1/16 of a half at n = 16.
const sweepChunk = 1 << 11

// The passes of one preconditioner application that shard.
const (
	stageResidual = iota // coarseResidual into y from r
	stageSweep           // the Gauss–Seidel sweep, y from r
	stageLift            // y[s] += ec[|s|]
)

// precondJob is the Ranger the preconditioner hands to linalg.Shard. It
// lives in its kronPrecond, so applications allocate nothing.
type precondJob struct {
	kp    *kronPrecond
	y, r  []float64
	stage int
	// upper counts the sweep's finished upper-half chunks, top down.
	upper atomic.Int64
}

// shard runs one stage over every vertex through linalg.Shard, then drops
// y and r so the preconditioner keeps no solve's vectors alive.
func (j *precondJob) shard(stage int, y, r []float64) {
	j.stage, j.y, j.r = stage, y, r
	j.upper.Store(0)
	linalg.Shard(j, len(y), len(y))
	j.y, j.r = nil, nil
}

// RunRange runs the current stage over the vertices [lo, hi).
func (j *precondJob) RunRange(lo, hi int) {
	kp := j.kp
	switch j.stage {
	case stageResidual:
		kp.residualRange(j.y, j.r, lo, hi)
	case stageLift:
		for s := lo; s < hi; s++ {
			j.y[s] += kp.ec[bits.OnesCount(uint(s))]
		}
	case stageSweep:
		top := len(j.r) / 2
		if hi > top {
			// Whatever stops the upper half, a panic included, must not
			// leave the lower half waiting for it.
			defer j.upper.Store(math.MaxInt64)
		}
		for c := hi; c > lo; c -= sweepChunk {
			if c <= top {
				// The lower chunk below c reads y[s|top] from the upper
				// chunk below c+top, number (top−c)/sweepChunk from the top.
				for j.upper.Load() <= int64((top-c)/sweepChunk) {
					runtime.Gosched()
				}
			}
			kp.sweepRange(j.y, j.r, max(c-sweepChunk, lo), c)
			if c > top {
				j.upper.Add(1)
			}
		}
	}
}
