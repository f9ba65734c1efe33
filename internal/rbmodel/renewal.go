package rbmodel

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"

	"recoveryblocks/internal/linalg"
)

// CubeMoments returns E[X] and E[X²] of the full model by cubeMoments, the
// recursion over all 2^n subsets of the processes, after validating p and
// bounding n by MaxExactProcesses. NewAsync answers lumpable rates by the
// count form instead (countMoments), so the checks that compare the full
// model against a lumped one read this recursion for the full side: two
// recursions over two different state spaces.
func CubeMoments(p Params) (m1, m2 float64, err error) {
	if err := p.Validate(); err != nil {
		return 0, 0, err
	}
	if n := p.N(); n > MaxExactProcesses {
		return 0, 0, fmt.Errorf("rbmodel: n = %d exceeds MaxExactProcesses = %d", n, MaxExactProcesses)
	}
	m1, m2 = cubeMoments(p)
	return m1, m2, nil
}

// cubeMoments returns E[X] and E[X²] of the full model in closed form,
// with no linear system. The recovery lines are the renewals of the
// marked-set process: process i is marked while its last action was a
// recovery point, its recovery point marks it (rule R1), and an interaction
// of a pair unmarks both sides (R2, R3). A line forms when a recovery point
// leaves every process marked, and the process then stands in the entry
// state, so the intervals X between lines are i.i.d. copies of the
// absorption time of the chain NewAsync solves.
//
// For a subset T of the processes let P_T be the stationary probability that
// every process in T is marked. That event is left only by an interaction
// touching T, at rate Λ(T) = Σ λ_ij over the pairs {i, j} that meet T
// whatever the state, and entered only by the recovery point of some i ∈ T
// while T∖i is marked, so balancing the flows gives
//
//	P_∅ = 1,  P_T = Σ_{i∈T} μ_i·P_{T∖i} / (μ(T) + Λ(T)),
//
// with μ(T) = Σ_{i∈T} μ_i. Lines form at rate Σ_i μ_i·P_{ones∖i} (i's
// recovery point while every other process is marked), the reciprocal of
// E[X]. For the second moment, renewal theory gives
// E[X²] = 2·E[X]·E_π[τ], with τ the time to the next line from
// stationarity. Let a_T integrate P(T marked, no line yet) over that wait:
// the same flow balance, less the mass every line removes, gives
// (μ(T) + Λ(T))·a_T = Σ_{i∈T} μ_i·a_{T∖i} + P_T − 1 and
// Σ_i μ_i·a_{ones∖i} = 1. So A_T = P_T·E_π[τ] − a_T solves
//
//	A_∅ = 0,  A_T = (Σ_{i∈T} μ_i·A_{T∖i} + (1 − P_T)) / (μ(T) + Λ(T)),
//
// and E[X²] = 2·E[X]²·(1 + Σ_i μ_i·A_{ones∖i}).
//
// Both recursions run over T in ascending order, since T∖i < T: one
// O(n·2^n) pass holding two 2^n vectors, and for a general λ a first pass
// that writes Λ into the A vector (see pairRates). From 2^16 subsets on
// two cores the pass splits across the top bit, the half with it a few
// chunks behind the half without it (see pipeline), and pairRates splits
// into two independent halves; every subset keeps its operations and their
// order, so the moments do not depend on the core count.
//
// The rounding bound: every operation is a sum, product or quotient of
// nonnegative numbers except 1 − P_T, so no cancellation amplifies the
// rounding of P, and the error of 1 − P_T reaches E[X²] only through the
// term Σ_i μ_i·A_{ones∖i} that is added to 1. Against a 256-bit evaluation
// of the same recursion (TestRenewalRounding: n ≤ 10, ρ from 1e-3 to 64,
// uniform, hot-pair and random λ) the float64 moments differ by at most
// 1.4e-15 relative in E[X] and 2.8e-15 in E[X²].
func cubeMoments(p Params) (m1, m2 float64) {
	n := p.N()
	ones := 1<<n - 1
	j := &momentPass{mu: p.Mu, P: make([]float64, ones+1), A: make([]float64, ones+1)}
	lam, uniform := uniformPairRate(p)
	if uniform {
		// Λ(T) = λ·(C(n,2) − C(n−|T|,2)), the binomials in integers.
		j.level = make([]float64, n+1)
		for k := range j.level {
			j.level[k] = lam * float64((n*(n-1)-(n-k)*(n-k-1))/2)
		}
	} else {
		// A[t] holds Λ(T) until the pass below reads it and writes A_T;
		// A[0] = Λ(∅) = 0 is already A_∅.
		pairRates(j.A, p)
	}
	j.P[0] = 1
	var pipe pipeline
	pipe.sweep(j, ones+1)
	var rate, sa float64
	for i, mu := range p.Mu {
		rate += mu * j.P[ones&^(1<<i)]
		sa += mu * j.A[ones&^(1<<i)]
	}
	m1 = 1 / rate
	return m1, 2 * m1 * m1 * (1 + sa)
}

// momentPass is cubeMoments' pass over the subsets. level holds Λ by
// popcount for a uniform λ; without it A holds Λ(T) until the pass
// overwrites it.
type momentPass struct {
	mu, P, A, level []float64
}

func (j *momentPass) run(lo, hi int) {
	P, A := j.P, j.A
	for t := max(lo, 1); t < hi; t++ {
		var lamT float64
		if j.level != nil {
			lamT = j.level[bits.OnesCount(uint(t))]
		} else {
			lamT = A[t]
		}
		var muT, sp, sa float64
		for z := t; z != 0; z &= z - 1 {
			i := bits.TrailingZeros(uint(z))
			mu := j.mu[i]
			muT += mu
			sp += mu * P[t&^(1<<i)]
			sa += mu * A[t&^(1<<i)]
		}
		d := muT + lamT
		P[t] = sp / d
		A[t] = (sa + (1 - P[t])) / d
	}
}

// subsets is a pass over the subsets of the processes in ascending order,
// each subset T read from subsets below it only: run computes [lo, hi).
type subsets interface {
	run(lo, hi int)
}

// pipeline is the linalg.Ranger of one ascending subset pass (cubeMoments,
// a single cube transform pass): kronPrecond's sweep pipeline run upwards.
// With top = 2^(n−1), a subset T without the top bit reads only subsets
// without it, and a subset with it reads its own half's subsets below it
// and T∖top, at the same offset in the other half. So the half without the
// top bit never waits, and the half with it runs sweepChunk subsets behind
// it: before each chunk it waits until the other half has finished the
// chunk at the same offset. Shard always runs its upper index half on the
// calling goroutine, so RunRange maps index i to subset i XOR top: the
// caller runs the half that never waits. Every subset still reads final
// values only, so the pass is bit for bit the one-goroutine loop, which
// Shard runs inline below shardDim and on one core.
type pipeline struct {
	pass  subsets
	dim   int
	lower atomic.Int64 // the finished chunks of the half without the top bit
}

// sweep runs pass over all dim = 2^n subsets through linalg.Shard, then
// drops it.
func (p *pipeline) sweep(pass subsets, dim int) {
	p.pass, p.dim = pass, dim
	p.lower.Store(0)
	linalg.Shard(p, dim, dim)
	p.pass = nil
}

// RunRange runs the subsets of the indices [lo, hi): the whole pass in
// ascending order, or one of Shard's halves.
func (p *pipeline) RunRange(lo, hi int) {
	top := p.dim / 2
	switch {
	case lo == 0 && hi == p.dim:
		p.pass.run(0, p.dim)
	case lo >= top:
		// Whatever stops this half, a panic included, must not leave the
		// other half waiting for it.
		defer p.lower.Store(math.MaxInt64)
		for c := lo - top; c < hi-top; c += sweepChunk {
			p.pass.run(c, min(c+sweepChunk, hi-top))
			p.lower.Add(1)
		}
	default:
		for c := lo; c < hi; c += sweepChunk {
			// The chunk at top+c reads T∖top from the chunk at c, number
			// c/sweepChunk of the other half.
			for p.lower.Load() <= int64(c/sweepChunk) {
				runtime.Gosched()
			}
			p.pass.run(top+c, top+min(c+sweepChunk, hi))
		}
	}
}

// countMoments is cubeMoments' recursion indexed by per-class counts
// instead of subsets. For lumpable rates P_T and A_T depend on T only
// through its count vector c (c_k processes of class k marked), and the sum
// over i ∈ T collects c_k equal terms per class, so
//
//	P_0 = 1,  P_c = Σ_k c_k·μ_k·P_{c−e_k} / (μ(c) + Λ(c)),
//	A_0 = 0,  A_c = (Σ_k c_k·μ_k·A_{c−e_k} + 1 − P_c) / (μ(c) + Λ(c)),
//
// with μ(c) = Σ_k c_k·μ_k, E[X] = 1 / Σ_k C_k·μ_k·P_{C−e_k} and
// E[X²] = 2·E[X]²·(1 + Σ_k C_k·μ_k·A_{C−e_k}). Λ(c), the rate of the pairs
// that meet the marked set, builds up from nonnegative sums as pairRates
// builds it: with j the lowest nonzero digit of c, the one more marked
// process of class j meets the C_b − c_b unmarked ones of every class b, so
// Λ(c) = Λ(c−e_j) + Σ_b (C_b − c_b)·L_jb. A cell costs O(K) for K classes,
// and since Π(C_k+1) ≤ 2^n and K ≤ n the count form never costs more than
// the cube recursion. Its rounding is the cube recursion's: every term but
// 1 − P_c is a nonnegative sum, product or quotient.
func (c *classes) countMoments() (m1, m2 float64) {
	k := len(c.size)
	P := make([]float64, c.cells)
	A := make([]float64, c.cells)
	lam := make([]float64, c.cells)
	digit := make([]int, k)
	P[0] = 1
	for s := 1; s < c.cells; s++ {
		j := c.advance(digit)
		L := lam[s-c.stride[j]]
		var muC, sp, sa float64
		for b, cb := range digit {
			L += float64(c.size[b]-cb) * c.lam[j][b]
			if cb > 0 {
				w := float64(cb) * c.mu[b]
				muC += w
				sp += w * P[s-c.stride[b]]
				sa += w * A[s-c.stride[b]]
			}
		}
		lam[s] = L
		d := muC + L
		P[s] = sp / d
		A[s] = (sa + (1 - P[s])) / d
	}
	full := c.cells - 1
	var rate, sa float64
	for b, cb := range c.size {
		w := float64(cb) * c.mu[b]
		rate += w * P[full-c.stride[b]]
		sa += w * A[full-c.stride[b]]
	}
	m1 = 1 / rate
	return m1, 2 * m1 * m1 * (1 + sa)
}

// pairRates writes Λ(T), the summed rate of the pairs that meet T, into
// lam[T] for every T, from nonnegative sums only: with j the lowest process
// of T, Λ(T) = Λ(T∖j) + Σ_{i∉T} λ_ij, the pairs that meet j but not T∖j.
// T∖j stays in T's half of the cube but for T = top, which reads Λ(∅) = 0,
// so the two halves are independent and shard with no wait.
func pairRates(lam []float64, p Params) {
	lam[0] = 0
	linalg.Shard(pairJob{lam, p.Lambda}, len(lam), len(lam))
}

// pairJob is pairRates' linalg.Ranger over the subsets.
type pairJob struct {
	lam    []float64
	lambda [][]float64
}

func (j pairJob) RunRange(lo, hi int) {
	ones := len(j.lam) - 1
	for t := max(lo, 1); t < hi; t++ {
		k := bits.TrailingZeros(uint(t))
		s := j.lam[t&(t-1)]
		row := j.lambda[k]
		for z := ones &^ t; z != 0; z &= z - 1 {
			s += row[bits.TrailingZeros(uint(z))]
		}
		j.lam[t] = s
	}
}
