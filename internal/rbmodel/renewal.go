package rbmodel

import "math/bits"

// renewalMoments returns E[X] and E[X²] of the full model in closed form,
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
// that writes Λ into the A vector (see pairRates).
//
// The rounding bound: every operation is a sum, product or quotient of
// nonnegative numbers except 1 − P_T, so no cancellation amplifies the
// rounding of P, and the error of 1 − P_T reaches E[X²] only through the
// term Σ_i μ_i·A_{ones∖i} that is added to 1. Against a 256-bit evaluation
// of the same recursion (TestRenewalRounding: n ≤ 10, ρ from 1e-3 to 64,
// uniform, hot-pair and random λ) the float64 moments differ by at most
// 1.4e-15 relative in E[X] and 2.8e-15 in E[X²].
func renewalMoments(p Params) (m1, m2 float64) {
	n := p.N()
	ones := 1<<n - 1
	P := make([]float64, ones+1)
	A := make([]float64, ones+1)
	lam, uniform := uniformPairRate(p)
	var level []float64
	if uniform {
		// Λ(T) = λ·(C(n,2) − C(n−|T|,2)), the binomials in integers.
		level = make([]float64, n+1)
		for k := range level {
			level[k] = lam * float64((n*(n-1)-(n-k)*(n-k-1))/2)
		}
	} else {
		// A[t] holds Λ(T) until the pass below reads it and writes A_T;
		// A[0] = Λ(∅) = 0 is already A_∅.
		pairRates(A, p)
	}
	P[0] = 1
	for t := 1; t <= ones; t++ {
		var lamT float64
		if uniform {
			lamT = level[bits.OnesCount(uint(t))]
		} else {
			lamT = A[t]
		}
		var muT, sp, sa float64
		for z := t; z != 0; z &= z - 1 {
			i := bits.TrailingZeros(uint(z))
			mu := p.Mu[i]
			muT += mu
			sp += mu * P[t&^(1<<i)]
			sa += mu * A[t&^(1<<i)]
		}
		d := muT + lamT
		P[t] = sp / d
		A[t] = (sa + (1 - P[t])) / d
	}
	var rate, sa float64
	for i, mu := range p.Mu {
		rate += mu * P[ones&^(1<<i)]
		sa += mu * A[ones&^(1<<i)]
	}
	m1 = 1 / rate
	return m1, 2 * m1 * m1 * (1 + sa)
}

// pairRates writes Λ(T), the summed rate of the pairs that meet T, into
// lam[T] for every T, from nonnegative sums only: with j the lowest process
// of T, Λ(T) = Λ(T∖j) + Σ_{i∉T} λ_ij, the pairs that meet j but not T∖j.
func pairRates(lam []float64, p Params) {
	ones := len(lam) - 1
	lam[0] = 0
	for t := 1; t <= ones; t++ {
		j := bits.TrailingZeros(uint(t))
		s := lam[t&(t-1)]
		row := p.Lambda[j]
		for z := ones &^ t; z != 0; z &= z - 1 {
			s += row[bits.TrailingZeros(uint(z))]
		}
		lam[t] = s
	}
}
