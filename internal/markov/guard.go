package markov

// This file hosts the recovery-block ladder around the absorption solves: the
// engine applies the paper's primary/alternate/acceptance-test discipline to
// its own numerics. Every moment solve runs as a guard.Block whose acceptance
// test checks finiteness, moment consistency, and — for the direct routes —
// a normwise residual bound; on rejection the solve falls through
// dense-LU → sparse-GS → uniformization → MC-estimate. The healthy path is
// byte-identical to the historical direct routes (same routines, same
// routing cutoff); the ladder only changes what happens when a route fails,
// is rejected, or is force-failed by an injected chaos fault.

import (
	"context"
	"math"

	"recoveryblocks/internal/dist"
	"recoveryblocks/internal/guard"
	"recoveryblocks/internal/obs"
)

const (
	// residualRelTol bounds the accepted normwise relative residual
	// ‖Q_T·h − rhs‖∞ / (‖Q_T‖∞·‖h‖∞ + ‖rhs‖∞) of the direct routes. Both a
	// backward-stable LU and the gsTol-converged sparse solve sit orders of
	// magnitude below it; crossing it means the returned vector does not
	// solve the system it claims to.
	residualRelTol = 1e-8
	// maxUnifSteps caps the uniformization fallback's DTMC step count,
	// turning a non-decaying transient mass (a structurally broken chain
	// reached with earlier rungs force-skipped) into a typed error instead
	// of a hang.
	maxUnifSteps = 2_000_000
	// unifMassTol is the relative transient-mass floor at which the
	// uniformization sums are considered converged.
	unifMassTol = 1e-13
	// mcMomentReps and mcMomentSeed parameterize the last-resort jump-chain
	// estimate. The seed is a fixed internal constant: the route draws from
	// its own substreams, so the estimate is deterministic for a given chain
	// regardless of caller RNG state or worker count.
	mcMomentReps  = 65536
	mcMomentSeed  = 8_675_309
	mcMomentJumps = 1 << 20 // per-replication jump budget
)

// momentSolution is the value flowing through the absorption-moment ladder:
// the two moments plus, for the direct routes, the full solution vectors the
// acceptance test checks residuals on (nil for the scalar-only routes).
type momentSolution struct {
	m1, m2 float64
	h, h2  []float64
}

// AbsorptionMomentsCtx is AbsorptionMoments under an explicit context: the
// context carries cancellation, any injected guard.FaultSpec, and the
// fallback guard.Recorder. The solve runs as a recovery block — primary and
// alternates ordered dense-LU → sparse-GS → uniformization → MC-estimate
// (starting at the rung the state-space size routes to), each candidate
// result vetted by the acceptance test before the caller sees it.
func (c *CTMC) AbsorptionMomentsCtx(ctx context.Context, start int) (m1, m2 float64, err error) {
	if c.absorbing[start] {
		return 0, 0, nil
	}
	idx, order := c.transientIndex()
	dense := guard.Attempt[momentSolution]{Name: "dense-lu", Run: func(context.Context) (momentSolution, error) {
		h, h2, err := c.momentVectorsDense(idx, order)
		if err != nil {
			return momentSolution{}, err
		}
		k := idx[start]
		return momentSolution{m1: h[k], m2: h2[k], h: h, h2: h2}, nil
	}}
	sparse := guard.Attempt[momentSolution]{Name: "sparse-gs", Run: func(context.Context) (momentSolution, error) {
		h, h2, err := c.momentVectorsSparse(idx, order)
		if err != nil {
			return momentSolution{}, err
		}
		k := idx[start]
		return momentSolution{m1: h[k], m2: h2[k], h: h, h2: h2}, nil
	}}
	unif := guard.Attempt[momentSolution]{Name: "uniformization", Run: func(ctx context.Context) (momentSolution, error) {
		return c.absorptionMomentsUniformized(ctx, start)
	}}
	mcEst := guard.Attempt[momentSolution]{Name: "mc-estimate", Degraded: true, Run: func(ctx context.Context) (momentSolution, error) {
		return c.absorptionMomentsMC(ctx, start)
	}}

	b := guard.Block[momentSolution]{
		Name:   "markov/absorption-moments",
		Accept: c.acceptMoments(idx, order),
	}
	if len(order) < SparseCutoff {
		b.Primary = dense
		b.Alternates = []guard.Attempt[momentSolution]{sparse, unif, mcEst}
	} else {
		b.Primary = sparse
		b.Alternates = []guard.Attempt[momentSolution]{unif, mcEst}
	}
	res, err := b.Do(ctx)
	if err != nil {
		return 0, 0, err
	}
	return res.Value.m1, res.Value.m2, nil
}

// acceptMoments is the ladder's acceptance test: NaN/Inf guard, moment
// consistency (E[T] ≥ 0 and E[T²] ≥ E[T]² — Jensen holds for the exact
// moments and for every empirical estimate alike), and a normwise residual
// bound on both linear systems when the route exposes its solution vectors.
func (c *CTMC) acceptMoments(idx, order []int) func(momentSolution) error {
	return func(s momentSolution) error {
		if math.IsNaN(s.m1) || math.IsInf(s.m1, 0) || math.IsNaN(s.m2) || math.IsInf(s.m2, 0) {
			return guard.Rejectedf("non-finite moments E[T]=%v, E[T²]=%v", s.m1, s.m2)
		}
		if s.m1 < 0 || s.m2 < s.m1*s.m1*(1-1e-9) {
			return guard.Rejectedf("inconsistent moments E[T]=%v, E[T²]=%v", s.m1, s.m2)
		}
		if s.h == nil {
			return nil
		}
		// Residuals of Q_T·h = −1 and Q_T·h2 = −2·h, both in one O(nnz) pass.
		var res1, res2, normA, normH, normH2 float64
		for k, u := range order {
			out := c.OutRate(u)
			r1 := -out * s.h[k]
			r2 := -out * s.h2[k]
			rowAbs := out
			for _, e := range c.rows[u] {
				if j := idx[e.To]; j >= 0 {
					r1 += e.Rate * s.h[j]
					r2 += e.Rate * s.h2[j]
				}
				rowAbs += e.Rate
			}
			res1 = math.Max(res1, math.Abs(r1-(-1)))
			res2 = math.Max(res2, math.Abs(r2-(-2*s.h[k])))
			normA = math.Max(normA, rowAbs)
			normH = math.Max(normH, math.Abs(s.h[k]))
			normH2 = math.Max(normH2, math.Abs(s.h2[k]))
		}
		if rel := res1 / (normA*normH + 1); !(rel <= residualRelTol) {
			return guard.Rejectedf("first-moment residual %.3e exceeds %.0e", rel, residualRelTol)
		}
		if rel := res2 / (normA*normH2 + 2*normH); !(rel <= residualRelTol) {
			return guard.Rejectedf("second-moment residual %.3e exceeds %.0e", rel, residualRelTol)
		}
		return nil
	}
}

// absorptionMomentsUniformized is the third rung: exact moments through the
// uniformized jump chain. With P = I + Q/γ and s_k the transient mass after
// k DTMC steps, the absorption step count N satisfies E[N] = Σ_k s_k and
// E[N(N+1)] = 2·Σ_k (k+1)·s_k, and the absorption time T (a random Exp(γ)
// sum of N terms) has E[T] = E[N]/γ and E[T²] = E[N(N+1)]/γ². The route
// checks probability-mass conservation as it sums: the transient mass must
// stay in [0, 1] and never grow.
func (c *CTMC) absorptionMomentsUniformized(ctx context.Context, start int) (momentSolution, error) {
	pi0 := make([]float64, c.n)
	pi0[start] = 1
	q := c.NewAbsorptionSequence(pi0)
	if q.p == nil {
		return momentSolution{}, guard.Numericalf("markov: uniformization undefined (no transitions)")
	}
	var eN, eNN float64
	prev := math.Inf(1)
	m := 0.0
	for k := 0; k < maxUnifSteps; k++ {
		if err := q.extend(ctx, k); err != nil {
			return momentSolution{}, err
		}
		m = q.s[k]
		if m > prev*(1+1e-12) || m > 1+1e-9 {
			return momentSolution{}, guard.Numericalf("markov: uniformization lost probability-mass conservation at step %d (mass %v after %v)", k, m, prev)
		}
		prev = m
		eN += m
		eNN += float64(k+1) * m
		if m < unifMassTol {
			break
		}
	}
	if m >= unifMassTol {
		return momentSolution{}, guard.Numericalf("markov: uniformization moments did not converge in %d steps (residual mass %v)", maxUnifSteps, m)
	}
	g := q.gamma
	return momentSolution{m1: eN / g, m2: 2 * eNN / (g * g)}, nil
}

// absorptionMomentsMC is the last-resort rung: a deterministic direct
// simulation of the jump chain. It is an estimate, not a solve — results
// carry O(1/√reps) noise and the route is flagged Degraded so advice built
// on it is labelled accordingly.
func (c *CTMC) absorptionMomentsMC(ctx context.Context, start int) (momentSolution, error) {
	obs.C("markov_solve_mc_total").Inc()
	// Per-state transition tables, built once: cumulative scan via ChoiceTotal.
	weights := make([][]float64, c.n)
	targets := make([][]int, c.n)
	outs := make([]float64, c.n)
	for u := 0; u < c.n; u++ {
		if c.absorbing[u] {
			continue
		}
		row := c.rows[u]
		w := make([]float64, len(row))
		t := make([]int, len(row))
		total := 0.0
		for i, e := range row {
			w[i] = e.Rate
			t[i] = e.To
			total += e.Rate
		}
		weights[u], targets[u], outs[u] = w, t, total
	}
	var sum, sum2 float64
	for rep := 0; rep < mcMomentReps; rep++ {
		if rep%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return momentSolution{}, err
			}
		}
		rng := dist.Substream(mcMomentSeed, rep)
		u := start
		t := 0.0
		jumps := 0
		for !c.absorbing[u] {
			out := outs[u]
			if out <= 0 {
				return momentSolution{}, guard.Invalidf("markov: transient state %d with no exits", u)
			}
			t += rng.Exp(out)
			u = targets[u][rng.ChoiceTotal(weights[u], out)]
			if jumps++; jumps > mcMomentJumps {
				return momentSolution{}, guard.Numericalf("markov: MC absorption estimate exceeded %d jumps in one replication", mcMomentJumps)
			}
		}
		sum += t
		sum2 += t * t
	}
	return momentSolution{m1: sum / mcMomentReps, m2: sum2 / mcMomentReps}, nil
}
