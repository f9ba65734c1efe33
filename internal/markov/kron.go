package markov

// This file hosts the matrix-free Kronecker–Krylov engine. Dense LU handles
// transient spaces below SparseCutoff and the CSR two-level solver the
// lumped chains above it, but the 2^n-vertex cube of the full model is never
// enumerated past that size: 2^n states × O(n²) entries each. MatrixFree runs
// the same absorption solves against a linalg.Operator (in practice a
// linalg.KronOp built by rbmodel from the per-process factor structure), with
// BiCGSTAB for the moment systems, restarted GMRES, matrix-free
// uniformization and a jump-chain estimate as fallback rungs, and an
// operator-stepped absorption sequence for the transient questions.

import (
	"context"
	"math"
	"sort"

	"recoveryblocks/internal/dist"
	"recoveryblocks/internal/guard"
	"recoveryblocks/internal/linalg"
	"recoveryblocks/internal/obs"
)

// KronCutoff is the state count at and above which rbmodel gives up on an
// orbit-lumped chain and runs the matrix-free Kronecker engine on the full
// cube instead. Lumping a partially-exchangeable rate vector may still leave
// a chain of this size, whose CSR rows no longer fit a sane budget.
const KronCutoff = 1 << 17

const (
	// kronRestart is the Krylov dimension of the kron-gmres alternate and
	// the Krylov sweep (memory = kronRestart+1 state-space basis vectors);
	// the BiCGSTAB primary ignores it.
	// kronMaxIters is every Krylov solve's operator-application budget,
	// shared by the two moment systems.
	kronRestart  = 40
	kronMaxIters = 4000
	// kronMCReps sizes the last-resort jump-chain estimate. Far fewer
	// replications than the enumerated ladder's mcMomentReps: each jump
	// re-enumerates its row on the fly (the whole point is never holding
	// 2^n rows), so a replication costs O(jumps·n²) instead of O(jumps·n).
	// The route is flagged Degraded either way.
	kronMCReps = 2048
)

// KronMomentTol is the Krylov stopping tolerance of the moment solves on
// both Krylov rungs, a normwise backward error relative to
// ‖b‖∞ + 2γ·‖x‖∞. It sits an order below the CSR solver's gsTol because the
// relative forward error it certifies is about tol·κ, with κ ≤ 2γ·‖h‖∞
// near 2e4 at n = 16 and 2e5 at n = 20 on the ρ = 1 μ ramps; the extra
// digit costs about one BiCGSTAB step per solve.
const KronMomentTol = 1e-13

// MatrixFreeSpec assembles a MatrixFree engine. Op is the transient
// generator Q_T; the absorbing state is implicit (row deficits are the
// absorption rates).
type MatrixFreeSpec struct {
	// Op applies Q_T, the transient block of the generator.
	Op linalg.Operator
	// Gamma must dominate every total out-rate (absorption included); it is
	// the uniformization constant and, via ‖Q_T‖∞ ≤ 2·Gamma, the norm bound
	// of the acceptance test and the Krylov stopping rule.
	Gamma float64
	// Start is the initial transient state index.
	Start int
	// AbsorbIdx/AbsorbRate list the states with direct absorption
	// transitions and their rates — the sparse deficit vector, all the
	// engine needs of the absorbing boundary (the recovery-block cube has
	// n+1 such states out of 2^n).
	AbsorbIdx  []int
	AbsorbRate []float64
	// Precond optionally right-preconditions the Krylov moment solves
	// (dst = M⁻¹·src); nil runs unpreconditioned.
	Precond func(dst, src []float64)
	// PrecondT is not read: the engine solves no transposed system. It
	// stays because callers still set it (perfbench's Jacobi reference).
	PrecondT func(dst, src []float64)
	// Rows enumerates state u's transitions on the fly for the jump-chain
	// rung: yield(to, rate) per transition, to < 0 meaning absorption. nil
	// disables the rung (it then reports guard.ErrInvalid if reached).
	Rows func(u int, yield func(to int, rate float64))
}

// MatrixFree solves an absorbing chain whose transient generator exists only
// as an operator. It mirrors CTMC's solve surface: the moments ladder and
// the absorption sequence.
type MatrixFree struct {
	spec  MatrixFreeSpec
	op    *countedOp
	dim   int
	gamma float64

	// Counter handles resolved once at construction (nil-safe when obs is
	// off), per the hot-path rule: applying a 2^24-state operator must never
	// pay a registry lookup.
	solves, kiters *obs.Counter
}

// countedOp wraps the operator so every application — Krylov solves, expv,
// uniformization, acceptance residuals alike — lands in one counter.
type countedOp struct {
	inner   linalg.Operator
	matvecs *obs.Counter
}

func (c *countedOp) Dim() int { return c.inner.Dim() }
func (c *countedOp) MulVecInto(dst, x []float64) {
	c.matvecs.Inc()
	c.inner.MulVecInto(dst, x)
}
func (c *countedOp) MulVecTransInto(dst, x []float64) {
	c.matvecs.Inc()
	c.inner.MulVecTransInto(dst, x)
}

// NewMatrixFree validates the spec and resolves the engine's counter handles.
func NewMatrixFree(spec MatrixFreeSpec) *MatrixFree {
	if spec.Op == nil {
		panic("markov: MatrixFree needs an operator")
	}
	dim := spec.Op.Dim()
	if spec.Start < 0 || spec.Start >= dim {
		panic("markov: MatrixFree start state out of range")
	}
	if spec.Gamma <= 0 {
		panic("markov: MatrixFree needs a positive uniformization constant")
	}
	if len(spec.AbsorbIdx) != len(spec.AbsorbRate) {
		panic("markov: MatrixFree absorption index/rate length mismatch")
	}
	return &MatrixFree{
		spec:   spec,
		op:     &countedOp{inner: spec.Op, matvecs: obs.C("markov_kron_matvecs_total")},
		dim:    dim,
		gamma:  spec.Gamma,
		solves: obs.C("markov_solve_kron_total"),
		kiters: obs.C("markov_krylov_iters_total"),
	}
}

// Dim returns the transient-state count.
func (m *MatrixFree) Dim() int { return m.dim }

// AbsorptionMoments is AbsorptionMomentsCtx without cancellation or fault
// injection.
func (m *MatrixFree) AbsorptionMoments() (m1, m2 float64, err error) {
	return m.AbsorptionMomentsCtx(context.Background())
}

// AbsorptionMomentsCtx returns E[T] and E[T²] of the absorption time from
// Start, run as a recovery block like the enumerated ladder: the rungs are
// kron-krylov (BiCGSTAB on Q_T·h = −1 and Q_T·h2 = −2·h, eight state-space
// vectors) → kron-gmres (restarted GMRES on the same systems, kronRestart+6
// vectors) → kron-uniformization (transient-mass sums on the matrix-free
// uniformized chain) → kron-mc (on-the-fly jump-chain estimate, Degraded),
// each candidate vetted by the same NaN/Inf + Jensen + normwise-residual
// acceptance test — the residuals evaluated with two extra operator
// applications, since there are no rows to sweep.
func (m *MatrixFree) AbsorptionMomentsCtx(ctx context.Context) (m1, m2 float64, err error) {
	m.solves.Inc()
	krylov := guard.Attempt[momentSolution]{Name: "kron-krylov", Run: func(ctx context.Context) (momentSolution, error) {
		return m.momentsKrylov(ctx, "BiCGSTAB", linalg.SolveBiCGSTAB)
	}}
	gmres := guard.Attempt[momentSolution]{Name: "kron-gmres", Run: func(ctx context.Context) (momentSolution, error) {
		return m.momentsKrylov(ctx, "GMRES", linalg.SolveGMRES)
	}}
	unif := guard.Attempt[momentSolution]{Name: "kron-uniformization", Run: m.momentsUniformized}
	mcEst := guard.Attempt[momentSolution]{Name: "kron-mc", Degraded: true, Run: m.momentsMC}
	b := guard.Block[momentSolution]{
		Name:       "markov/absorption-moments",
		Accept:     m.acceptMoments,
		Primary:    krylov,
		Alternates: []guard.Attempt[momentSolution]{gmres, unif, mcEst},
	}
	res, err := b.Do(ctx)
	if err != nil {
		return 0, 0, err
	}
	return res.Value.m1, res.Value.m2, nil
}

// krylovSolver is the shape SolveBiCGSTAB and SolveGMRES share.
type krylovSolver func(op linalg.Operator, b []float64, opts linalg.GMRESOpts) ([]float64, int, error)

// momentsKrylov runs the two moment systems on one right-preconditioned
// Krylov solver, the two solves sharing one iteration budget. It is the
// kron-krylov rung on BiCGSTAB and the kron-gmres rung on GMRES.
func (m *MatrixFree) momentsKrylov(ctx context.Context, name string, solve krylovSolver) (momentSolution, error) {
	rhs := make([]float64, m.dim)
	for i := range rhs {
		rhs[i] = -1
	}
	opts := linalg.GMRESOpts{
		Restart:  kronRestart,
		MaxIters: kronMaxIters,
		Tol:      KronMomentTol,
		NormA:    2 * m.gamma,
		Precond:  m.spec.Precond,
	}
	h, it1, err := solve(m.op, rhs, opts)
	m.kiters.Add(int64(it1))
	if err != nil {
		return momentSolution{}, guard.Numericalf("markov: kron first-moment %s: %v", name, err)
	}
	if err := ctx.Err(); err != nil {
		return momentSolution{}, err
	}
	for i := range rhs {
		rhs[i] = -2 * h[i]
	}
	opts.MaxIters = max(1, kronMaxIters-it1)
	h2, it2, err := solve(m.op, rhs, opts)
	m.kiters.Add(int64(it2))
	if err != nil {
		return momentSolution{}, guard.Numericalf("markov: kron second-moment %s: %v", name, err)
	}
	return momentSolution{m1: h[m.spec.Start], m2: h2[m.spec.Start], h: h, h2: h2}, nil
}

// acceptMoments mirrors the enumerated ladder's acceptance test on the
// matrix-free operator: finiteness, Jensen consistency, and — when the rung
// exposes its solution vectors — normwise residuals of both systems, with
// ‖Q_T‖∞ bounded by 2γ (every row's diagonal and off-diagonal mass are each
// at most the maximum out-rate).
func (m *MatrixFree) acceptMoments(s momentSolution) error {
	if math.IsNaN(s.m1) || math.IsInf(s.m1, 0) || math.IsNaN(s.m2) || math.IsInf(s.m2, 0) {
		return guard.Rejectedf("non-finite moments E[T]=%v, E[T²]=%v", s.m1, s.m2)
	}
	if s.m1 < 0 || s.m2 < s.m1*s.m1*(1-1e-9) {
		return guard.Rejectedf("inconsistent moments E[T]=%v, E[T²]=%v", s.m1, s.m2)
	}
	if s.h == nil {
		return nil
	}
	normA := 2 * m.gamma
	r := make([]float64, m.dim)
	m.op.MulVecInto(r, s.h)
	var res1, normH float64
	for i, v := range r {
		res1 = math.Max(res1, math.Abs(v+1)) // Q_T·h − (−1)
		normH = math.Max(normH, math.Abs(s.h[i]))
	}
	if rel := res1 / (normA*normH + 1); !(rel <= residualRelTol) {
		return guard.Rejectedf("first-moment residual %.3e exceeds %.0e", rel, residualRelTol)
	}
	m.op.MulVecInto(r, s.h2)
	var res2, normH2 float64
	for i, v := range r {
		res2 = math.Max(res2, math.Abs(v+2*s.h[i])) // Q_T·h2 − (−2h)
		normH2 = math.Max(normH2, math.Abs(s.h2[i]))
	}
	if rel := res2 / (normA*normH2 + 2*normH); !(rel <= residualRelTol) {
		return guard.Rejectedf("second-moment residual %.3e exceeds %.0e", rel, residualRelTol)
	}
	return nil
}

// momentsUniformized is the second rung: the enumerated ladder's
// transient-mass sums, read off the operator-stepped absorption sequence.
func (m *MatrixFree) momentsUniformized(ctx context.Context) (momentSolution, error) {
	return uniformizedMoments(ctx, m.NewAbsorptionSequence())
}

// momentsMC is the last-resort rung: the deterministic jump-chain estimate
// with rows enumerated on the fly — no per-state tables, O(1) memory beyond
// the replication state. Same fixed internal seed family as the enumerated
// ladder, so the estimate is reproducible for a given chain.
func (m *MatrixFree) momentsMC(ctx context.Context) (momentSolution, error) {
	rows := m.spec.Rows
	if rows == nil {
		return momentSolution{}, guard.Invalidf("markov: matrix-free MC rung needs a row enumerator")
	}
	obs.C("markov_solve_mc_total").Inc()
	var sum, sum2 float64
	for rep := 0; rep < kronMCReps; rep++ {
		if rep%64 == 0 {
			if err := ctx.Err(); err != nil {
				return momentSolution{}, err
			}
		}
		rng := dist.Substream(mcMomentSeed, rep)
		u := m.spec.Start
		t := 0.0
		jumps := 0
		for u >= 0 {
			out := 0.0
			rows(u, func(to int, rate float64) { out += rate })
			if out <= 0 {
				return momentSolution{}, guard.Invalidf("markov: transient state %d with no exits", u)
			}
			t += rng.Exp(out)
			// Streaming inverse-CDF pick: one uniform, a second enumeration
			// pass, no per-row allocation.
			target := rng.Float64() * out
			next := u
			acc := 0.0
			rows(u, func(to int, rate float64) {
				if acc <= target {
					next = to
				}
				acc += rate
			})
			u = next
			if jumps++; jumps > mcMomentJumps {
				return momentSolution{}, guard.Numericalf("markov: kron MC absorption estimate exceeded %d jumps in one replication", mcMomentJumps)
			}
		}
		sum += t
		sum2 += t * t
	}
	return momentSolution{m1: sum / kronMCReps, m2: sum2 / kronMCReps}, nil
}

// AbsorptionCDF evaluates P(absorbed by t) at the given times (nondecreasing,
// ≥ 0) as 1 minus the surviving transient mass, the transient distribution
// advanced by Krylov exponentials between consecutive times. eps is the
// per-evaluation accuracy target. The program's transient questions read the
// absorption sequence instead; this Krylov sweep stays as the independent
// reference the tests and the benchmark's own assembly check it against.
func (m *MatrixFree) AbsorptionCDF(times []float64, eps float64) ([]float64, error) {
	return m.transientSweep(times, eps, func(pi []float64) float64 {
		mass := linalg.Sum(pi)
		cdf := 1 - mass
		return math.Min(1, math.Max(0, cdf))
	})
}

// AbsorptionDensity evaluates the absorption-time density at the given times:
// f(t) = Σ_s π_s(t)·a(s) over the sparse absorption-rate vector, by the same
// Krylov sweep as AbsorptionCDF and kept for the same reason: it is the
// independent reference for the absorption sequence.
func (m *MatrixFree) AbsorptionDensity(times []float64, eps float64) ([]float64, error) {
	return m.transientSweep(times, eps, func(pi []float64) float64 {
		f := 0.0
		for i, s := range m.spec.AbsorbIdx {
			f += pi[s] * m.spec.AbsorbRate[i]
		}
		return math.Max(0, f)
	})
}

func (m *MatrixFree) transientSweep(times []float64, eps float64, eval func(pi []float64) float64) ([]float64, error) {
	if !sort.Float64sAreSorted(times) {
		panic("markov: matrix-free transient sweep times must be nondecreasing")
	}
	m.solves.Inc()
	if eps <= 0 {
		eps = 1e-10
	}
	pi := make([]float64, m.dim)
	pi[m.spec.Start] = 1
	out := make([]float64, len(times))
	last := 0.0
	for i, t := range times {
		if t < 0 {
			panic("markov: matrix-free transient sweep needs nonnegative times")
		}
		if t > last {
			next, iters, err := linalg.KrylovExpv(m.op, pi, t-last, linalg.ExpvOpts{
				KrylovDim: kronRestart,
				Tol:       eps,
			})
			m.kiters.Add(int64(iters))
			if err != nil {
				// Recovery block on the segment: explicit matrix-free
				// uniformization is slower (γ·Δt applications instead of a few
				// Krylov substeps) but cannot suffer step-control breakdown.
				next = m.unifAdvance(pi, t-last, eps)
			}
			pi = next
			last = t
		}
		out[i] = eval(pi)
	}
	return out, nil
}

// unifAdvance evolves the transient distribution by dt with the uniformized
// series Σ_k Pois(γ·dt; k)·π·P_Tᵏ, P_T = I + Q_T/γ, applied through the
// operator. Mass leaking past the truncation or into absorption simply leaves
// the vector — exactly what the sweep's evaluators expect.
func (m *MatrixFree) unifAdvance(pi []float64, dt, eps float64) []float64 {
	w := poissonWeights(nil, m.gamma*dt, eps)
	cur := linalg.CloneVec(pi)
	tmp := make([]float64, m.dim)
	out := make([]float64, m.dim)
	for k, wk := range w {
		if k > 0 {
			m.op.MulVecTransInto(tmp, cur)
			for i, v := range tmp {
				cur[i] += v / m.gamma
			}
		}
		if wk == 0 {
			continue
		}
		for i, v := range cur {
			out[i] += wk * v
		}
	}
	return out
}
