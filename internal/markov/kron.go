package markov

// This file hosts the matrix-free Kronecker–Krylov engine: the absorbing
// chain of the full model's 2^n-vertex cube, never enumerated (2^n states ×
// O(n²) entries each), solved against a linalg.Operator (in practice a
// linalg.KronOp built by rbmodel from the per-process factor structure).
// Its moment pair runs as a recovery block: the caller's closed form first,
// then BiCGSTAB, matrix-free uniformization and a jump-chain estimate as
// fallback rungs. The transient grids step an operator-driven absorption
// sequence, on the cube's KronOp or on rbmodel's count operator over the
// lumped cells, which the engine wraps the same way with no preconditioner
// and no row enumerator.

import (
	"context"
	"math"
	"sort"

	"recoveryblocks/internal/dist"
	"recoveryblocks/internal/guard"
	"recoveryblocks/internal/linalg"
	"recoveryblocks/internal/obs"
)

const (
	// kronRestart is the Krylov dimension of the transient sweep's
	// KrylovExpv (memory = kronRestart+1 state-space basis vectors).
	// kronMaxIters is every Krylov solve's operator-application budget,
	// shared by the two moment systems.
	kronRestart  = 40
	kronMaxIters = 4000
	// residualRelTol bounds the accepted normwise relative residual
	// ‖Q_T·h − rhs‖∞ / (‖Q_T‖∞·‖h‖∞ + ‖rhs‖∞) of a rung that returns its
	// solution vectors. A KronMomentTol-converged Krylov solve sits orders
	// of magnitude below it; crossing it means the returned vector does not
	// solve the system it claims to.
	residualRelTol = 1e-8
	// maxUnifSteps caps the uniformization rung's step count, turning a
	// non-decaying transient mass (a structurally broken chain reached with
	// earlier rungs force-skipped) into a typed error instead of a hang.
	maxUnifSteps = 2_000_000
	// unifMassTol is the relative transient-mass floor at which the
	// uniformization sums are considered converged.
	unifMassTol = 1e-13
	// kronMCReps, mcMomentSeed and mcMomentJumps parameterize the
	// last-resort jump-chain estimate. Each jump enumerates its row on the
	// fly (the whole point is never holding 2^n rows), so a replication
	// costs O(jumps·n²). The seed is a fixed internal constant: the rung
	// draws from its own substreams, so the estimate is deterministic for a
	// given chain regardless of caller RNG state or worker count.
	kronMCReps    = 2048
	mcMomentSeed  = 8_675_309
	mcMomentJumps = 1 << 20 // per-replication jump budget
)

// momentSolution is the value flowing through the absorption-moment ladder:
// the two moments plus, for the Krylov rung, the full solution vectors the
// acceptance test checks residuals on (nil for the scalar-only rungs).
type momentSolution struct {
	m1, m2 float64
	h, h2  []float64
}

// KronMomentTol is the Krylov stopping tolerance of the moment solves, a
// normwise backward error relative to ‖b‖∞ + 2γ·‖x‖∞. The relative forward
// error it certifies is about tol·κ, with κ ≤ 2γ·‖h‖∞ near 2e4 at n = 16
// and 2e5 at n = 20 on the ρ = 1 μ ramps; a tolerance one digit looser
// costs about one BiCGSTAB step less per solve. It binds only when the
// ladder falls past a closed-form kron-renewal rung, or has none: κ grows
// with E[X], so at high ρ a normwise-accepted Krylov answer can sit far from
// the closed form (1.3 % at n = 18, ρ = 8 on the μ ramp).
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
	// (dst = M⁻¹·src); nil runs unpreconditioned. Only the kron-krylov rung
	// calls it.
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
// as an operator: the moment ladder and the absorption sequence.
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
// Start: AbsorptionMomentsLadder with no closed form, so the ladder starts
// at kron-krylov.
func (m *MatrixFree) AbsorptionMomentsCtx(ctx context.Context) (m1, m2 float64, err error) {
	return AbsorptionMomentsLadder(ctx, nil, func() *MatrixFree { return m })
}

// AbsorptionMomentsLadder returns E[T] and E[T²] of an absorption time, run
// as the recovery block markov/absorption-moments: kron-renewal (closed,
// when it is non-nil: the moment pair in closed form, with no solve) →
// kron-krylov (BiCGSTAB on Q_T·h = −1 and Q_T·h2 = −2·h, eight state-space
// vectors) → kron-uniformization (transient-mass sums on the matrix-free
// uniformized chain) → kron-mc (on-the-fly jump-chain estimate, Degraded),
// the last three on the engine engine returns. engine is called only when
// one of them runs, so a caller whose closed form answers never assembles
// its operator. The context carries cancellation, any injected
// guard.FaultSpec and the fallback guard.Recorder. Each candidate is vetted
// by the same acceptance test: NaN/Inf and Jensen for every rung, and for
// the Krylov rung, which returns its solution vectors, the normwise
// residuals too, evaluated with two extra operator applications since there
// are no rows to sweep. The rungs past the first are the block's
// alternates and the independent routes the tests judge the closed form
// against.
func AbsorptionMomentsLadder(ctx context.Context, closed func() (m1, m2 float64), engine func() *MatrixFree) (m1, m2 float64, err error) {
	obs.C("markov_solve_kron_total").Inc()
	rungs := []guard.Attempt[momentSolution]{
		{Name: "kron-krylov", Run: func(ctx context.Context) (momentSolution, error) { return engine().momentsKrylov(ctx) }},
		{Name: "kron-uniformization", Run: func(ctx context.Context) (momentSolution, error) { return engine().momentsUniformized(ctx) }},
		{Name: "kron-mc", Degraded: true, Run: func(ctx context.Context) (momentSolution, error) { return engine().momentsMC(ctx) }},
	}
	if closed != nil {
		renewal := guard.Attempt[momentSolution]{Name: "kron-renewal", Run: func(context.Context) (momentSolution, error) {
			m1, m2 := closed()
			return momentSolution{m1: m1, m2: m2}, nil
		}}
		rungs = append([]guard.Attempt[momentSolution]{renewal}, rungs...)
	}
	b := guard.Block[momentSolution]{
		Name: "markov/absorption-moments",
		Accept: func(s momentSolution) error {
			if err := acceptMoments(s); err != nil || s.h == nil {
				return err
			}
			return engine().acceptResiduals(s)
		},
		Primary:    rungs[0],
		Alternates: rungs[1:],
	}
	res, err := b.Do(ctx)
	if err != nil {
		return 0, 0, err
	}
	return res.Value.m1, res.Value.m2, nil
}

// momentsKrylov is the kron-krylov rung: the two moment systems on
// right-preconditioned BiCGSTAB, the two solves sharing one iteration
// budget.
func (m *MatrixFree) momentsKrylov(ctx context.Context) (momentSolution, error) {
	rhs := make([]float64, m.dim)
	for i := range rhs {
		rhs[i] = -1
	}
	opts := linalg.KrylovOpts{
		MaxIters: kronMaxIters,
		Tol:      KronMomentTol,
		NormA:    2 * m.gamma,
		Precond:  m.spec.Precond,
	}
	h, it1, err := linalg.SolveBiCGSTAB(m.op, rhs, opts)
	m.kiters.Add(int64(it1))
	if err != nil {
		return momentSolution{}, guard.Numericalf("markov: kron first-moment BiCGSTAB: %v", err)
	}
	if err := ctx.Err(); err != nil {
		return momentSolution{}, err
	}
	for i := range rhs {
		rhs[i] = -2 * h[i]
	}
	opts.MaxIters = max(1, kronMaxIters-it1)
	h2, it2, err := linalg.SolveBiCGSTAB(m.op, rhs, opts)
	m.kiters.Add(int64(it2))
	if err != nil {
		return momentSolution{}, guard.Numericalf("markov: kron second-moment BiCGSTAB: %v", err)
	}
	return momentSolution{m1: h[m.spec.Start], m2: h2[m.spec.Start], h: h, h2: h2}, nil
}

// acceptMoments is the ladder's acceptance test on the moments themselves:
// finiteness and moment consistency (E[T] ≥ 0 and E[T²] ≥ E[T]², Jensen,
// which holds for the exact moments and every empirical estimate alike).
func acceptMoments(s momentSolution) error {
	if math.IsNaN(s.m1) || math.IsInf(s.m1, 0) || math.IsNaN(s.m2) || math.IsInf(s.m2, 0) {
		return guard.Rejectedf("non-finite moments E[T]=%v, E[T²]=%v", s.m1, s.m2)
	}
	if s.m1 < 0 || s.m2 < s.m1*s.m1*(1-1e-9) {
		return guard.Rejectedf("inconsistent moments E[T]=%v, E[T²]=%v", s.m1, s.m2)
	}
	return nil
}

// acceptResiduals is the rest of the acceptance test for a rung that
// exposes its solution vectors: the normwise residuals of both systems,
// with ‖Q_T‖∞ bounded by 2γ (every row's diagonal and off-diagonal mass are
// each at most the maximum out-rate).
func (m *MatrixFree) acceptResiduals(s momentSolution) error {
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

// momentsUniformized is the kron-uniformization rung: exact moments from
// the transient-mass sums of the operator-stepped absorption sequence. A
// start that cannot reach absorption fails the rung at once: its transient
// mass never decays, and the sums would run to maxUnifSteps.
func (m *MatrixFree) momentsUniformized(ctx context.Context) (momentSolution, error) {
	ok, err := m.absorptionReachable(ctx)
	if err != nil {
		return momentSolution{}, err
	}
	if !ok {
		return momentSolution{}, guard.Numericalf("markov: absorption is unreachable from state %d", m.spec.Start)
	}
	return uniformizedMoments(ctx, m.NewAbsorptionSequence())
}

// absorptionReachable reports whether Start reaches a state with a positive
// absorption rate, by a breadth-first search over the operator's graph:
// each round applies Q_Tᵀ to the indicator of the states reached so far,
// and every unreached state whose entry comes out positive has an edge from
// them. The vector stays an indicator, so no path probability is carried
// and none can underflow on a long path. A round is one operator
// application, and there are as many as the reachable set is deep; from
// the cube's entry state, which absorbs directly, there are none.
func (m *MatrixFree) absorptionReachable(ctx context.Context) (bool, error) {
	reached := make([]float64, m.dim)
	next := make([]float64, m.dim)
	reached[m.spec.Start] = 1
	for {
		for i, u := range m.spec.AbsorbIdx {
			if m.spec.AbsorbRate[i] > 0 && reached[u] > 0 {
				return true, nil
			}
		}
		if err := ctx.Err(); err != nil {
			return false, err
		}
		m.op.MulVecTransInto(next, reached)
		grew := false
		for u, v := range next {
			if reached[u] == 0 && v > 0 {
				reached[u], grew = 1, true
			}
		}
		if !grew {
			return false, nil
		}
	}
}

// uniformizedMoments sums the transient masses s_k of q. With P = I + Q/γ,
// the absorption step count N satisfies E[N] = Σ_k s_k and
// E[N(N+1)] = 2·Σ_k (k+1)·s_k, and the absorption time T (a random Exp(γ)
// sum of N terms) has E[T] = E[N]/γ and E[T²] = E[N(N+1)]/γ². The route
// checks probability-mass conservation as it sums: the transient mass must
// stay in [0, 1] and never grow.
func uniformizedMoments(ctx context.Context, q *AbsorptionSequence) (momentSolution, error) {
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

// momentsMC is the last-resort rung: the deterministic jump-chain estimate
// with rows enumerated on the fly — no per-state tables, O(1) memory beyond
// the replication state. It is an estimate, not a solve: results carry
// O(1/√reps) noise and the rung is flagged Degraded so advice built on it is
// labelled accordingly.
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
// Laplace transform and the absorption sequence instead; this Krylov sweep
// stays as the independent reference the tests and the benchmark's own
// assembly check them against.
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
