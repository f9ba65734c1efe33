package rbmodel

import (
	"context"
	"fmt"

	"recoveryblocks/internal/markov"
)

// MaxEnumeratedProcesses is the largest n whose chain NewAsync enumerates
// into markov.CTMC rows: its 2^n transient states stay below
// markov.SparseCutoff, so every solve is a dense LU. Above it the model
// lumps onto orbit counts when the rates allow, or runs the matrix-free
// Kronecker engine, which already beats the enumerated CSR route from n = 8
// (moment pair at n = 16 on a distinct-rate ramp: about 0.32 s against
// 4.4–4.7 s with the chain's build, on a 2-vCPU Xeon).
const MaxEnumeratedProcesses = 7

// MaxExactProcesses bounds the exact solvers overall. Past
// MaxEnumeratedProcesses, orbit lumping collapses partially-exchangeable
// rate vectors onto per-class counts (often a few hundred states), and the
// general case runs the matrix-free Kronecker engine — the transient
// generator applied as per-process 2×2 factors in O(n·2^n) flops with O(2^n)
// vectors, solved by preconditioned BiCGSTAB (eight such vectors, with
// restarted GMRES as its fallback) and an operator-stepped uniformization
// (markov.MatrixFree). The bound is set by the memory and time of length-2^n
// vectors: n = 24 means 128 MiB per vector and exact moments in minutes on
// one core. Beyond it, use SymmetricModel (O(n)
// states) or the discrete-event simulator.
const MaxExactProcesses = 24

// AsyncModel is the paper's full continuous-time Markov model of
// asynchronous recovery blocks for n processes (Section 2.2, Figure 2).
//
// State indexing follows the paper exactly:
//
//	state 0           = S_r, the entry state (the r-th recovery line just formed);
//	state mask+1      = intermediate state (x_1..x_n) with mask = Σ x_i·2^(i-1),
//	                    for every mask except all-ones;
//	state 2^n         = S_{r+1}, the absorbing state (next recovery line formed).
//
// x_i = 1 means the previous action of P_i was establishing a recovery point;
// x_i = 0 means it was an interaction.
//
// Three backends share this surface, picked at construction by n and the rate
// structure (see Route): the enumerated chain (n ≤ MaxEnumeratedProcesses),
// the orbit-lumped chain (partially-exchangeable rates), and the matrix-free
// Kronecker engine (everything else up to MaxExactProcesses). Exactly one of
// chain, orbit, kron is non-nil.
type AsyncModel struct {
	P     Params
	chain *markov.CTMC
	orbit *OrbitModel
	kron  *kronEngine
	ones  int
}

// NewAsync validates p and picks the backend: the enumerated chain while
// dense LU answers, then orbit lumping when the rate structure allows and
// actually shrinks the space, otherwise the matrix-free Kronecker engine on
// the full cube.
func NewAsync(p Params) (*AsyncModel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.N()
	if n > MaxExactProcesses {
		return nil, fmt.Errorf("rbmodel: n = %d exceeds MaxExactProcesses = %d (use SymmetricModel or the simulator)", n, MaxExactProcesses)
	}
	m := &AsyncModel{P: p, ones: (1 << n) - 1}
	if n <= MaxEnumeratedProcesses {
		m.chain = enumerate(p)
	} else if orb, err := NewOrbit(p); err == nil && orb.NumStates() < markov.KronCutoff {
		m.orbit = orb
	} else {
		m.kron = newKronEngine(p)
	}
	return m, nil
}

// EnumerateAsync builds the full model's 2^n+1-state chain as markov.CTMC
// rows, in AsyncModel's state indexing: the chain NewAsync answers from for
// n ≤ MaxEnumeratedProcesses, and the full-cube reference for the other
// routes at any n up to MaxSplitProcesses, beyond which, like the split
// chain, it would hold every transition of too large a cube.
func EnumerateAsync(p Params) (*markov.CTMC, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n := p.N(); n > MaxSplitProcesses {
		return nil, fmt.Errorf("rbmodel: n = %d exceeds MaxSplitProcesses = %d", n, MaxSplitProcesses)
	}
	return enumerate(p), nil
}

// enumerate installs every cube vertex's cubeRows transitions on a CTMC.
func enumerate(p Params) *markov.CTMC {
	n := p.N()
	c := markov.NewCTMC((1 << n) + 1)
	// Every state emits at most n RP transitions and C(n,2) interaction
	// transitions; pre-sizing the rows keeps the 2^n-state build free of
	// append-reallocation copying.
	c.ReserveDegree(n + n*(n-1)/2)
	c.SetAbsorbing(1 << n)
	for u := 0; u < 1<<n; u++ {
		from := stateOfVertex(u, n)
		cubeRows(p, u, func(to int, rate float64) { c.AddRate(from, stateOfVertex(to, n), rate) })
	}
	return c
}

// stateOfVertex maps cube vertex u to its paper state index: the all-ones
// vertex is the entry S_r, u = −1 the absorbing S_{r+1}, and every other
// vertex the intermediate state u+1.
func stateOfVertex(u, n int) int {
	switch {
	case u < 0:
		return 1 << n
	case u == 1<<n-1:
		return 0
	default:
		return u + 1
	}
}

// cubeRows enumerates cube vertex u's transitions under rules R1–R4, with
// the all-ones vertex standing for the entry S_r and to < 0 meaning
// absorption. It is the one place the rules are written down: the
// enumerated chain, the DOT rendering and the matrix-free jump-chain rung
// all read them from here.
func cubeRows(p Params, u int, yield func(to int, rate float64)) {
	n := p.N()
	ones := 1<<n - 1
	// R1: P_i establishes a recovery point (x_i: 0→1). If that completes the
	// all-ones vector, a recovery line has formed: absorb.
	for i := 0; i < n; i++ {
		bit := 1 << i
		if u&bit != 0 {
			continue
		}
		if next := u | bit; next == ones {
			yield(-1, p.Mu[i])
		} else {
			yield(next, p.Mu[i])
		}
	}
	if u == ones {
		// R4: a fresh recovery point by any process immediately forms the
		// next recovery line.
		yield(-1, p.SumMu())
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			rate := p.Lambda[i][j]
			if rate == 0 {
				continue
			}
			bi, bj := u&(1<<i) != 0, u&(1<<j) != 0
			switch {
			case bi && bj: // R2: both roll to "last action was interaction"
				yield(u&^(1<<i|1<<j), rate)
			case bi: // R3: only the RP-fresh side loses its mark
				yield(u&^(1<<i), rate)
			case bj:
				yield(u&^(1<<j), rate)
				// both zero: the interaction changes nothing (no transition)
			}
		}
	}
}

// Route reports which backend answers for this model: "enumerated", "orbit",
// or "kron".
func (m *AsyncModel) Route() string {
	switch {
	case m.chain != nil:
		return "enumerated"
	case m.orbit != nil:
		return "orbit"
	default:
		return "kron"
	}
}

// Entry returns the entry state index (paper's state 0 = S_r).
func (m *AsyncModel) Entry() int { return 0 }

// Absorbing returns the absorbing state index (paper's state m = 2^n).
func (m *AsyncModel) Absorbing() int { return 1 << m.P.N() }

// NumStates returns 2^n + 1, as derived in Section 2.2.
func (m *AsyncModel) NumStates() int { return (1 << m.P.N()) + 1 }

// StateOf maps an intermediate bitmask to its paper state index.
// It panics on the all-ones mask, which is not an intermediate state.
func (m *AsyncModel) StateOf(mask int) int {
	if mask == m.ones {
		panic("rbmodel: all-ones mask is the entry/absorbing state, not intermediate")
	}
	return mask + 1
}

// MaskOf inverts StateOf for intermediate states.
func (m *AsyncModel) MaskOf(state int) int {
	if state <= 0 || state > m.ones {
		panic("rbmodel: state is not intermediate")
	}
	return state - 1
}

// Chain exposes the underlying CTMC of the enumerated backend. It returns
// nil on the orbit and kron routes, which never build one — their state
// spaces are the lumped cells and the implicit cube. EnumerateAsync builds
// the chain at any size a caller can afford.
func (m *AsyncModel) Chain() *markov.CTMC { return m.chain }

// MeanX returns E[X], the expected interval between two successive recovery
// lines, by solving the absorbing chain exactly.
func (m *AsyncModel) MeanX() (float64, error) {
	m1, _, err := m.MomentsX()
	return m1, err
}

// MomentsX returns E[X] and E[X²].
func (m *AsyncModel) MomentsX() (m1, m2 float64, err error) {
	switch {
	case m.chain != nil:
		return m.chain.AbsorptionMoments(m.Entry())
	case m.orbit != nil:
		return m.orbit.MomentsX()
	default:
		return m.kron.mf.AbsorptionMoments()
	}
}

// VarX returns Var[X].
func (m *AsyncModel) VarX() (float64, error) {
	m1, m2, err := m.MomentsX()
	if err != nil {
		return 0, err
	}
	return m2 - m1*m1, nil
}

// DensityX evaluates the paper's f_x(t) (Figure 6) at the given times via
// uniformization of the Chapman–Kolmogorov equation: one absorption sequence
// answers every time.
func (m *AsyncModel) DensityX(times []float64) []float64 {
	f := make([]float64, len(times))
	m.transientAt(times, nil, f)
	return f
}

// CDFX evaluates P(X ≤ t) at the given times, from one absorption sequence
// like DensityX.
func (m *AsyncModel) CDFX(times []float64) []float64 {
	cdf := make([]float64, len(times))
	m.transientAt(times, cdf, nil)
	return cdf
}

// transientAt fills cdf and density, either of which may be nil, at every
// time from one absorption sequence.
func (m *AsyncModel) transientAt(times, cdf, density []float64) {
	q := m.absorptionSequence()
	for i, t := range times {
		// A background context never cancels, so At cannot fail here.
		F, f, _ := q.At(context.Background(), t, transientEps)
		if cdf != nil {
			cdf[i] = F
		}
		if density != nil {
			density[i] = f
		}
	}
}

// MeanLWald returns E[L_i] for every process via the optional-stopping
// identity E[L_i] = μ_i·E[X]: recovery points of P_i arrive as a Poisson
// stream of rate μ_i independent of the interaction streams, and X is a
// stopping time of the joint event process, so the expected count of P_i's
// RPs during (0, X] — including the RP that completes the recovery line —
// is μ_i·E[X].
func (m *AsyncModel) MeanLWald() ([]float64, error) {
	ex, err := m.MeanX()
	if err != nil {
		return nil, err
	}
	out := make([]float64, m.P.N())
	for i, mu := range m.P.Mu {
		out[i] = mu * ex
	}
	return out, nil
}

// OccupancyByOnes returns the expected time before absorption spent in
// states with exactly u ones (u indexed 0..n), with the entry state counted
// under u = n. Used to analyze where the interval X is spent.
func (m *AsyncModel) OccupancyByOnes() ([]float64, error) {
	n := m.P.N()
	switch {
	case m.orbit != nil:
		return m.orbit.occupancyByOnes()
	case m.kron != nil:
		occ, err := m.kron.mf.ExpectedOccupancy()
		if err != nil {
			return nil, err
		}
		out := make([]float64, n+1)
		for s, v := range occ {
			out[popcount(s)] += v // the all-ones vertex is the entry: u = n
		}
		return out, nil
	}
	occ, err := m.chain.ExpectedOccupancy(m.Entry())
	if err != nil {
		return nil, err
	}
	out := make([]float64, n+1)
	out[n] += occ[m.Entry()]
	for mask := 0; mask < m.ones; mask++ {
		out[popcount(mask)] += occ[m.StateOf(mask)]
	}
	return out, nil
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}
