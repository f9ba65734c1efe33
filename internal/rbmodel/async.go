package rbmodel

import (
	"fmt"
	"math"

	"recoveryblocks/internal/markov"
)

// MaxEnumeratedProcesses bounds the enumerated chain backend (2^n + 1 states
// held as markov.CTMC rows). Small chains solve by dense LU; above
// markov.SparseCutoff transient states the moment and occupancy solves go
// through the CSR aggregated Gauss–Seidel route, which solves n = 16 (65 537
// states) in 1.5–5.5 s for the moment pair (uniform rates to a distinct-rate
// ramp at ρ = 1, on a 2-vCPU Xeon) where the dense factorization was already
// intractable at n = 12. The bound is set by build memory — the chain
// stores ~n²/2 transitions per state — which is also why the larger regime
// below never enumerates at all.
const MaxEnumeratedProcesses = 16

// MaxExactProcesses bounds the exact solvers overall. Beyond
// MaxEnumeratedProcesses the model switches backends instead of giving up:
// orbit lumping collapses partially-exchangeable rate vectors onto per-class
// counts (often a few hundred states), and the general case runs the
// matrix-free Kronecker engine — the transient generator applied as
// per-process 2×2 factors in O(n·2^n) flops with O(2^n) vectors, solved by
// preconditioned restarted GMRES and Krylov exponentials (markov.MatrixFree).
// The bound is now set by the memory and time of length-2^n vectors: n = 24
// means 128 MiB per vector and exact moments in minutes on one core. Beyond
// it, use SymmetricModel (O(n) states) or the discrete-event simulator.
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
// structure (see Route): the enumerated chain (n ≤ MaxEnumeratedProcesses,
// unchanged solve paths), the orbit-lumped chain (partially-exchangeable
// rates), and the matrix-free Kronecker engine (everything else up to
// MaxExactProcesses). Exactly one of chain, orbit, kron is non-nil.
type AsyncModel struct {
	P     Params
	chain *markov.CTMC
	orbit *OrbitModel
	kron  *kronEngine
	ones  int
}

// NewAsync validates p and assembles the chain from transition rules R1–R4.
func NewAsync(p Params) (*AsyncModel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.N()
	if n > MaxExactProcesses {
		return nil, fmt.Errorf("rbmodel: n = %d exceeds MaxExactProcesses = %d (use SymmetricModel or the simulator)", n, MaxExactProcesses)
	}
	m := &AsyncModel{P: p, ones: (1 << n) - 1}
	if n > MaxEnumeratedProcesses {
		// Past the enumeration wall: lump onto per-class counts when the rate
		// structure allows and actually shrinks the space, otherwise run the
		// matrix-free Kronecker engine on the full cube.
		if orb, err := NewOrbit(p); err == nil && orb.NumStates() < markov.KronCutoff {
			m.orbit = orb
		} else {
			m.kron = newKronEngine(p)
		}
		return m, nil
	}
	m.chain = markov.NewCTMC((1 << n) + 1)
	// Every state emits at most n RP transitions and C(n,2) interaction
	// transitions; pre-sizing the rows keeps the 2^n-state build free of
	// append-reallocation copying.
	m.chain.ReserveDegree(n + n*(n-1)/2)
	m.chain.SetAbsorbing(m.Absorbing())
	m.buildEntry()
	for mask := 0; mask < m.ones; mask++ {
		m.buildIntermediate(mask)
	}
	return m, nil
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
// spaces are the lumped cells and the implicit cube.
func (m *AsyncModel) Chain() *markov.CTMC { return m.chain }

// buildEntry installs the transitions out of S_r: rule R4 (a fresh recovery
// point by any process immediately forms the next recovery line) and rule R2
// applied to the all-ones state (any interaction breaks the pair out of the
// line).
func (m *AsyncModel) buildEntry() {
	n := m.P.N()
	for k := 0; k < n; k++ {
		m.chain.AddRate(m.Entry(), m.Absorbing(), m.P.Mu[k]) // R4
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rate := m.P.Lambda[i][j]; rate > 0 {
				to := m.ones &^ (1<<i | 1<<j)
				m.chain.AddRate(m.Entry(), m.StateOf(to), rate) // R2 at entry
			}
		}
	}
}

// buildIntermediate installs R1–R3 for one intermediate mask.
func (m *AsyncModel) buildIntermediate(mask int) {
	n := m.P.N()
	u := m.StateOf(mask)
	// R1: P_i establishes a recovery point (x_i: 0→1). If that completes the
	// all-ones vector, a recovery line has formed: absorb.
	for i := 0; i < n; i++ {
		if mask&(1<<i) != 0 {
			continue
		}
		next := mask | 1<<i
		if next == m.ones {
			m.chain.AddRate(u, m.Absorbing(), m.P.Mu[i])
		} else {
			m.chain.AddRate(u, m.StateOf(next), m.P.Mu[i])
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			rate := m.P.Lambda[i][j]
			if rate == 0 {
				continue
			}
			bi, bj := mask&(1<<i) != 0, mask&(1<<j) != 0
			switch {
			case bi && bj: // R2: both roll to "last action was interaction"
				m.chain.AddRate(u, m.StateOf(mask&^(1<<i|1<<j)), rate)
			case bi && !bj: // R3: only the RP-fresh side loses its mark
				m.chain.AddRate(u, m.StateOf(mask&^(1<<i)), rate)
			case !bi && bj:
				m.chain.AddRate(u, m.StateOf(mask&^(1<<j)), rate)
				// both zero: the interaction changes nothing (no transition)
			}
		}
	}
}

// entryDistribution returns the point mass on the entry state.
func (m *AsyncModel) entryDistribution() []float64 {
	pi := make([]float64, m.NumStates())
	pi[m.Entry()] = 1
	return pi
}

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

// DensityX evaluates the paper's f_x(t) (Figure 6) at the given
// nondecreasing times via uniformization of the Chapman–Kolmogorov equation
// (a Krylov-exponential sweep with a uniformization fallback on the kron
// route). On a hard numerical failure of the matrix-free sweep every entry is
// NaN; error-aware callers use densityX.
func (m *AsyncModel) DensityX(times []float64) []float64 {
	out, err := m.densityX(times)
	if err != nil {
		return nanVec(len(times))
	}
	return out
}

func (m *AsyncModel) densityX(times []float64) ([]float64, error) {
	switch {
	case m.chain != nil:
		return m.chain.AbsorptionDensity(m.entryDistribution(), times, transientEps), nil
	case m.orbit != nil:
		c := m.orbit
		return c.Chain().AbsorptionDensity(pointMass(c.NumStates(), c.Entry()), times, transientEps), nil
	default:
		return m.kron.mf.AbsorptionDensity(times, transientEps)
	}
}

// CDFX evaluates P(X ≤ t) at the given nondecreasing times. The NaN
// convention matches DensityX.
func (m *AsyncModel) CDFX(times []float64) []float64 {
	out, err := m.cdfX(times)
	if err != nil {
		return nanVec(len(times))
	}
	return out
}

func (m *AsyncModel) cdfX(times []float64) ([]float64, error) {
	switch {
	case m.chain != nil:
		return m.chain.AbsorptionCDF(m.entryDistribution(), times, transientEps), nil
	case m.orbit != nil:
		c := m.orbit
		return c.Chain().AbsorptionCDF(pointMass(c.NumStates(), c.Entry()), times, transientEps), nil
	default:
		return m.kron.mf.AbsorptionCDF(times, transientEps)
	}
}

func nanVec(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.NaN()
	}
	return out
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
