package rbmodel

import (
	"context"
	"fmt"
	"sync"

	"recoveryblocks/internal/markov"
)

// MaxExactProcesses bounds the exact solvers overall. The moment pair, the
// deadline miss and the quantiles come from the renewal recursion at every
// size: its count form for partially-exchangeable rates (often a few
// hundred cells) and its cube form otherwise, O(n·2^n) per pass. The moment
// pair takes one real pass over two length-2^n vectors (under a second at
// n = 24); a deadline miss takes 44 complex passes of the Laplace transform
// (transform.go) over two such vectors and a third of denominators. The
// grids (DensityX, CDFX) step by uniformization the same two forms as
// operators: the count operator over the cells, or the matrix-free
// Kronecker engine — the transient generator applied as per-process 2×2
// factors in O(n·2^n) flops with O(2^n) vectors (markov.MatrixFree). The
// bound is set by the memory and time of length-2^n vectors: n = 24 means
// 128 MiB per vector and about half a second per pass. Beyond it, use
// SymmetricModel (O(n) states) or the discrete-event simulator.
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
// The moment pair and the point transients (deadline miss, quantile, decay
// rate) come from the renewal recursion in closed form, and the grid
// transients and the uniformization alternate from an operator, each in one
// form picked by lumpability alone (see Route): over class counts when the
// rates lump, over all 2^n subsets otherwise. The moment ladder's
// alternates run on the Kronecker engine over the cube whatever the form.
// Each vector and operator is built on its first use.
type AsyncModel struct {
	P Params
	// cls is the class partition when the rates lump, else nil: it picks the
	// count form of the recursions and the grid operator over the cube form.
	cls *classes
	// ones is the all-ones cube vertex.
	ones int

	engineOnce sync.Once
	eng        *kronEngine
	gridOnce   sync.Once
	grid       *markov.MatrixFree
	lapOnce    sync.Once
	lap        *transform
}

// NewAsync validates p and builds the model. Its form is picked by
// lumpability alone: the count form when the rates lump onto class counts,
// the cube form otherwise. NewAsync builds neither operator nor recursion
// vector.
func NewAsync(p Params) (*AsyncModel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.N()
	if n > MaxExactProcesses {
		return nil, fmt.Errorf("rbmodel: n = %d exceeds MaxExactProcesses = %d (use SymmetricModel or the simulator)", n, MaxExactProcesses)
	}
	return build(p, lumpClasses(p)), nil
}

// build assembles a model of validated p in the count form over cls's
// cells, or in the cube form when cls is nil.
func build(p Params, cls *classes) *AsyncModel {
	return &AsyncModel{P: p, cls: cls, ones: 1<<p.N() - 1}
}

// engine returns the Kronecker engine over the cube, built on first use.
func (m *AsyncModel) engine() *kronEngine {
	m.engineOnce.Do(func() { m.eng = newKronEngine(m.P) })
	return m.eng
}

// gridEngine returns the engine the grids and the uniformization rung
// step, built on first use: the count operator when the rates lump, else
// the Kronecker engine's. Both step at γ = entryRate, the entry's out-rate.
func (m *AsyncModel) gridEngine() *markov.MatrixFree {
	m.gridOnce.Do(func() {
		if m.cls != nil {
			m.grid = newCountEngine(m.cls, entryRate(m.P))
		} else {
			m.grid = m.engine().mf
		}
	})
	return m.grid
}

// transform returns the Laplace transform of X, its denominator vector
// built on the first transient question.
func (m *AsyncModel) transform() *transform {
	m.lapOnce.Do(func() { m.lap = newTransform(m.P, m.cls) })
	return m.lap
}

// maxEnumerateProcesses bounds EnumerateAsync: the chain holds every
// transition of the cube, up to n + C(n,2) per vertex, about 140 MB at
// n = 16.
const maxEnumerateProcesses = 16

// EnumerateAsync builds the full model's 2^n+1-state chain as markov.CTMC
// rows, in AsyncModel's state indexing, at any n up to
// maxEnumerateProcesses: the reference the count and cube forms are tested
// against. No answer path builds it; DOT enumerates the same rows.
func EnumerateAsync(p Params) (*markov.CTMC, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n := p.N(); n > maxEnumerateProcesses {
		return nil, fmt.Errorf("rbmodel: n = %d exceeds the enumeration bound %d", n, maxEnumerateProcesses)
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

// Route names the model's form: "count" when the rates lump onto class
// counts, "cube" otherwise. It picks the closed forms of the moment pair,
// the deadline miss and the quantiles, and the operator DensityX, CDFX and
// the transient questions' uniformization alternate step.
func (m *AsyncModel) Route() string {
	if m.cls != nil {
		return "count"
	}
	return "cube"
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

// MeanX returns E[X], the expected interval between two successive recovery
// lines, exactly: MeanXCtx under a background context.
func (m *AsyncModel) MeanX() (float64, error) {
	return m.MeanXCtx(context.Background())
}

// MomentsX returns E[X] and E[X²]: MomentsXCtx under a background context.
func (m *AsyncModel) MomentsX() (m1, m2 float64, err error) {
	return m.MomentsXCtx(context.Background())
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
	q := m.gridEngine().NewAbsorptionSequence()
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
