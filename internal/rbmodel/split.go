package rbmodel

import (
	"fmt"

	"recoveryblocks/internal/markov"
)

// SplitChain is the paper's discrete Markov chain Y_d for a chosen target
// process P_t (Section 2.3, Figure 4). The continuous model is uniformized
// with the normalization factor G = Σ_{i<j} λ_ij + Σ_k μ_k, so every epoch of
// Y_d is one event of the superposed Poisson event process (an RP of some
// process or an interaction of some pair). Every state whose vector has
// x_t = 1 is split in two:
//
//	S_u'  — entered by events that are recovery points of P_t
//	S_u'' — entered by every other event
//
// (self-loop events included: an RP by P_t while x_t is already 1 saves a
// state and re-enters S_u'). The absorbing state is split the same way.
// E[L_t] is then the expected number of arrivals into primed states before
// absorption, read off the fundamental matrix.
type SplitChain struct {
	P      Params
	Target int
	chain  *markov.DTMC

	entry         int
	absorbPrime   int
	absorbOther   int
	primeStates   []int // all S_u' indices
	numStates     int
	idxSingle     map[int]int // mask (x_t = 0) → state
	idxPrime      map[int]int // mask (x_t = 1) → S'
	idxDoublePrim map[int]int // mask (x_t = 1) → S''
}

// MaxSplitProcesses bounds the split chain. MeanL solves one dense system of
// ~3·2^(n−1) unknowns, with no matrix-free counterpart: about 0.9 s at
// n = 10 on a 2-vCPU host, about 8× more per further process (the LU is
// cubic), and the matrix alone is 4.8 GB at n = 14. Past the bound E[L_t]
// comes from the Wald identity instead (MeanLWald).
const MaxSplitProcesses = 10

// NewSplitChain builds Y_d for target process t (0-based).
func NewSplitChain(p Params, target int) (*SplitChain, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.N()
	if target < 0 || target >= n {
		return nil, fmt.Errorf("rbmodel: target %d out of range", target)
	}
	if n > MaxSplitProcesses {
		return nil, fmt.Errorf("rbmodel: n = %d exceeds MaxSplitProcesses = %d", n, MaxSplitProcesses)
	}
	s := &SplitChain{
		P:             p,
		Target:        target,
		idxSingle:     make(map[int]int),
		idxPrime:      make(map[int]int),
		idxDoublePrim: make(map[int]int),
	}
	s.enumerate()
	s.build()
	return s, nil
}

func (s *SplitChain) enumerate() {
	n := s.P.N()
	ones := (1 << n) - 1
	tbit := 1 << s.Target
	next := 0
	alloc := func() int { next++; return next - 1 }

	s.entry = alloc() // the entry state is never re-entered, so it stays single
	for mask := 0; mask < ones; mask++ {
		if mask&tbit != 0 {
			s.idxPrime[mask] = alloc()
			s.idxDoublePrim[mask] = alloc()
			s.primeStates = append(s.primeStates, s.idxPrime[mask])
		} else {
			s.idxSingle[mask] = alloc()
		}
	}
	s.absorbPrime = alloc()
	s.absorbOther = alloc()
	s.numStates = next
}

// stateFor resolves the destination index for an arrival into the given mask,
// where rpOfTarget reports whether the arriving event is an RP of P_t.
// all-ones masks map to the split absorbing states.
func (s *SplitChain) stateFor(mask int, rpOfTarget bool) int {
	n := s.P.N()
	ones := (1 << n) - 1
	if mask == ones {
		if rpOfTarget {
			return s.absorbPrime
		}
		return s.absorbOther
	}
	if mask&(1<<s.Target) != 0 {
		if rpOfTarget {
			return s.idxPrime[mask]
		}
		return s.idxDoublePrim[mask]
	}
	// x_t = 0: arrivals cannot be RPs of P_t (those always set x_t).
	return s.idxSingle[mask]
}

// build assembles the uniformized transition rows. The split copies S_u' and
// S_u” share the underlying vector, hence identical outgoing rows, exactly
// as the paper notes ("both states have the same departure processes").
func (s *SplitChain) build() {
	n := s.P.N()
	ones := (1 << n) - 1
	g := s.P.TotalEventRate()
	d := markov.NewDTMC(s.numStates)
	d.SetAbsorbing(s.absorbPrime)
	d.SetAbsorbing(s.absorbOther)

	row := func(from, mask int) {
		// Recovery-point events of every process.
		for k := 0; k < n; k++ {
			p := s.P.Mu[k] / g
			if mask == ones {
				// Entry state: rule R4 — any RP completes the next line.
				d.AddProb(from, s.stateFor(ones, k == s.Target), p)
				continue
			}
			next := mask | 1<<k // no-op when x_k is already 1 (self-loop event)
			d.AddProb(from, s.stateFor(next, k == s.Target), p)
		}
		// Interaction events of every pair.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				p := s.P.Lambda[i][j] / g
				if p == 0 {
					continue
				}
				bi, bj := mask&(1<<i) != 0, mask&(1<<j) != 0
				next := mask
				switch {
				case bi && bj:
					next = mask &^ (1<<i | 1<<j)
				case bi:
					next = mask &^ (1 << i)
				case bj:
					next = mask &^ (1 << j)
					// both zero: state unchanged (self-loop event)
				}
				d.AddProb(from, s.stateFor(next, false), p)
			}
		}
	}

	row(s.entry, ones)
	for mask := 0; mask < ones; mask++ {
		if mask&(1<<s.Target) != 0 {
			row(s.idxPrime[mask], mask)
			row(s.idxDoublePrim[mask], mask)
		} else {
			row(s.idxSingle[mask], mask)
		}
	}
	s.chain = d
}

// Chain exposes the discrete chain (for inspection and DOT export).
func (s *SplitChain) Chain() *markov.DTMC { return s.chain }

// NumStates returns the size of the split state space.
func (s *SplitChain) NumStates() int { return s.numStates }

// MeanL returns E[L_t]: the expected number of recovery points established
// by the target process between two successive recovery lines, counted as
// arrivals into the primed states (including absorption via P_t's final RP).
// One solve of the fundamental-matrix row answers both parts: the absorbing
// arrivals are the visits of each state times its step into S'.
func (s *SplitChain) MeanL() (float64, error) {
	visits, err := s.chain.ExpectedVisits(s.entry)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, st := range s.primeStates {
		total += visits[st]
	}
	for u, v := range visits {
		for _, e := range s.chain.Transitions(u) {
			if e.To == s.absorbPrime {
				total += v * e.Rate
			}
		}
	}
	return total, nil
}
