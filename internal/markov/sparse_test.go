package markov

import (
	"math"
	"testing"
)

// buildAbsorbing assembles a CTMC shaped like the paper's full model on a
// bitmask state space: RP events set bits (rates mu[i]), interactions clear
// pairs (rate lambda), the all-ones completion absorbs. State 2^n is the
// absorbing state, masks 0..2^n−2 are intermediate, and the all-ones mask
// doubles as the entry state.
func buildAbsorbing(mu []float64, lambda float64) *CTMC {
	n := len(mu)
	ones := 1<<n - 1
	c := NewCTMC(1<<n + 1)
	c.ReserveDegree(n + n*(n-1)/2)
	c.SetAbsorbing(1 << n)
	for mask := 0; mask <= ones; mask++ {
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				continue
			}
			next := mask | 1<<i
			if next == ones {
				c.AddRate(mask, 1<<n, mu[i])
			} else {
				c.AddRate(mask, next, mu[i])
			}
		}
		if mask == ones {
			for i := 0; i < n; i++ {
				c.AddRate(mask, 1<<n, mu[i])
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				bi, bj := mask&(1<<i) != 0, mask&(1<<j) != 0
				if !bi && !bj {
					continue
				}
				c.AddRate(mask, mask&^(1<<i|1<<j), lambda)
			}
		}
	}
	return c
}

// TestSparseMatchesDenseMoments is the core equivalence gate of the sparse
// route: on chains large enough to exercise it, both solvers must agree to
// the backward-error tolerance — for uniform rates (exactly lumpable levels,
// the fast path) and for strongly asymmetric rates (where the coarse level
// is only an approximation and the smoother must carry more).
func TestSparseMatchesDenseMoments(t *testing.T) {
	cases := []struct {
		name   string
		mu     []float64
		lambda float64
	}{
		{"n8-uniform", uniformRates(8, 1), 2.0 / 7},
		{"n9-asym", rampRates(9, 0.5, 2.5), 2.0 / 8},
		{"n8-light", uniformRates(8, 1), 0.1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := buildAbsorbing(tc.mu, tc.lambda)
			start := 1<<len(tc.mu) - 1 // entry = all-ones mask
			dm1, dm2, err := c.AbsorptionMomentsDense(start)
			if err != nil {
				t.Fatal(err)
			}
			sm1, sm2, err := c.AbsorptionMomentsSparse(start)
			if err != nil {
				t.Fatal(err)
			}
			if rel(dm1, sm1) > 1e-8 {
				t.Errorf("m1: dense %v vs sparse %v (rel %v)", dm1, sm1, rel(dm1, sm1))
			}
			if rel(dm2, sm2) > 1e-8 {
				t.Errorf("m2: dense %v vs sparse %v (rel %v)", dm2, sm2, rel(dm2, sm2))
			}
		})
	}
}

// TestSparseSolveUnreachableAbsorption pins the failure mode: a chain with a
// transient trap must error, not hang or return garbage.
func TestSparseSolveUnreachableAbsorption(t *testing.T) {
	c := NewCTMC(300)
	c.SetAbsorbing(299)
	for i := 0; i < 297; i++ {
		c.AddRate(i, i+1, 1)
		c.AddRate(i+1, i, 0.5)
	}
	// States 0..297 form a chain that never reaches 299; 298 does.
	c.AddRate(298, 299, 1)
	if _, _, err := c.AbsorptionMomentsSparse(0); err == nil {
		t.Fatal("unreachable absorption must fail")
	}
}

func uniformRates(n int, v float64) []float64 {
	mu := make([]float64, n)
	for i := range mu {
		mu[i] = v
	}
	return mu
}

// rampRates spreads rates linearly from lo to hi — a strongly asymmetric
// vector that breaks exact lumpability.
func rampRates(n int, lo, hi float64) []float64 {
	mu := make([]float64, n)
	for i := range mu {
		mu[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return mu
}

func rel(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Abs(a))
}
