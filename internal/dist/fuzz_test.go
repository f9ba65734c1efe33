package dist

import (
	"math"
	"testing"
)

// FuzzSubstream pins the contract the whole deterministic Monte Carlo engine
// rests on, over arbitrary (seed, index) pairs:
//
//   - determinism: Substream(seed, index) always yields the same sequence;
//   - independence: distinct indices under one seed derive distinct
//     generator states (and hence distinct sequences);
//   - range: every variate stays inside its documented support for
//     arbitrary-but-valid parameters derived from the fuzz input.
func FuzzSubstream(f *testing.F) {
	f.Add(int64(1983), uint16(0), uint16(1))
	f.Add(int64(0), uint16(0), uint16(0))
	f.Add(int64(-1), uint16(65535), uint16(1))
	f.Add(int64(math.MaxInt64), uint16(7), uint16(8))
	f.Fuzz(func(t *testing.T, seed int64, idxA, idxB uint16) {
		a1 := Substream(seed, int(idxA))
		a2 := Substream(seed, int(idxA))
		if a1.s != a2.s {
			t.Fatal("Substream is not deterministic: same (seed, index), different state")
		}
		for i := 0; i < 16; i++ {
			x, y := a1.Uint64(), a2.Uint64()
			if x != y {
				t.Fatalf("sequence diverged at draw %d: %d vs %d", i, x, y)
			}
		}

		if idxA != idxB {
			b := Substream(seed, int(idxB))
			fresh := Substream(seed, int(idxA))
			if fresh.s == b.s {
				// The 256-bit states are seeded from a 64-bit mix of
				// (seed, index); equal states mean a mix collision, which
				// would silently correlate two replications.
				t.Fatalf("index %d and %d derived identical streams under seed %d", idxA, idxB, seed)
			}
		}

		// Range invariants on a stream whose position depends on the input.
		s := Substream(seed, int(idxA))
		rate := 0.5 + float64(idxB%64) // positive, finite
		for i := 0; i < 32; i++ {
			if u := s.Float64(); u < 0 || u >= 1 {
				t.Fatalf("Float64 out of [0,1): %v", u)
			}
			if e := s.Exp(rate); e < 0 || math.IsNaN(e) || math.IsInf(e, 0) {
				t.Fatalf("Exp(%v) out of support: %v", rate, e)
			}
			n := 1 + int(idxA%97)
			if v := s.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) out of range: %d", n, v)
			}
			if p := s.Poisson(float64(idxA%200) / 3); p < 0 {
				t.Fatalf("Poisson returned negative count %d", p)
			}
			w := []float64{0, float64(idxA%5) + 1, 0.25, 0}
			if c := s.ChoiceTotal(w, w[1]+w[2]); w[c] == 0 {
				t.Fatalf("ChoiceTotal picked zero-weight index %d", c)
			}
		}
	})
}
