// Package dist provides the deterministic random-variate machinery shared by
// every simulator in this repository: a small, fast, seedable generator
// (Stream) with the exponential, Poisson, categorical and Bernoulli variates
// the event processes need, plus the handful of closed-form distribution
// functions the analyses evaluate (MaxExpCDF).
//
// Streams are splittable: Substream(baseSeed, index) derives an independent
// stream for the given replication index by mixing the pair through
// SplitMix64. The derived sequence depends only on (baseSeed, index) — never
// on which goroutine runs the replication or how many workers exist — which
// is what makes the parallel Monte Carlo engine in internal/mc bit-identical
// for every worker count.
package dist

import (
	"math"
	"math/bits"
)

// Stream is a deterministic pseudo-random variate generator. It wraps
// xoshiro256** seeded via SplitMix64, giving a 2^256−1 period and
// state-of-the-art equidistribution at a few nanoseconds per variate. A
// Stream is not safe for concurrent use; give each goroutine its own
// (see Substream).
type Stream struct {
	s [4]uint64
}

// splitmix64 advances the SplitMix64 state and returns the next output.
// It is the recommended seeder for xoshiro and the basis of Substream's
// (seed, index) mixing.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewStream returns a Stream seeded from the given value. Equal seeds yield
// equal sequences.
func NewStream(seed int64) *Stream {
	st := &Stream{}
	x := uint64(seed)
	for i := range st.s {
		st.s[i] = splitmix64(&x)
	}
	return st
}

// Substream returns the stream for replication index under baseSeed. The
// mapping (baseSeed, index) → sequence is fixed: replication i always sees
// the same variates no matter which worker executes it or in what order, so
// any statistic accumulated per replication and merged in index order is
// bit-identical across worker counts. Distinct indices yield streams that
// are independent for all practical purposes (the pair is mixed through two
// SplitMix64 rounds before seeding).
func Substream(baseSeed int64, index int) *Stream {
	x := uint64(baseSeed)
	_ = splitmix64(&x)
	x ^= uint64(index) * 0xbf58476d1ce4e5b9
	_ = splitmix64(&x)
	return NewStream(int64(splitmix64(&x)))
}

// Uint64 returns the next raw 64-bit output (xoshiro256**). It is written
// against the bits.RotateLeft64 intrinsic and kept under the compiler's
// inlining budget on purpose: every variate in the simulators' hot loops
// bottoms out here, and the call overhead would otherwise dominate the
// arithmetic (see BenchmarkAliasSample).
func (s *Stream) Uint64() uint64 {
	s1 := s.s[1]
	r := bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s1
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = bits.RotateLeft64(s.s[3], 45)
	return r
}

// Float64 returns a uniform variate in [0, 1) with 53 random bits.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("dist: Intn with n <= 0")
	}
	// Lemire's multiply-shift rejection method: unbiased without division
	// in the common case.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
// It panics if rate <= 0.
func (s *Stream) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("dist: Exp with rate <= 0")
	}
	// 1 − U ∈ (0, 1], so the logarithm is finite.
	return -math.Log(1-s.Float64()) / rate
}

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool { return s.Float64() < p }

// ChoiceTotal samples an index with probability weights[i] / total, where
// total is the precomputed Σ weights: the event-category selection in the
// simulators' inner loops keeps the total alongside the weights. Zero
// weights are never chosen. It panics if the weights are empty or total is
// non-positive.
func (s *Stream) ChoiceTotal(weights []float64, total float64) int {
	if len(weights) == 0 || total <= 0 {
		panic("dist: ChoiceTotal needs positive total weight")
	}
	u := s.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	// Float round-off can leave u == total; return the last positive weight.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Poisson returns a Poisson variate with the given mean. For small means it
// uses Knuth's product method; for large means, the PTRS transformed
// rejection of Hörmann (1993), which is O(1) per variate.
func (s *Stream) Poisson(mean float64) int {
	switch {
	case mean <= 0:
		return 0
	case mean < 30:
		// Knuth: count exponential arrivals in unit time.
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= 1 - s.Float64() // strictly positive uniform
			if p <= l {
				return k
			}
			k++
		}
	default:
		return s.poissonPTRS(mean)
	}
}

// poissonPTRS is Hörmann's transformed rejection sampler for mean >= 10.
func (s *Stream) poissonPTRS(mean float64) int {
	b := 0.931 + 2.53*math.Sqrt(mean)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logMu := math.Log(mean)
	for {
		u := s.Float64() - 0.5
		v := 1 - s.Float64() // (0, 1]
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + mean + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logMu-mean-lg {
			return int(k)
		}
	}
}

// MaxExpCDF returns P(max_i y_i <= t) for independent y_i ~ Exp(mu[i]):
// G(t) = Π_i (1 − e^{−μ_i t}), the distribution the Section 3 loss integral
// is taken over.
func MaxExpCDF(mu []float64, t float64) float64 {
	if t <= 0 {
		return 0
	}
	g := 1.0
	for _, m := range mu {
		g *= 1 - math.Exp(-m*t)
	}
	return g
}
