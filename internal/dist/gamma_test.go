package dist

import (
	"math"
	"slices"
	"testing"
)

func moments(n int, draw func() float64) (mean, variance float64) {
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := draw()
		sum += x
		sum2 += x * x
	}
	mean = sum / float64(n)
	variance = sum2/float64(n) - mean*mean
	return mean, variance
}

func TestNormalMoments(t *testing.T) {
	rng := NewStream(101)
	const n = 1_000_000
	mean, variance := moments(n, rng.Normal)
	if math.Abs(mean) > 5/math.Sqrt(n) {
		t.Errorf("mean = %v, want 0", mean)
	}
	if math.Abs(variance-1) > 0.01 {
		t.Errorf("variance = %v, want 1", variance)
	}
	// Symmetry of the tail: P(X > 1.96) ≈ P(X < −1.96) ≈ 0.025.
	hi, lo := 0, 0
	for i := 0; i < n; i++ {
		x := rng.Normal()
		if x > 1.96 {
			hi++
		}
		if x < -1.96 {
			lo++
		}
	}
	for _, c := range []int{hi, lo} {
		p := float64(c) / n
		if math.Abs(p-0.025) > 0.002 {
			t.Errorf("tail mass %v, want 0.025", p)
		}
	}
}

func TestGammaMoments(t *testing.T) {
	rng := NewStream(202)
	const n = 500_000
	for _, c := range []struct{ shape, rate float64 }{
		{0.5, 1}, {1, 2}, {2.5, 0.5}, {15, 3}, {1400, 16},
	} {
		mean, variance := moments(n, func() float64 { return rng.Gamma(c.shape, c.rate) })
		wantMean := c.shape / c.rate
		wantVar := c.shape / (c.rate * c.rate)
		seMean := math.Sqrt(wantVar / n)
		if math.Abs(mean-wantMean) > 6*seMean {
			t.Errorf("Gamma(%v,%v): mean %v, want %v", c.shape, c.rate, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.05*wantVar+6*seMean {
			t.Errorf("Gamma(%v,%v): variance %v, want %v", c.shape, c.rate, variance, wantVar)
		}
	}
}

// TestErlangMatchesExpSum pins the distributional identity the simulators
// rely on: Erlang(k, rate) must be distributed as the sum of k exponentials,
// across both the direct-sum and the Gamma-sampler regimes.
func TestErlangMatchesExpSum(t *testing.T) {
	rng := NewStream(303)
	const n = 400_000
	for _, k := range []int{1, 3, erlangDirectMax, 40} {
		rate := 2.0
		mean, variance := moments(n, func() float64 { return rng.Erlang(k, rate) })
		wantMean := float64(k) / rate
		wantVar := float64(k) / (rate * rate)
		seMean := math.Sqrt(wantVar / n)
		if math.Abs(mean-wantMean) > 6*seMean {
			t.Errorf("Erlang(%d): mean %v, want %v", k, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.05*wantVar+6*seMean {
			t.Errorf("Erlang(%d): variance %v, want %v", k, variance, wantVar)
		}
	}
}

func TestGammaRejectsBadParams(t *testing.T) {
	rng := NewStream(1)
	for _, c := range []struct{ shape, rate float64 }{{0, 1}, {-1, 1}, {1, 0}, {1, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Gamma(%v,%v) did not panic", c.shape, c.rate)
				}
			}()
			rng.Gamma(c.shape, c.rate)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Erlang(0) did not panic")
			}
		}()
		rng.Erlang(0, 1)
	}()
}

func TestGammaZeroAlloc(t *testing.T) {
	rng := NewStream(5)
	sink := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		sink += rng.Gamma(1400, 16)
	})
	if allocs != 0 {
		t.Fatalf("Gamma allocates %v per draw, want 0", allocs)
	}
	_ = sink
}

// TestErlangSumDistribution checks ErlangSum against the Erlang CDF
// 1 − Σ_{i<k} e^{−rx}(rx)^i/i! by a Kolmogorov–Smirnov test, on both sides
// of the ziggurat sum's shape limit. Shape 1 is the ziggurat exponential
// alone, and its draw count puts a few hundred samples in the tail layer.
func TestErlangSumDistribution(t *testing.T) {
	const draws = 1 << 20
	const rate = 1.7
	shapes := []int{1, 2, 3, erlangSumMax, erlangSumMax + 1, 40}
	// 1% family-wise over the shapes.
	crit := math.Sqrt(-math.Log(0.01/float64(len(shapes))/2)/2) / math.Sqrt(draws)
	for _, k := range shapes {
		s := NewStream(int64(900 + k))
		xs := make([]float64, draws)
		for i := range xs {
			xs[i] = s.ErlangSum(k, rate)
		}
		slices.Sort(xs)
		d := 0.0
		for i, x := range xs {
			term, sum := 1.0, 1.0
			for j := 1; j < k; j++ {
				term *= rate * x / float64(j)
				sum += term
			}
			f := 1 - math.Exp(-rate*x)*sum
			d = max(d, math.Abs(f-float64(i)/draws), math.Abs(f-float64(i+1)/draws))
		}
		if d > crit {
			t.Errorf("ErlangSum(%d): KS distance %.4f exceeds %.4f", k, d, crit)
		}
	}
}

// TestStdExpTail checks the ziggurat's tail, which a KS test barely sees:
// the share of Exp(1) draws beyond the base layer's edge zigR is e^{−zigR},
// and their excess over zigR is again Exp(1) with mean 1.
func TestStdExpTail(t *testing.T) {
	const draws = 1 << 22
	s := NewStream(77)
	tail, excess := 0, 0.0
	for i := 0; i < draws; i++ {
		if x := s.stdExp(); x > zigR {
			tail++
			excess += x - zigR
		}
	}
	p := math.Exp(-zigR)
	if z := (float64(tail) - draws*p) / math.Sqrt(draws*p*(1-p)); math.Abs(z) > 4 {
		t.Errorf("%d draws beyond %v, want %.0f (z = %.2f)", tail, zigR, draws*p, z)
	}
	if m := excess / float64(tail); math.Abs(m-1) > 4/math.Sqrt(float64(tail)) {
		t.Errorf("tail excess mean %v, want 1", m)
	}
}
