package rbmodel

import (
	"errors"
	"math"
	"testing"

	"recoveryblocks/internal/guard"
)

func TestDeadlineMissProbMonotone(t *testing.T) {
	m := mustAsync(t, Uniform(3, 1, 1))
	prev := 1.1
	for _, d := range []float64{0, 0.5, 1, 2, 5, 10, 30} {
		p, err := m.DeadlineMissProb(d)
		if err != nil {
			t.Fatal(err)
		}
		if p > prev+1e-12 {
			t.Fatalf("miss probability not decreasing at d=%v", d)
		}
		if p < 0 || p > 1 {
			t.Fatalf("P out of range: %v", p)
		}
		prev = p
	}
	if p, _ := m.DeadlineMissProb(-1); p != 1 {
		t.Fatalf("negative deadline should always miss: %v", p)
	}
}

func TestDeadlineMissSingleProcessExponential(t *testing.T) {
	// One process: X ~ Exp(μ), so P(X > d) = e^{−μd}.
	m := mustAsync(t, Uniform(1, 2, 0))
	for _, d := range []float64{0.1, 0.5, 1, 2} {
		p, err := m.DeadlineMissProb(d)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Exp(-2 * d)
		if math.Abs(p-want) > 1e-8 {
			t.Fatalf("P(X>%v) = %v, want %v", d, p, want)
		}
	}
}

func TestDeadlineMissSymmetricMatchesFull(t *testing.T) {
	full := mustAsync(t, Uniform(4, 1, 0.5))
	sym, err := NewSymmetric(4, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []float64{0.5, 2, 8} {
		pf, err := full.DeadlineMissProb(d)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := sym.DeadlineMissProb(d)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pf-ps) > 1e-8 {
			t.Fatalf("d=%v: full %v vs lumped %v", d, pf, ps)
		}
	}
}

func TestQuantileXInvertsCDF(t *testing.T) {
	m := mustAsync(t, Table1Cases()[0].Params)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		x, err := m.QuantileX(q)
		if err != nil {
			t.Fatal(err)
		}
		cdf := m.CDFX([]float64{x})
		if math.Abs(cdf[0]-q) > 1e-6 {
			t.Fatalf("CDF(Q(%v)) = %v", q, cdf[0])
		}
	}
	if _, err := m.QuantileX(0); err == nil {
		t.Fatal("accepted q=0")
	}
	if _, err := m.QuantileX(1); err == nil {
		t.Fatal("accepted q=1")
	}
	// Above 1 − transientEps the CDF may never reach q: a typed numerical
	// failure, not a bracket grown toward mean·1e9.
	if _, err := m.QuantileX(1 - 1e-12); !errors.Is(err, guard.ErrNumerical) {
		t.Fatalf("q = 1 − 1e-12: err = %v, want ErrNumerical", err)
	}
}

func TestQuantileOrdering(t *testing.T) {
	m := mustAsync(t, Uniform(3, 1, 1))
	q50, err := m.QuantileX(0.5)
	if err != nil {
		t.Fatal(err)
	}
	q99, err := m.QuantileX(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if q99 <= q50 {
		t.Fatalf("quantiles out of order: %v ≤ %v", q99, q50)
	}
	// The 99th percentile far exceeds the mean for this long-tailed X.
	mean, _ := m.MeanX()
	if q99 < 2*mean {
		t.Fatalf("q99 = %v suspiciously close to mean %v", q99, mean)
	}
}

// hazardX evaluates the hazard rate h(t) = f(t)/(1−F(t)) of the inter-line
// interval: the recovery-line formation rate given none has formed yet. For
// large t it settles on the slowest decay mode of the chain.
func hazardX(m *AsyncModel, times []float64) []float64 {
	cdf, f := m.CDFX(times), m.DensityX(times)
	out := make([]float64, len(times))
	for i := range times {
		if surv := 1 - cdf[i]; surv < 1e-15 {
			out[i] = math.Inf(1)
		} else {
			out[i] = f[i] / surv
		}
	}
	return out
}

func TestHazardRateShape(t *testing.T) {
	m := mustAsync(t, Uniform(3, 1, 1))
	times := []float64{0, 0.5, 1, 2, 4, 8, 12}
	h := hazardX(m, times)
	// h(0) = f(0)/1 = Σμ (the direct-transition spike).
	if math.Abs(h[0]-3) > 1e-8 {
		t.Fatalf("h(0) = %v, want 3", h[0])
	}
	for i, v := range h {
		if v < 0 {
			t.Fatalf("negative hazard at %v", times[i])
		}
	}
	// The tail hazard settles near the slowest decay rate: roughly constant
	// between t=8 and t=12.
	if math.Abs(h[5]-h[6]) > 0.05*h[5] {
		t.Fatalf("tail hazard not settling: %v vs %v", h[5], h[6])
	}
}

func TestDeadlineRiskGrowsWithN(t *testing.T) {
	// Section 5's argument: at fixed ρ and deadline, more processes → more
	// risk that no recovery line forms in time.
	const d, rho = 3.0, 2.0
	prev := -1.0
	for n := 2; n <= 7; n++ {
		m := mustAsync(t, Uniform(n, 1, rho/float64(n-1)))
		p, err := m.DeadlineMissProb(d)
		if err != nil {
			t.Fatal(err)
		}
		if p <= prev {
			t.Fatalf("deadline risk not growing at n=%d: %v <= %v", n, p, prev)
		}
		prev = p
	}
}
