package synch

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanMaxEqualHarmonic(t *testing.T) {
	// n iid Exp(1): E[max] = H_n.
	want := []float64{1, 1.5, 1.5 + 1.0/3, 1.5 + 1.0/3 + 0.25}
	for n := 1; n <= 4; n++ {
		got, err := MeanMaxEqual(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want[n-1]) > 1e-12 {
			t.Fatalf("H_%d = %v, want %v", n, got, want[n-1])
		}
	}
}

func TestMeanMaxMatchesEqualCase(t *testing.T) {
	for n := 1; n <= 8; n++ {
		mu := make([]float64, n)
		for i := range mu {
			mu[i] = 1.7
		}
		incl, err := MeanMax(mu)
		if err != nil {
			t.Fatal(err)
		}
		harm, err := MeanMaxEqual(n, 1.7)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(incl-harm) > 1e-10 {
			t.Fatalf("n=%d: inclusion–exclusion %v vs harmonic %v", n, incl, harm)
		}
	}
}

func TestMeanMaxTwoProcessClosedForm(t *testing.T) {
	// E[max(Exp(a),Exp(b))] = 1/a + 1/b − 1/(a+b).
	a, b := 1.5, 0.5
	got, err := MeanMax([]float64{a, b})
	if err != nil {
		t.Fatal(err)
	}
	want := 1/a + 1/b - 1/(a+b)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("E[Z] = %v, want %v", got, want)
	}
}

func TestMeanMaxIntegralAgrees(t *testing.T) {
	for _, mu := range [][]float64{
		{1, 1, 1},
		{1.5, 1.0, 0.5},
		{0.6, 0.45, 0.45},
		{2},
		{3, 0.1},
	} {
		incl, err := MeanMax(mu)
		if err != nil {
			t.Fatal(err)
		}
		integ, err := MeanMaxIntegral(mu)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(incl-integ) > 1e-6*(1+incl) {
			t.Fatalf("μ=%v: inclusion–exclusion %v vs integral %v", mu, incl, integ)
		}
	}
}

func TestMeanLossNonNegativeAndZeroForSingle(t *testing.T) {
	// One process never waits.
	cl, err := MeanLoss([]float64{2.3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cl) > 1e-12 {
		t.Fatalf("single-process CL = %v, want 0", cl)
	}
	for _, mu := range [][]float64{{1, 1}, {1.5, 1.0, 0.5}, {1, 1, 1, 1, 1}} {
		cl, err := MeanLoss(mu)
		if err != nil {
			t.Fatal(err)
		}
		if cl <= 0 {
			t.Fatalf("μ=%v: CL = %v, want > 0", mu, cl)
		}
	}
}

func TestMeanLossGrowsWithN(t *testing.T) {
	// More processes → more waiting: for iid rates CL = n·H_n/μ − n/μ strictly grows.
	prev := -1.0
	for n := 1; n <= 10; n++ {
		mu := make([]float64, n)
		for i := range mu {
			mu[i] = 1
		}
		cl, err := MeanLoss(mu)
		if err != nil {
			t.Fatal(err)
		}
		if cl <= prev {
			t.Fatalf("CL not increasing at n=%d: %v <= %v", n, cl, prev)
		}
		prev = cl
	}
}

func TestMeanLossEqualRateClosedForm(t *testing.T) {
	// CL = n(H_n − 1)/μ for iid Exp(μ).
	n, mu := 4, 2.0
	rates := []float64{mu, mu, mu, mu}
	cl, err := MeanLoss(rates)
	if err != nil {
		t.Fatal(err)
	}
	h4 := 1 + 0.5 + 1.0/3 + 0.25
	want := float64(n) * (h4 - 1) / mu
	if math.Abs(cl-want) > 1e-12 {
		t.Fatalf("CL = %v, want %v", cl, want)
	}
}

func TestSimulateLossMatchesAnalytic(t *testing.T) {
	mu := []float64{1.5, 1.0, 0.5}
	loss, z, err := SimulateLossWorkers(mu, 200000, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantZ, err := MeanMax(mu)
	if err != nil {
		t.Fatal(err)
	}
	wantCL, err := MeanLoss(mu)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z.Mean()-wantZ) > 3*z.CI95()+1e-3 {
		t.Fatalf("simulated E[Z] = %v ± %v, want %v", z.Mean(), z.CI95(), wantZ)
	}
	if math.Abs(loss.Mean()-wantCL) > 3*loss.CI95()+1e-3 {
		t.Fatalf("simulated CL = %v ± %v, want %v", loss.Mean(), loss.CI95(), wantCL)
	}
}

func TestValidation(t *testing.T) {
	if _, err := MeanMax(nil); err == nil {
		t.Fatal("accepted empty rates")
	}
	if _, err := MeanMax([]float64{1, 0}); err == nil {
		t.Fatal("accepted zero rate")
	}
	if _, err := MeanMaxEqual(0, 1); err == nil {
		t.Fatal("accepted n=0")
	}
	if _, _, err := SimulateLossWorkers([]float64{1}, 0, 1, 1); err == nil {
		t.Fatal("accepted zero reps")
	}
}

func TestMeanMaxDominatesEachMarginalProperty(t *testing.T) {
	// E[max] ≥ max_i E[y_i] and ≤ Σ_i E[y_i].
	f := func(a, b, c uint8) bool {
		mu := []float64{0.2 + float64(a%50)/10, 0.2 + float64(b%50)/10, 0.2 + float64(c%50)/10}
		ez, err := MeanMax(mu)
		if err != nil {
			return false
		}
		maxMean, sumMean := 0.0, 0.0
		for _, m := range mu {
			if 1/m > maxMean {
				maxMean = 1 / m
			}
			sumMean += 1 / m
		}
		return ez >= maxMean-1e-12 && ez <= sumMean+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
