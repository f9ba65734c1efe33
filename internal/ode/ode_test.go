package ode

import (
	"math"
	"testing"
)

// exponential decay y' = -y, y(0)=1 → y(t) = e^{-t}.
func decay(_ float64, y, dst []float64) { dst[0] = -y[0] }

func TestRK4ExponentialDecay(t *testing.T) {
	y := RK4(decay, []float64{1}, 0, 2, 200)
	want := math.Exp(-2)
	if math.Abs(y[0]-want) > 1e-8 {
		t.Fatalf("RK4 decay = %v, want %v", y[0], want)
	}
}

func TestRK4Harmonic(t *testing.T) {
	// y'' = -y as a system; after 2π the state returns to the start.
	f := func(_ float64, y, dst []float64) {
		dst[0] = y[1]
		dst[1] = -y[0]
	}
	y := RK4(f, []float64{1, 0}, 0, 2*math.Pi, 2000)
	if math.Abs(y[0]-1) > 1e-6 || math.Abs(y[1]) > 1e-6 {
		t.Fatalf("harmonic orbit did not close: %v", y)
	}
}

func TestRK4OrderOfConvergence(t *testing.T) {
	// Halving the step should cut the error by ~2^4.
	exact := math.Exp(-1)
	e1 := math.Abs(RK4(decay, []float64{1}, 0, 1, 10)[0] - exact)
	e2 := math.Abs(RK4(decay, []float64{1}, 0, 1, 20)[0] - exact)
	ratio := e1 / e2
	if ratio < 10 || ratio > 25 {
		t.Fatalf("RK4 convergence ratio %v, want ≈ 16", ratio)
	}
}

func TestRK4TimeDependent(t *testing.T) {
	// y' = t → y(t) = t²/2 (exactly representable by RK4).
	f := func(tt float64, _, dst []float64) { dst[0] = tt }
	y := RK4(f, []float64{0}, 0, 3, 30)
	if math.Abs(y[0]-4.5) > 1e-10 {
		t.Fatalf("y = %v, want 4.5", y[0])
	}
}

func TestRK4PanicsOnZeroSteps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for steps=0")
		}
	}()
	RK4(decay, []float64{1}, 0, 1, 0)
}
