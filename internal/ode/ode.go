// Package ode integrates initial-value problems y' = f(t, y). It exists to
// solve the Chapman–Kolmogorov equation dπ/dt = π·H of the paper's Markov
// model independently of the uniformization code in internal/markov, so the
// two methods can cross-validate each other.
package ode

// Func evaluates the derivative dy/dt at (t, y) into dst.
// dst and y always have the same length and never alias.
type Func func(t float64, y, dst []float64)

// RK4 integrates y' = f from t0 to t1 with a fixed step count using the
// classical fourth-order Runge–Kutta scheme, returning the final state.
// steps must be >= 1.
func RK4(f Func, y0 []float64, t0, t1 float64, steps int) []float64 {
	if steps < 1 {
		panic("ode: RK4 requires steps >= 1")
	}
	n := len(y0)
	y := append([]float64(nil), y0...)
	k1 := make([]float64, n)
	k2 := make([]float64, n)
	k3 := make([]float64, n)
	k4 := make([]float64, n)
	tmp := make([]float64, n)
	h := (t1 - t0) / float64(steps)
	t := t0
	for s := 0; s < steps; s++ {
		f(t, y, k1)
		for i := range tmp {
			tmp[i] = y[i] + 0.5*h*k1[i]
		}
		f(t+0.5*h, tmp, k2)
		for i := range tmp {
			tmp[i] = y[i] + 0.5*h*k2[i]
		}
		f(t+0.5*h, tmp, k3)
		for i := range tmp {
			tmp[i] = y[i] + h*k3[i]
		}
		f(t+h, tmp, k4)
		for i := range y {
			y[i] += h / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
		}
		t += h
	}
	return y
}
