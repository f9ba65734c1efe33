package rbmodel

import (
	"math"
	"testing"
)

// Edge cases of the Section 5 deadline analysis: no interacting pairs
// (λ = 0), single-process chains, zero/negative deadlines, and the
// quantile↔miss-probability inversion — the thin spots the generic sweeps
// do not reach.

// TestDeadlineMissNoInteractions: with λ = 0 every recovery point is
// consistent with the others' latest states, so a recovery line forms at the
// first new recovery point and X ~ Exp(Σμ): P(X > d) = e^{−Σμ·d}. Holds for
// asymmetric rates too.
func TestDeadlineMissNoInteractions(t *testing.T) {
	for _, mu := range [][]float64{
		{1, 1, 1},
		{1.5, 0.5},
		{2},
	} {
		p := Params{Mu: append([]float64(nil), mu...), Lambda: make([][]float64, len(mu))}
		for i := range p.Lambda {
			p.Lambda[i] = make([]float64, len(mu))
		}
		m := mustAsync(t, p)
		sum := 0.0
		for _, v := range mu {
			sum += v
		}
		for _, d := range []float64{0.25, 1, 3} {
			got, err := m.DeadlineMissProb(d)
			if err != nil {
				t.Fatal(err)
			}
			want := math.Exp(-sum * d)
			if math.Abs(got-want) > 1e-8 {
				t.Fatalf("mu=%v d=%v: P(X>d) = %v, want e^{-Σμ·d} = %v", mu, d, got, want)
			}
		}
	}
}

// TestDeadlineMissZeroDeadline: X is a positive continuous variable, so a
// zero (or negative) deadline is missed with certainty — on the full chain
// and on the lumped one.
func TestDeadlineMissZeroDeadline(t *testing.T) {
	full := mustAsync(t, Uniform(3, 1, 1))
	for _, d := range []float64{0, -0.5} {
		if p, _ := full.DeadlineMissProb(d); p != 1 {
			t.Fatalf("full chain: P(X > %v) = %v, want 1", d, p)
		}
	}
	sym, err := NewSymmetric(3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := sym.DeadlineMissProb(-1); p != 1 {
		t.Fatalf("lumped chain: negative deadline gave %v, want 1", p)
	}
	if p, _ := sym.DeadlineMissProb(0); math.Abs(p-1) > 1e-9 {
		t.Fatalf("lumped chain: P(X > 0) = %v, want 1", p)
	}
}

// TestDeadlineSymmetricSingleProcess: the lumped chain must handle n = 1
// (where lumping is trivial) and agree with the full chain and the Exp(μ)
// closed form.
func TestDeadlineSymmetricSingleProcess(t *testing.T) {
	sym, err := NewSymmetric(1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	full := mustAsync(t, Uniform(1, 2, 0))
	for _, d := range []float64{0.3, 1, 2.5} {
		ps, err := sym.DeadlineMissProb(d)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := full.DeadlineMissProb(d)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Exp(-2 * d)
		if math.Abs(ps-want) > 1e-8 || math.Abs(pf-want) > 1e-8 {
			t.Fatalf("d=%v: lumped %v, full %v, want %v", d, ps, pf, want)
		}
	}
}

// TestDeadlineSymmetricMatchesFullNoInteractions: λ = 0 on the n-process
// lumped chain, against the full chain.
func TestDeadlineSymmetricMatchesFullNoInteractions(t *testing.T) {
	full := mustAsync(t, Uniform(4, 1, 0))
	sym, err := NewSymmetric(4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []float64{0.5, 2, 6} {
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

// TestQuantileInvertsDeadlineMiss: P(X > QuantileX(q)) must equal 1 − q —
// the identity a designer uses to turn a miss budget into a deadline.
func TestQuantileInvertsDeadlineMiss(t *testing.T) {
	m := mustAsync(t, Uniform(3, 1, 2))
	for _, q := range []float64{0.1, 0.5, 0.99} {
		x, err := m.QuantileX(q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := m.DeadlineMissProb(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-(1-q)) > 1e-6 {
			t.Fatalf("P(X > Q(%v)) = %v, want %v", q, p, 1-q)
		}
	}
}

// TestQuantileSingleProcessClosedForm: for one process X ~ Exp(μ), so
// QuantileX(q) = −ln(1−q)/μ.
func TestQuantileSingleProcessClosedForm(t *testing.T) {
	m := mustAsync(t, Uniform(1, 2, 0))
	for _, q := range []float64{0.25, 0.9, 0.999} {
		x, err := m.QuantileX(q)
		if err != nil {
			t.Fatal(err)
		}
		want := -math.Log(1-q) / 2
		if math.Abs(x-want) > 1e-6*(1+want) {
			t.Fatalf("Q(%v) = %v, want %v", q, x, want)
		}
	}
}

// TestHazardEdgeBehavior: the hazard is nonnegative everywhere, starts at
// Σμ (the direct-transition spike), and stays finite-or-infinite without
// ever going negative in the deep tail where both f and 1−F underflow.
func TestHazardEdgeBehavior(t *testing.T) {
	m := mustAsync(t, Uniform(2, 1.5, 0.5))
	times := []float64{0, 1e-9, 0.1, 1, 10, 100, 1000}
	h := hazardX(m, times)
	if math.Abs(h[0]-3) > 1e-8 {
		t.Fatalf("h(0) = %v, want Σμ = 3", h[0])
	}
	for i, v := range h {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("hazard at t=%v is %v", times[i], v)
		}
	}
}
