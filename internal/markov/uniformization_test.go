package markov

import (
	"context"
	"errors"
	"math"
	"testing"
)

// cancelAfter is a context whose Err reports Canceled from its (n+1)-th call
// on, so a test can cancel partway through a sweep.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestAbsorptionSequenceChecksContext pins where the sweep polls its context:
// before the first step, then every 1024 steps.
func TestAbsorptionSequenceChecksContext(t *testing.T) {
	c := twoStateChain(1)
	const horizon = 3000 // γt = 3000: about 3550 steps
	for _, tc := range []struct {
		okCalls, wantLen int
	}{{0, 1}, {1, 1025}, {2, 2049}} {
		q := c.NewAbsorptionSequence([]float64{1, 0})
		_, _, err := q.At(&cancelAfter{context.Background(), tc.okCalls}, horizon, 1e-10)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%d polls allowed: err = %v, want Canceled", tc.okCalls, err)
		}
		if len(q.a) != tc.wantLen {
			t.Fatalf("%d polls allowed: sweep stopped at %d recorded steps, want %d", tc.okCalls, len(q.a), tc.wantLen)
		}
	}
	q := c.NewAbsorptionSequence([]float64{1, 0})
	if _, _, err := q.At(context.Background(), horizon, 1e-10); err != nil {
		t.Fatal(err)
	}
	steps := len(q.a)
	if _, _, err := q.At(context.Background(), horizon/2, 1e-10); err != nil || len(q.a) != steps {
		t.Fatalf("a shorter horizon extended the sequence from %d to %d steps (err %v)", steps, len(q.a), err)
	}
}

// TestSurvivalKeepsRelativeAccuracy: on the two-phase chain 0 →(1) 1 →(3)
// absorbed, S(t) = (3e^{−t} − e^{−3t})/2 in closed form. Summed from the
// transient masses it keeps 1e-9 relative accuracy down to S ≈ 1e-13,
// where 1 − F has lost it to F's rounding and truncation; both agree with
// the closed form early on.
func TestSurvivalKeepsRelativeAccuracy(t *testing.T) {
	c := NewCTMC(3)
	c.AddRate(0, 1, 1)
	c.AddRate(1, 2, 3)
	c.SetAbsorbing(2)
	q := c.NewAbsorptionSequence([]float64{1, 0, 0})
	ctx := context.Background()
	for _, tt := range []float64{0, 0.5, 2, 10, 30} {
		want := (3*math.Exp(-tt) - math.Exp(-3*tt)) / 2
		S, f, err := q.Survival(ctx, tt, 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		cdf, f2, _ := q.At(ctx, tt, 1e-10)
		if math.Abs(S-want) > 1e-9*want || f != f2 {
			t.Errorf("t=%v: S = %.17g (density %v), closed form %.17g (density %v)", tt, S, f, want, f2)
		}
		if tt <= 2 && math.Abs(1-cdf-want) > 1e-9 {
			t.Errorf("t=%v: 1 − F = %.17g, closed form %.17g", tt, 1-cdf, want)
		}
		t.Logf("t=%v: S relative error %.1e, 1 − F's %.1e", tt, math.Abs(S-want)/want, math.Abs(1-cdf-want)/want)
	}
}
