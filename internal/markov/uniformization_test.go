package markov

import (
	"context"
	"errors"
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
