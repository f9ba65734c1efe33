package prpmodel

import (
	"math"
	"testing"
)

func cfg3() Config {
	return Config{Mu: []float64{1.5, 1.0, 0.5}, SaveCost: 0.05}
}

func TestValidate(t *testing.T) {
	if err := cfg3().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		{Mu: []float64{0}},
		{Mu: []float64{1}, SaveCost: -1},
		{Mu: []float64{1, math.Inf(1)}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestPaperOverheadFormulas(t *testing.T) {
	c := cfg3()
	// Section 4: "The additional time overhead for every recovery point is
	// (n−1)·t_r", and the pseudo recovery lines retain n² states.
	if got := c.TimeOverheadPerRP(); math.Abs(got-2*0.05) > 1e-15 {
		t.Fatalf("(n-1)t_r = %v", got)
	}
	if c.LiveStates() != 9 {
		t.Fatalf("live states = %d, want n² = 9", c.LiveStates())
	}
}

func TestTimeOverheadRate(t *testing.T) {
	c := cfg3()
	// Σμ = 3 RPs per unit time; each costs the other two processes 0.05;
	// per-process average = 0.05·3·(2/3) = 0.1.
	if got := c.TimeOverheadRate(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("overhead rate = %v", got)
	}
}

func TestRollbackDistanceBound(t *testing.T) {
	c := cfg3()
	got, err := c.RollbackDistanceBound()
	if err != nil {
		t.Fatal(err)
	}
	// E[max(Exp(1.5),Exp(1),Exp(0.5))] by inclusion–exclusion.
	want := 1/1.5 + 1/1.0 + 1/0.5 - 1/2.5 - 1/2.0 - 1/1.5 + 1/3.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("bound = %v, want %v", got, want)
	}
}

func TestMeanRollbackToPRL(t *testing.T) {
	c := cfg3()
	for i, mu := range c.Mu {
		got, err := c.MeanRollbackToPRL(i)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-1/mu) > 1e-15 {
			t.Fatalf("P%d rollback = %v, want %v", i+1, got, 1/mu)
		}
	}
	if _, err := c.MeanRollbackToPRL(3); err == nil {
		t.Fatal("accepted out-of-range process")
	}
}

func TestOverheadGrowsWithN(t *testing.T) {
	prev := -1.0
	for n := 1; n <= 12; n++ {
		mu := make([]float64, n)
		for i := range mu {
			mu[i] = 1
		}
		c := Config{Mu: mu, SaveCost: 0.05}
		if got := c.TimeOverheadPerRP(); got <= prev {
			t.Fatalf("overhead not increasing at n=%d", n)
		} else {
			prev = got
		}
	}
}
