package dist

import (
	"math"
	"testing"
)

func TestStreamDeterministicBySeed(t *testing.T) {
	a, b := NewStream(42), NewStream(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewStream(43)
	same := 0
	a = NewStream(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d/1000 times", same)
	}
}

func TestSubstreamContract(t *testing.T) {
	// Fixed mapping: (baseSeed, index) fully determines the sequence.
	a := Substream(7, 3)
	b := Substream(7, 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("substream not deterministic")
		}
	}
	// Distinct indices and distinct base seeds give distinct sequences.
	first := func(s *Stream) uint64 { return s.Uint64() }
	seen := map[uint64]string{}
	for _, c := range []struct {
		name string
		s    *Stream
	}{
		{"7/0", Substream(7, 0)}, {"7/1", Substream(7, 1)}, {"7/2", Substream(7, 2)},
		{"8/0", Substream(8, 0)}, {"8/1", Substream(8, 1)}, {"0/0", Substream(0, 0)},
	} {
		v := first(c.s)
		if prev, ok := seen[v]; ok {
			t.Fatalf("substreams %s and %s share first output", prev, c.name)
		}
		seen[v] = c.name
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewStream(1)
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	s := NewStream(2)
	const n = 200000
	for _, rate := range []float64{0.5, 1, 4} {
		sum := 0.0
		for i := 0; i < n; i++ {
			v := s.Exp(rate)
			if v < 0 {
				t.Fatal("negative exponential variate")
			}
			sum += v
		}
		mean := sum / n
		if math.Abs(mean-1/rate) > 4/(rate*math.Sqrt(n)) {
			t.Fatalf("Exp(%v) mean = %v, want %v", rate, mean, 1/rate)
		}
	}
}

func TestIntnUniform(t *testing.T) {
	s := NewStream(3)
	const n, k = 120000, 6
	counts := make([]int, k)
	for i := 0; i < n; i++ {
		v := s.Intn(k)
		if v < 0 || v >= k {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-n/k) > 5*math.Sqrt(n/k) {
			t.Fatalf("Intn bucket %d count %d, want ~%d", i, c, n/k)
		}
	}
}

func TestChoiceProportions(t *testing.T) {
	s := NewStream(4)
	w := []float64{1, 0, 3}
	const n = 90000
	counts := make([]int, len(w))
	for i := 0; i < n; i++ {
		counts[s.ChoiceTotal(w, 4)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight category chosen %d times", counts[1])
	}
	if math.Abs(float64(counts[0])-n/4) > 5*math.Sqrt(n/4) {
		t.Fatalf("category 0 count %d, want ~%d", counts[0], n/4)
	}
}

func TestBernoulli(t *testing.T) {
	s := NewStream(5)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	if math.Abs(float64(hits)-0.3*n) > 5*math.Sqrt(0.3*0.7*n) {
		t.Fatalf("Bernoulli(0.3) hit %d/%d", hits, n)
	}
}

func TestPoissonMoments(t *testing.T) {
	s := NewStream(6)
	// Cover both the Knuth branch (< 30) and the PTRS branch (>= 30).
	for _, mean := range []float64{0.5, 4, 25, 40, 200} {
		const n = 60000
		sum, sumsq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := float64(s.Poisson(mean))
			if v < 0 {
				t.Fatal("negative Poisson variate")
			}
			sum += v
			sumsq += v * v
		}
		m := sum / n
		v := sumsq/n - m*m
		se := math.Sqrt(mean / n)
		if math.Abs(m-mean) > 6*se {
			t.Fatalf("Poisson(%v) mean = %v", mean, m)
		}
		if math.Abs(v-mean) > 0.1*mean+6*se {
			t.Fatalf("Poisson(%v) variance = %v", mean, v)
		}
	}
	if s.Poisson(0) != 0 || s.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive mean must be 0")
	}
}

func TestMaxExpCDF(t *testing.T) {
	mu := []float64{1, 2}
	if got := MaxExpCDF(mu, 0); got != 0 {
		t.Fatalf("G(0) = %v", got)
	}
	if got := MaxExpCDF(mu, -1); got != 0 {
		t.Fatalf("G(-1) = %v", got)
	}
	want := (1 - math.Exp(-1)) * (1 - math.Exp(-2))
	if got := MaxExpCDF(mu, 1); math.Abs(got-want) > 1e-15 {
		t.Fatalf("G(1) = %v, want %v", got, want)
	}
	if got := MaxExpCDF(mu, 100); math.Abs(got-1) > 1e-12 {
		t.Fatalf("G(100) = %v, want ~1", got)
	}
}

func TestPanics(t *testing.T) {
	s := NewStream(9)
	for name, fn := range map[string]func(){
		"Intn0":      func() { s.Intn(0) },
		"ExpZero":    func() { s.Exp(0) },
		"ChoiceNone": func() { s.ChoiceTotal(nil, 0) },
		"ChoiceZero": func() { s.ChoiceTotal([]float64{0, 0}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
