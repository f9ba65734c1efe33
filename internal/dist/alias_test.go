package dist

import (
	"math"
	"testing"
)

// TestAliasMatchesWeights checks the empirical frequencies of alias sampling
// against the normalized weights, including a zero-weight category that must
// never be drawn.
func TestAliasMatchesWeights(t *testing.T) {
	weights := []float64{3, 0, 1, 0.5, 2.5, 0.001}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	a := NewAlias(weights)
	if a.k != len(weights) {
		t.Fatalf("k = %d, want %d", a.k, len(weights))
	}
	rng := NewStream(42)
	const draws = 2_000_000
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		counts[a.Sample(rng)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight category drawn %d times", counts[1])
	}
	for i, w := range weights {
		p := w / total
		got := float64(counts[i]) / draws
		// Binomial standard error; 5 sigma keeps the test deterministic-ish.
		se := math.Sqrt(p * (1 - p) / draws)
		if math.Abs(got-p) > 5*se+1e-9 {
			t.Errorf("category %d: frequency %v, want %v ± %v", i, got, p, 5*se)
		}
	}
}

// TestAliasAgreesWithChoiceTotal pins the alias sampler against the linear
// scan it replaces: both must produce the same distribution (not the same
// draws — they consume the stream differently).
func TestAliasAgreesWithChoiceTotal(t *testing.T) {
	weights := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	total := 36.0
	a := NewAlias(weights)
	const draws = 500_000
	ca := make([]int, len(weights))
	cc := make([]int, len(weights))
	ra, rc := NewStream(7), NewStream(8)
	for i := 0; i < draws; i++ {
		ca[a.Sample(ra)]++
		cc[rc.ChoiceTotal(weights, total)]++
	}
	for i := range weights {
		pa := float64(ca[i]) / draws
		pc := float64(cc[i]) / draws
		se := math.Sqrt(pa * (1 - pa) / draws)
		if math.Abs(pa-pc) > 7*se {
			t.Errorf("category %d: alias %v vs linear %v", i, pa, pc)
		}
	}
}

func TestAliasDeterministic(t *testing.T) {
	weights := []float64{0.3, 1.7, 2.2, 0.8}
	a, b := NewAlias(weights), NewAlias(weights)
	ra, rb := NewStream(1983), NewStream(1983)
	for i := 0; i < 10_000; i++ {
		if a.Sample(ra) != b.Sample(rb) {
			t.Fatal("equal weights and seeds diverged")
		}
	}
}

func TestAliasSingleCategory(t *testing.T) {
	a := NewAlias([]float64{2.5})
	rng := NewStream(1)
	for i := 0; i < 100; i++ {
		if a.Sample(rng) != 0 {
			t.Fatal("single category must always be drawn")
		}
	}
}

func TestAliasRejectsBadWeights(t *testing.T) {
	for _, weights := range [][]float64{
		nil,
		{},
		{0, 0},
		{-1, 2},
		{math.NaN()},
		{math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAlias(%v) did not panic", weights)
				}
			}()
			NewAlias(weights)
		}()
	}
}

// TestAliasSampleZeroAlloc pins the samplers' allocation contract: the
// alias draw in the hot loop never allocates, nor does the linear-scan draw
// it replaced.
func TestAliasSampleZeroAlloc(t *testing.T) {
	weights := []float64{1, 2, 3, 4, 5}
	a := NewAlias(weights)
	rng := NewStream(3)
	sink := 0
	for _, c := range []struct {
		name string
		draw func() int
	}{
		{"Alias.Sample", func() int { return a.Sample(rng) }},
		{"Stream.ChoiceTotal", func() int { return rng.ChoiceTotal(weights, 15) }},
	} {
		allocs := testing.AllocsPerRun(1000, func() {
			sink += c.draw()
		})
		if allocs != 0 {
			t.Fatalf("%s allocates %v per draw, want 0", c.name, allocs)
		}
	}
	_ = sink
}

func BenchmarkAliasSample(b *testing.B) {
	for _, k := range []int{8, 36, 78} {
		weights := make([]float64, k)
		for i := range weights {
			weights[i] = 1 + float64(i%7)
		}
		a := NewAlias(weights)
		rng := NewStream(11)
		b.Run("k="+itoa(k), func(b *testing.B) {
			b.ReportAllocs()
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += a.Sample(rng)
			}
			_ = sink
		})
	}
}

func BenchmarkChoiceTotal(b *testing.B) {
	for _, k := range []int{8, 36, 78} {
		weights := make([]float64, k)
		total := 0.0
		for i := range weights {
			weights[i] = 1 + float64(i%7)
			total += weights[i]
		}
		rng := NewStream(11)
		b.Run("k="+itoa(k), func(b *testing.B) {
			b.ReportAllocs()
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += rng.ChoiceTotal(weights, total)
			}
			_ = sink
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestAliasBuilderMatchesNewAlias pins the builder to the constructor:
// building into caller memory — also over a buffer a wider build left
// behind — yields NewAlias's exact columns, and a warmed builder allocates
// nothing.
func TestAliasBuilderMatchesNewAlias(t *testing.T) {
	var b AliasBuilder
	wide := make([]uint64, 64)
	b.Build(wide, []float64{5, 1, 0, 2, 7, 3, 3, 1, 0.5, 9})
	for _, weights := range [][]float64{
		{3, 0, 1, 0.5, 2.5, 0.001},
		{1},
		{0, 0, 4},
		{1, 2, 3, 4, 5, 6, 7, 8},
	} {
		a := NewAlias(weights)
		packed := wide[:len(a.packed)]
		want := 0.0
		for _, w := range weights {
			want += w
		}
		if total := b.Build(packed, weights); total != want {
			t.Fatalf("%v: Build total %v, want Σ weights %v", weights, total, want)
		}
		for i := range packed {
			if packed[i] != a.packed[i] {
				t.Fatalf("%v: column %d is %#x, NewAlias has %#x", weights, i, packed[i], a.packed[i])
			}
		}
	}
	weights := []float64{1, 2, 0, 4, 5}
	packed := make([]uint64, 8)
	if allocs := testing.AllocsPerRun(100, func() { b.Build(packed, weights) }); allocs != 0 {
		t.Fatalf("warmed AliasBuilder.Build allocates %v per build, want 0", allocs)
	}
}

func TestAliasBuilderRejectsBadWidth(t *testing.T) {
	for _, width := range []int{0, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Build into %d columns for 3 weights did not panic", width)
				}
			}()
			var b AliasBuilder
			b.Build(make([]uint64, width), []float64{1, 2, 3})
		}()
	}
}
