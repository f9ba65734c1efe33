package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWelfordAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 5
		w.Add(xs[i])
	}
	mean := Mean(xs)
	if math.Abs(w.Mean()-mean) > 1e-10 {
		t.Fatalf("Welford mean %v vs direct %v", w.Mean(), mean)
	}
	varSum := 0.0
	for _, x := range xs {
		varSum += (x - mean) * (x - mean)
	}
	direct := varSum / float64(len(xs)-1)
	if math.Abs(w.Variance()-direct) > 1e-9 {
		t.Fatalf("Welford var %v vs direct %v", w.Variance(), direct)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdErr() != 0 {
		t.Fatal("empty Welford not zero")
	}
	w.Add(42)
	if w.Mean() != 42 || w.Variance() != 0 {
		t.Fatal("single-sample Welford wrong")
	}
}

func TestWelfordCI95Shrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var w1, w2 Welford
	for i := 0; i < 100; i++ {
		w1.Add(rng.NormFloat64())
	}
	for i := 0; i < 10000; i++ {
		w2.Add(rng.NormFloat64())
	}
	if w2.CI95() >= w1.CI95() {
		t.Fatal("CI did not shrink with more samples")
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	for i, c := range h.Counts {
		if c != 1 {
			t.Fatalf("bin %d count %d", i, c)
		}
	}
	h.Add(-1)
	h.Add(10)
	h.Add(11)
	if h.Under != 1 || h.Over != 2 {
		t.Fatalf("out-of-range: under %d over %d", h.Under, h.Over)
	}
	if h.N() != 13 {
		t.Fatalf("N = %d", h.N())
	}
}

func TestHistogramDensityIntegratesToInRangeFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := NewHistogram(0, 5, 50)
	const n = 100000
	for i := 0; i < n; i++ {
		h.Add(rng.ExpFloat64()) // rate 1
	}
	sum := 0.0
	for _, d := range h.Density() {
		sum += d * h.BinWidth()
	}
	inRange := float64(n-h.Over-h.Under) / n
	if math.Abs(sum-inRange) > 1e-9 {
		t.Fatalf("density mass %v, in-range fraction %v", sum, inRange)
	}
	// Density near 0 should approach e^0 = 1 for Exp(1).
	if d0 := h.Density()[0]; math.Abs(d0-1) > 0.1 {
		t.Fatalf("density at 0 = %v, want ≈ 1", d0)
	}
}

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {9, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("ECDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestKSExponentialSampleAccepted(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	e := NewECDF(xs)
	d := e.KSAgainst(func(x float64) float64 {
		if x < 0 {
			return 0
		}
		return 1 - math.Exp(-x)
	})
	if d > KSCritical95(len(xs)) {
		t.Fatalf("KS rejected a correct exponential sample: d=%v crit=%v", d, KSCritical95(len(xs)))
	}
}

func TestKSWrongDistributionRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 2 // rate 1/2, tested against rate 1
	}
	e := NewECDF(xs)
	d := e.KSAgainst(func(x float64) float64 {
		if x < 0 {
			return 0
		}
		return 1 - math.Exp(-x)
	})
	if d <= KSCritical95(len(xs)) {
		t.Fatalf("KS failed to reject a wrong distribution: d=%v", d)
	}
}

func TestIntegratePolynomial(t *testing.T) {
	v, err := Integrate(func(x float64) float64 { return x*x*x - 2*x + 1 }, 0, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	want := 4.0 - 4 + 2
	if math.Abs(v-want) > 1e-10 {
		t.Fatalf("∫cubic = %v, want %v", v, want)
	}
}

func TestIntegrateOscillatory(t *testing.T) {
	v, err := Integrate(math.Sin, 0, math.Pi, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-2) > 1e-8 {
		t.Fatalf("∫sin = %v, want 2", v)
	}
}

// TestGK15Exactness pins the node and weight tables: K15 integrates
// polynomials exactly through degree 22 and G7 through degree 13, so the
// error estimate vanishes up to degree 13 and not at degree 14.
func TestGK15Exactness(t *testing.T) {
	for deg := 0; deg <= 22; deg++ {
		d := float64(deg)
		k15, e := gk15(func(x float64) float64 { return math.Pow(x, d) }, 0, 1)
		if want := 1 / (d + 1); math.Abs(k15-want) > 1e-15 {
			t.Errorf("K15 ∫₀¹ x^%d = %v, want %v", deg, k15, want)
		}
		if deg <= 13 && e > 1e-15 {
			t.Errorf("|K15 − G7| on x^%d = %v, want 0 (G7 is exact there)", deg, e)
		}
		if deg == 14 && e < 1e-9 {
			t.Errorf("|K15 − G7| on x^14 = %v, want the G7 error", e)
		}
	}
}

// TestIntegrateRoundoffFloor: a panel whose tolerance lies below what
// float64 can resolve is accepted at the roundoff floor instead of being
// bisected to the depth limit.
func TestIntegrateRoundoffFloor(t *testing.T) {
	const budget = 15 * 200
	calls := 0
	defer func() {
		if r := recover(); r != nil {
			t.Fatal(r)
		}
	}()
	v, err := Integrate(func(x float64) float64 {
		if calls++; calls > budget {
			panic("more than 3000 evaluations: the roundoff floor did not stop bisection")
		}
		return math.Exp(-x)
	}, 0, 40, 1e-30)
	if err != nil {
		t.Fatal(err)
	}
	if want := -math.Expm1(-40); math.Abs(v-want) > 1e-14 {
		t.Fatalf("∫e^-x = %v, want %v", v, want)
	}
}

func TestIntegrateToInfExponential(t *testing.T) {
	v, err := IntegrateToInf(func(x float64) float64 { return math.Exp(-x) }, 0, 1.0, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1) > 1e-7 {
		t.Fatalf("∫e^-x = %v, want 1", v)
	}
}

func TestIntegrateToInfMaxExpTail(t *testing.T) {
	// ∫(1-G(t))dt for max of 3 iid Exp(1) = H_3 = 1 + 1/2 + 1/3.
	g := func(x float64) float64 {
		p := 1 - math.Exp(-x)
		return 1 - p*p*p
	}
	v, err := IntegrateToInf(g, 0, 2.0, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 + 0.5 + 1.0/3
	if math.Abs(v-want) > 1e-6 {
		t.Fatalf("E[max] = %v, want %v", v, want)
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 30)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		e := NewECDF(xs)
		prev := -1.0
		for x := -4.0; x <= 4; x += 0.1 {
			v := e.At(x)
			if v < prev {
				return false
			}
			prev = v
		}
		return prev <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestWelfordMergeOfSplitsEqualsWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 3
	}
	var whole Welford
	for _, x := range xs {
		whole.Add(x)
	}
	// Split into uneven chunks, accumulate separately, merge in order.
	for _, cuts := range [][]int{{2500}, {1, 4999}, {100, 1000, 3000}, {5000}} {
		var parts []Welford
		lo := 0
		for _, hi := range append(cuts, len(xs)) {
			if hi <= lo {
				continue
			}
			var w Welford
			for _, x := range xs[lo:hi] {
				w.Add(x)
			}
			parts = append(parts, w)
			lo = hi
		}
		var m Welford
		for _, p := range parts {
			m.Merge(p)
		}
		if m.N() != whole.N() {
			t.Fatalf("cuts %v: N = %d, want %d", cuts, m.N(), whole.N())
		}
		if math.Abs(m.Mean()-whole.Mean()) > 1e-12*math.Abs(whole.Mean()) {
			t.Fatalf("cuts %v: mean %v, want %v", cuts, m.Mean(), whole.Mean())
		}
		if math.Abs(m.Variance()-whole.Variance()) > 1e-10*whole.Variance() {
			t.Fatalf("cuts %v: variance %v, want %v", cuts, m.Variance(), whole.Variance())
		}
	}
}

func TestWelfordMergeDeterministicInOrder(t *testing.T) {
	// Merging the same parts in the same order twice is bit-identical —
	// the property the parallel Monte Carlo engine relies on.
	var a, b Welford
	parts := make([]Welford, 7)
	rng := rand.New(rand.NewSource(13))
	for i := range parts {
		for j := 0; j < 100+i; j++ {
			parts[i].Add(rng.NormFloat64())
		}
	}
	for _, p := range parts {
		a.Merge(p)
	}
	for _, p := range parts {
		b.Merge(p)
	}
	if a.Mean() != b.Mean() || a.Variance() != b.Variance() || a.N() != b.N() {
		t.Fatal("identical merge orders produced different accumulators")
	}
}

func TestWelfordMergeEmptyCases(t *testing.T) {
	var empty, w Welford
	w.Add(2)
	w.Add(4)
	before := w
	w.Merge(empty)
	if w != before {
		t.Fatal("merging an empty accumulator changed the receiver")
	}
	var target Welford
	target.Merge(w)
	if target.Mean() != 3 || target.N() != 2 {
		t.Fatalf("merge into empty: mean %v n %d", target.Mean(), target.N())
	}
}

func TestHistogramMergeEqualsWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	whole := NewHistogram(0, 2, 20)
	a := NewHistogram(0, 2, 20)
	b := NewHistogram(0, 2, 20)
	for i := 0; i < 4000; i++ {
		x := rng.ExpFloat64()
		whole.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.N() != whole.N() || a.Under != whole.Under || a.Over != whole.Over {
		t.Fatalf("merged totals differ: %d/%d/%d vs %d/%d/%d",
			a.N(), a.Under, a.Over, whole.N(), whole.Under, whole.Over)
	}
	for i := range whole.Counts {
		if a.Counts[i] != whole.Counts[i] {
			t.Fatalf("bin %d: %d vs %d", i, a.Counts[i], whole.Counts[i])
		}
	}
}

func TestHistogramMergeShapeMismatch(t *testing.T) {
	a := NewHistogram(0, 2, 20)
	if err := a.Merge(NewHistogram(0, 2, 10)); err == nil {
		t.Fatal("accepted bin-count mismatch")
	}
	if err := a.Merge(NewHistogram(0, 3, 20)); err == nil {
		t.Fatal("accepted range mismatch")
	}
	if err := a.Merge(nil); err != nil {
		t.Fatal("nil merge must be a no-op")
	}
}
