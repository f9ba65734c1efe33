package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"recoveryblocks/internal/dist"
	"recoveryblocks/internal/rbmodel"
	"recoveryblocks/internal/stats"
)

// kernelCase is one parameter set the per-state kernel is proved on.
type kernelCase struct {
	name      string
	p         rbmodel.Params
	intervals int
}

// rampParams has μ_i rising from 0.5 to 1.5 and uniform λ at ρ = 1.
func rampParams(n int) rbmodel.Params {
	p := rbmodel.Uniform(n, 1, 1/float64(n-1))
	for i := range p.Mu {
		p.Mu[i] = 0.5 + float64(i)/float64(n-1)
	}
	return p
}

// skewParams has a non-uniform λ with λ_12 = 0, so nearly every state has a
// rate class of its own.
func skewParams(n int) rbmodel.Params {
	p := rbmodel.Uniform(n, 1, 0)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l := (0.3 + 0.35*float64((3*i+7*j)%5)) / float64(n-1)
			if i == 0 && j == 1 {
				l = 0
			}
			p.Lambda[i][j], p.Lambda[j][i] = l, l
		}
	}
	return p
}

func kernelCases() []kernelCase {
	var cs []kernelCase
	for _, n := range []int{3, 5, 8} {
		iv := 20000
		if n == 8 {
			iv = 10000
		}
		cs = append(cs,
			kernelCase{fmt.Sprintf("uniform/n=%d", n), rbmodel.Uniform(n, 1, 1/float64(n-1)), iv},
			kernelCase{fmt.Sprintf("mu-ramp/n=%d", n), rampParams(n), iv},
			kernelCase{fmt.Sprintf("skew-lambda/n=%d", n), skewParams(n), iv},
		)
	}
	return cs
}

// runKernel runs one block of either kernel, keeping the X samples.
func runKernel(t *testing.T, p rbmodel.Params, intervals int, seed int64, perState bool) *asyncBlock {
	t.Helper()
	cats, err := newEventCats(p)
	if err != nil {
		t.Fatal(err)
	}
	opt := AsyncOptions{Intervals: intervals, KeepSamples: true}
	rng := dist.NewStream(seed)
	var blk *asyncBlock
	if perState {
		tab := &jumpTables{}
		tab.build(&cats)
		blk = newAsyncBlock(&cats, tab, intervals, opt)
		blk.runJump(tab, intervals, rng)
	} else {
		blk = newAsyncBlock(&cats, nil, intervals, opt)
		blk.run(&cats, intervals, rng)
	}
	if blk.x.N() != intervals {
		t.Fatalf("kernel observed %d intervals, want %d", blk.x.N(), intervals)
	}
	return blk
}

// ksTwoSample returns the two-sample Kolmogorov–Smirnov distance.
func ksTwoSample(a, b []float64) float64 {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	d, i, j := 0.0, 0, 0
	for i < len(a) && j < len(b) {
		x := min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		d = max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	return d
}

// TestPerStateKernelMatchesSingleTable proves the per-state kernel against
// the single-table loop it replaces below the budget: the X distributions
// agree by a two-sample KS test and every E[L_i] by a two-sample z-test,
// both at a 1% family-wise level over all comparisons.
func TestPerStateKernelMatchesSingleTable(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical kernel comparison in -short mode")
	}
	cs := kernelCases()
	comparisons := 0
	for _, c := range cs {
		comparisons += 1 + c.p.N()
	}
	const alpha = 0.01
	ksCoef := math.Sqrt(-math.Log(alpha/float64(comparisons)/2) / 2)
	z := stats.ZCrit(alpha, comparisons)
	for i, c := range cs {
		old := runKernel(t, c.p, c.intervals, int64(100+i), false)
		per := runKernel(t, c.p, c.intervals, int64(200+i), true)
		m := float64(c.intervals)
		if d, crit := ksTwoSample(old.samples, per.samples), ksCoef*math.Sqrt(2/m); d > crit {
			t.Errorf("%s: two-sample KS distance on X %.4f exceeds %.4f", c.name, d, crit)
		}
		for j := range old.l {
			zs, err := stats.TwoSampleZ(&old.l[j], &per.l[j])
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(zs) > z {
				t.Errorf("%s: E[L%d] single-table %.4f vs per-state %.4f (z = %.2f > %.2f)",
					c.name, j+1, old.l[j].Mean(), per.l[j].Mean(), zs, z)
			}
		}
	}
}

// TestPerStateKernelMatchesExactChain checks the per-state kernel's E[X]
// and E[L_i] against the exact chain's values, inside confidence intervals
// widened by Bonferroni over every comparison.
func TestPerStateKernelMatchesExactChain(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical kernel comparison in -short mode")
	}
	cs := kernelCases()
	comparisons := 0
	for _, c := range cs {
		comparisons += 1 + c.p.N()
	}
	z := stats.ZCrit(0.01, comparisons)
	for i, c := range cs {
		m, err := rbmodel.NewAsync(c.p)
		if err != nil {
			t.Fatal(err)
		}
		wantX, err := m.MeanX()
		if err != nil {
			t.Fatal(err)
		}
		wantL, err := m.MeanLWald()
		if err != nil {
			t.Fatal(err)
		}
		per := runKernel(t, c.p, 2*c.intervals, int64(300+i), true)
		if got, half := per.x.Mean(), per.x.CIHalf(z); math.Abs(got-wantX) > half {
			t.Errorf("%s: E[X] = %.5g ± %.2g, exact %.5g", c.name, got, half, wantX)
		}
		for j, w := range wantL {
			if got, half := per.l[j].Mean(), per.l[j].CIHalf(z); math.Abs(got-w) > half {
				t.Errorf("%s: E[L%d] = %.5g ± %.2g, exact %.5g", c.name, j+1, got, half, w)
			}
		}
	}
}

// asyncFingerprint is every output of SimulateAsync that must not depend on
// the worker count.
func asyncFingerprint(t *testing.T, p rbmodel.Params, opt AsyncOptions) []uint64 {
	t.Helper()
	res, err := SimulateAsync(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	fp := []uint64{uint64(res.Intervals), math.Float64bits(res.X.Mean()), math.Float64bits(res.X.Variance())}
	for _, l := range res.L {
		fp = append(fp, math.Float64bits(l.Mean()), math.Float64bits(l.Variance()))
	}
	for _, x := range res.Samples {
		fp = append(fp, math.Float64bits(x))
	}
	for _, c := range res.Hist.Counts {
		fp = append(fp, uint64(c))
	}
	return fp
}

// TestSimulateAsyncWorkersBothKernels pins bit-identical results across
// worker counts on both sides of the table budget, over several blocks with
// an odd interval count (the last block's lane B runs one interval fewer).
func TestSimulateAsyncWorkersBothKernels(t *testing.T) {
	for _, c := range []struct {
		p        rbmodel.Params
		perState bool
	}{
		{skewParams(5), true},
		{rbmodel.Uniform(9, 1, 0.2/8), true},
		{rbmodel.Uniform(10, 1, 0.2/9), false},
	} {
		cats, err := newEventCats(c.p)
		if err != nil {
			t.Fatal(err)
		}
		if got := jumpFits(c.p.N(), len(cats.upd)); got != c.perState {
			t.Fatalf("n = %d: per-state tables fit = %v, want %v", c.p.N(), got, c.perState)
		}
		opt := AsyncOptions{Intervals: 2*1024 + 77, Seed: 1983, HistMax: 4, HistBins: 16, KeepSamples: true, Workers: 1}
		base := asyncFingerprint(t, c.p, opt)
		for _, w := range []int{2, 4} {
			opt.Workers = w
			if got := asyncFingerprint(t, c.p, opt); !slices.Equal(got, base) {
				t.Fatalf("n = %d, workers = %d: results differ from workers = 1", c.p.N(), w)
			}
		}
	}
}

// TestSimulateAsyncLaneQuotas covers interval counts where lane B has no
// quota (1) or one interval fewer than lane A (odd counts): every interval
// is observed once, and each observation is a finite positive length with
// at least one recovery point.
func TestSimulateAsyncLaneQuotas(t *testing.T) {
	p := rampParams(4)
	for _, n := range []int{1, 2, 3, 7, 1025} {
		res, err := SimulateAsync(p, AsyncOptions{Intervals: n, Seed: 5, KeepSamples: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Intervals != n || len(res.Samples) != n || res.L[0].N() != n {
			t.Fatalf("Intervals = %d: observed %d intervals, %d samples, %d L counts",
				n, res.Intervals, len(res.Samples), res.L[0].N())
		}
		rps := 0.0
		for _, l := range res.L {
			rps += l.Mean()
		}
		if rps < 1 {
			t.Fatalf("Intervals = %d: %v recovery points per interval, want ≥ 1", n, rps)
		}
		for _, x := range res.Samples {
			if !(x > 0) || math.IsInf(x, 0) {
				t.Fatalf("Intervals = %d: interval length %v", n, x)
			}
		}
	}
}

// TestSimulateAsyncAboveBudgetPinned pins results recorded before the
// per-state kernel existed: above the table budget SimulateAsync runs the
// single-table loop, and its output must not move.
func TestSimulateAsyncAboveBudgetPinned(t *testing.T) {
	for _, c := range []struct {
		n              int
		lambda         float64
		intervals      int
		mean, variance uint64
		firstL, lastL  uint64
	}{
		{12, 2.0 / 11, 40, 0x409d67d9c6ca4dba, 0x41610dab61179614, 0x409d4c6666666667, 0x409d8ce666666666},
		{18, 0.5 / 17, 1500, 0x402ae0ca86804c91, 0x409c46c5372abf1c, 0x402b0ead65b7a32a, 0x402b01b4e81b4e84},
	} {
		p := rbmodel.Uniform(c.n, 1, c.lambda)
		cats, err := newEventCats(p)
		if err != nil {
			t.Fatal(err)
		}
		if jumpFits(c.n, len(cats.upd)) {
			t.Fatalf("n = %d fits the per-state table budget; the pin covers the single-table loop", c.n)
		}
		res, err := SimulateAsync(p, AsyncOptions{Intervals: c.intervals, Seed: 1983, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := []uint64{math.Float64bits(res.X.Mean()), math.Float64bits(res.X.Variance()),
			math.Float64bits(res.L[0].Mean()), math.Float64bits(res.L[c.n-1].Mean())}
		want := []uint64{c.mean, c.variance, c.firstL, c.lastL}
		if !slices.Equal(got, want) {
			t.Fatalf("n = %d: got %#x, pinned %#x", c.n, got, want)
		}
	}
}

// TestJumpLayoutHoldsBudget checks that the packed jump layout holds every
// table the budget admits, and pins where the budget cuts: n = 9 with every
// pair interacting fits, n = 10 does not.
func TestJumpLayoutHoldsBudget(t *testing.T) {
	for n := 1; n <= jumpMaxN; n++ {
		k := n + n*(n-1)/2
		rows := 1 << n
		if rows*k > 1<<jumpCatShift || k > 1<<jumpCatBits || rows > 1<<(32-jumpClassShift) {
			t.Errorf("n = %d: %d rows of %d columns overflow the jump layout", n, rows, k)
		}
	}
	if !jumpFits(9, 9+36) || jumpFits(10, 10+45) {
		t.Errorf("budget admits n = 9: %v, n = 10: %v; want true, false", jumpFits(9, 45), jumpFits(10, 55))
	}
}
