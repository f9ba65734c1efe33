// Package stats provides the estimation utilities used to compare simulation
// output against the paper's analytic results: streaming moments with
// confidence intervals, histograms, empirical CDFs, Kolmogorov–Smirnov
// distances, and adaptive numeric quadrature.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Welford accumulates mean and variance in a single numerically stable pass.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Merge folds another accumulator into w using the parallel update of Chan,
// Golub & LeVeque, so that splitting a sample into chunks, accumulating each
// chunk separately and merging gives the same moments as one sequential
// pass (up to float round-off). Merging in a fixed chunk order makes the
// result fully deterministic — the property the parallel Monte Carlo engine
// in internal/mc relies on.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n1, n2 := float64(w.n), float64(o.n)
	d := o.mean - w.mean
	n := n1 + n2
	w.mean += d * n2 / n
	w.m2 += o.m2 + d*d*n1*n2/n
	w.n += o.n
}

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval for the mean. Valid for the large replication counts used here.
func (w *Welford) CI95() float64 { return 1.96 * w.StdErr() }

// Histogram bins observations over [Min, Max) into equal-width bins;
// observations outside the range are counted in Under/Over.
type Histogram struct {
	Min, Max    float64
	Counts      []int
	Under, Over int
	total       int
}

// NewHistogram creates a histogram with bins equal-width bins over [min,max).
func NewHistogram(min, max float64, bins int) *Histogram {
	if bins <= 0 || max <= min {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.Min:
		h.Under++
	case x >= h.Max:
		h.Over++
	default:
		i := int((x - h.Min) / (h.Max - h.Min) * float64(len(h.Counts)))
		if i == len(h.Counts) { // x == Max guarded above; float edge safety
			i--
		}
		h.Counts[i]++
	}
}

// Merge adds another histogram's counts into h. The two must have identical
// shape (range and bin count); integer counts make the merge exact, so the
// merged histogram equals the one a single sequential pass would build no
// matter how the observations were split.
func (h *Histogram) Merge(o *Histogram) error {
	if o == nil {
		return nil
	}
	if o.Min != h.Min || o.Max != h.Max || len(o.Counts) != len(h.Counts) {
		return errors.New("stats: histogram shapes differ")
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Under += o.Under
	h.Over += o.Over
	h.total += o.total
	return nil
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 { return (h.Max - h.Min) / float64(len(h.Counts)) }

// Density returns the estimated probability density at each bin center,
// normalized by the total observation count (including out-of-range).
func (h *Histogram) Density() []float64 {
	d := make([]float64, len(h.Counts))
	if h.total == 0 {
		return d
	}
	w := h.BinWidth()
	for i, c := range h.Counts {
		d[i] = float64(c) / (float64(h.total) * w)
	}
	return d
}

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from the sample (which it copies and sorts).
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// KSAgainst returns the Kolmogorov–Smirnov statistic sup|ECDF - cdf| against
// a reference CDF, evaluated at the sample points (where the supremum of a
// step-function difference is attained).
func (e *ECDF) KSAgainst(cdf func(float64) float64) float64 {
	n := float64(len(e.sorted))
	if n == 0 {
		return 0
	}
	d := 0.0
	for i, x := range e.sorted {
		f := cdf(x)
		lo := math.Abs(f - float64(i)/n)
		hi := math.Abs(float64(i+1)/n - f)
		if lo > d {
			d = lo
		}
		if hi > d {
			d = hi
		}
	}
	return d
}

// KSCritical95 returns the approximate 95% critical value of the one-sample
// KS statistic for sample size n (asymptotic formula 1.358/√n).
func KSCritical95(n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	return 1.358 / math.Sqrt(float64(n))
}

// ErrNoConverge is returned when adaptive quadrature hits its depth limit.
var ErrNoConverge = errors.New("stats: quadrature failed to converge")

// The embedded Gauss–Kronrod pair G7/K15 on [−1, 1] (QUADPACK's qk15):
// gkNodes[j] are the Kronrod abscissae ±x_j, the odd indices and the centre
// being the 7-point Gauss nodes; gkWeights are the K15 weights and
// gaussWeights the G7 weights of nodes gkNodes[1], [3], [5] and the centre.
var (
	gkNodes = [8]float64{
		0.991455371120812639206854697526329,
		0.949107912342758524526189684047851,
		0.864864423359769072789712788640926,
		0.741531185599394439863864773280788,
		0.586087235467691130294144845693013,
		0.405845151377397166906606412076961,
		0.207784955007898467600689403773245,
		0,
	}
	gkWeights = [8]float64{
		0.022935322010529224963732008058970,
		0.063092092629978553290700663189204,
		0.104790010322250183839876322541518,
		0.140653259715525918745189590510238,
		0.169004726639267902826583426598550,
		0.190350578064785409913256402421014,
		0.204432940075298892414161999234649,
		0.209482141084727828012999174891714,
	}
	gaussWeights = [4]float64{
		0.129484966168869693270611432679082,
		0.279705391489276667901467771423780,
		0.381830050505118944950369775488975,
		0.417959183673469387755102040816327,
	}
)

// gk15 applies the G7/K15 pair to f on [a, b] and returns the K15 value
// with the error estimate |K15 − G7|.
func gk15(f func(float64) float64, a, b float64) (k15, errEst float64) {
	c, h := (a+b)/2, (b-a)/2
	fc := f(c)
	k15 = gkWeights[7] * fc
	g7 := gaussWeights[3] * fc
	for j := 0; j < 7; j++ {
		dx := h * gkNodes[j]
		sum := f(c-dx) + f(c+dx)
		k15 += gkWeights[j] * sum
		if j%2 == 1 {
			g7 += gaussWeights[j/2] * sum
		}
	}
	return k15 * h, math.Abs((k15 - g7) * h)
}

// Integrate computes ∫_a^b f(t) dt with adaptive 15-point Gauss–Kronrod
// quadrature. A panel is accepted when |K15 − G7|, an upper estimate of the
// error of the K15 value it returns, is within the panel's share of tol, or
// below the roundoff floor 50·ε·|K15| past which bisection cannot help
// (QUADPACK's rule); otherwise it is bisected, each half getting half the
// tolerance.
func Integrate(f func(float64) float64, a, b, tol float64) (float64, error) {
	return adaptiveGK(f, a, b, tol, 50)
}

func adaptiveGK(f func(float64) float64, a, b, tol float64, depth int) (float64, error) {
	v, e := gk15(f, a, b)
	if e <= tol || e <= 50*0x1p-52*math.Abs(v) {
		return v, nil
	}
	if depth <= 0 {
		return v, ErrNoConverge
	}
	m := (a + b) / 2
	l, errL := adaptiveGK(f, a, m, tol/2, depth-1)
	r, errR := adaptiveGK(f, m, b, tol/2, depth-1)
	if errL != nil {
		return l + r, errL
	}
	return l + r, errR
}

// IntegrateToInf computes ∫_a^∞ f(t) dt for an integrand with (at least)
// exponentially decaying tail by marching fixed-width panels, each
// integrated by Integrate to tol/10, until a panel after the third
// contributes less than tol. Each panel's quadrature error is bounded by
// its Gauss–Kronrod estimate; the unmarched tail beyond the last panel is
// not, and for the survival functions integrated here it dominates the
// total error.
func IntegrateToInf(f func(float64) float64, a, panel, tol float64) (float64, error) {
	if panel <= 0 {
		return 0, errors.New("stats: panel width must be positive")
	}
	total := 0.0
	lo := a
	for i := 0; i < 100000; i++ {
		v, err := Integrate(f, lo, lo+panel, tol/10)
		if err != nil {
			return total, err
		}
		total += v
		if math.Abs(v) < tol && i > 2 {
			return total, nil
		}
		lo += panel
	}
	return total, ErrNoConverge
}
