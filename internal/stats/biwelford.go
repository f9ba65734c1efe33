package stats

// BiWelford accumulates the joint first and second moments of a pair of
// observations (x, y) in one numerically stable streaming pass — the
// bivariate counterpart of Welford. The rare-event engine uses it for
// control-variate regression: x is the likelihood-ratio-weighted hit
// indicator, y the control, and the optimal coefficient is Cov(x,y)/Var(y).
type BiWelford struct {
	n            int
	meanX, meanY float64
	m2x, m2y     float64
	cxy          float64
}

// Add folds the pair (x, y) into the accumulator.
func (b *BiWelford) Add(x, y float64) {
	b.n++
	n := float64(b.n)
	dx := x - b.meanX
	dy := y - b.meanY
	b.meanX += dx / n
	b.meanY += dy / n
	// dx uses the pre-update meanX, (y − meanY) the post-update meanY: the
	// cross-moment analogue of Welford's d·(x − mean) trick.
	b.m2x += dx * (x - b.meanX)
	b.m2y += dy * (y - b.meanY)
	b.cxy += dx * (y - b.meanY)
}

// N returns the number of observation pairs.
func (b *BiWelford) N() int { return b.n }

// MeanX returns the sample mean of the first coordinate.
func (b *BiWelford) MeanX() float64 { return b.meanX }

// MeanY returns the sample mean of the second coordinate.
func (b *BiWelford) MeanY() float64 { return b.meanY }

// VarX returns the unbiased sample variance of the first coordinate.
func (b *BiWelford) VarX() float64 {
	if b.n < 2 {
		return 0
	}
	return b.m2x / float64(b.n-1)
}

// VarY returns the unbiased sample variance of the second coordinate.
func (b *BiWelford) VarY() float64 {
	if b.n < 2 {
		return 0
	}
	return b.m2y / float64(b.n-1)
}

// Cov returns the unbiased sample covariance of the pair.
func (b *BiWelford) Cov() float64 {
	if b.n < 2 {
		return 0
	}
	return b.cxy / float64(b.n-1)
}

// X returns the first coordinate's marginal moments as a Welford accumulator.
func (b *BiWelford) X() Welford { return Welford{n: b.n, mean: b.meanX, m2: b.m2x} }

// Merge folds another accumulator into b using the pairwise update of Chan,
// Golub & LeVeque extended to the cross moment. Like Welford.Merge, merging
// per-block accumulators in a fixed block order reproduces the sequential
// pass bit-for-bit up to float round-off — the determinism contract of
// internal/mc.
func (b *BiWelford) Merge(o BiWelford) {
	if o.n == 0 {
		return
	}
	if b.n == 0 {
		*b = o
		return
	}
	n1, n2 := float64(b.n), float64(o.n)
	n := n1 + n2
	dx := o.meanX - b.meanX
	dy := o.meanY - b.meanY
	b.meanX += dx * n2 / n
	b.meanY += dy * n2 / n
	b.m2x += o.m2x + dx*dx*n1*n2/n
	b.m2y += o.m2y + dy*dy*n1*n2/n
	b.cxy += o.cxy + dx*dy*n1*n2/n
	b.n += o.n
}

// FromMoments rebuilds a Welford accumulator from a sample size, mean and
// unbiased variance — the bridge for estimators (like fixed-effort splitting)
// whose mean and variance come from a product form rather than a stream of
// iid observations, so harnesses can judge them with the same z-test
// machinery as every streaming estimate.
func FromMoments(n int, mean, variance float64) Welford {
	w := Welford{n: n, mean: mean}
	if n >= 2 && variance > 0 {
		w.m2 = variance * float64(n-1)
	}
	return w
}
