package stats

import (
	"math"
	"testing"
)

// naive two-pass reference moments.
func naiveMoments(xs, ys []float64) (meanX, meanY, varX, varY, cov float64) {
	n := float64(len(xs))
	for i := range xs {
		meanX += xs[i]
		meanY += ys[i]
	}
	meanX /= n
	meanY /= n
	for i := range xs {
		dx := xs[i] - meanX
		dy := ys[i] - meanY
		varX += dx * dx
		varY += dy * dy
		cov += dx * dy
	}
	varX /= n - 1
	varY /= n - 1
	cov /= n - 1
	return
}

// deterministic pseudo-sample with a known positive correlation.
func biSample(n int) (xs, ys []float64) {
	u := uint64(12345)
	next := func() float64 {
		u = u*6364136223846793005 + 1442695040888963407
		return float64(u>>11) / (1 << 53)
	}
	for i := 0; i < n; i++ {
		x := next()
		y := 0.7*x + 0.3*next()
		xs = append(xs, x)
		ys = append(ys, y)
	}
	return
}

func TestBiWelfordAgainstTwoPass(t *testing.T) {
	xs, ys := biSample(5000)
	var b BiWelford
	for i := range xs {
		b.Add(xs[i], ys[i])
	}
	meanX, meanY, varX, varY, cov := naiveMoments(xs, ys)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"meanX", b.MeanX(), meanX},
		{"meanY", b.MeanY(), meanY},
		{"varX", b.VarX(), varX},
		{"varY", b.VarY(), varY},
		{"cov", b.Cov(), cov},
	} {
		if math.Abs(c.got-c.want) > 1e-12*math.Max(1, math.Abs(c.want)) {
			t.Errorf("%s = %v, two-pass reference %v", c.name, c.got, c.want)
		}
	}
	if b.N() != len(xs) {
		t.Errorf("N = %d, want %d", b.N(), len(xs))
	}
}

func TestBiWelfordMergeMatchesSequential(t *testing.T) {
	xs, ys := biSample(4097) // deliberately not a multiple of the chunk size
	var seq BiWelford
	for i := range xs {
		seq.Add(xs[i], ys[i])
	}
	var merged BiWelford
	for lo := 0; lo < len(xs); lo += 512 {
		hi := min(lo+512, len(xs))
		var chunk BiWelford
		for i := lo; i < hi; i++ {
			chunk.Add(xs[i], ys[i])
		}
		merged.Merge(chunk)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"meanX", merged.MeanX(), seq.MeanX()},
		{"meanY", merged.MeanY(), seq.MeanY()},
		{"varX", merged.VarX(), seq.VarX()},
		{"varY", merged.VarY(), seq.VarY()},
		{"cov", merged.Cov(), seq.Cov()},
	} {
		if math.Abs(c.got-c.want) > 1e-10*math.Max(1, math.Abs(c.want)) {
			t.Errorf("merged %s = %v, sequential %v", c.name, c.got, c.want)
		}
	}
	// Merging into an empty accumulator must copy, and merging an empty one
	// must be a no-op.
	var empty BiWelford
	empty.Merge(seq)
	if empty != seq {
		t.Error("merge into empty accumulator did not copy")
	}
	before := seq
	seq.Merge(BiWelford{})
	if seq != before {
		t.Error("merging an empty accumulator changed the state")
	}
}

func TestBiWelfordMarginals(t *testing.T) {
	xs, ys := biSample(2000)
	var b BiWelford
	var wx, wy Welford
	for i := range xs {
		b.Add(xs[i], ys[i])
		wx.Add(xs[i])
		wy.Add(ys[i])
	}
	if gx := b.X(); math.Abs(gx.Mean()-wx.Mean()) > 1e-12 || math.Abs(gx.Variance()-wx.Variance()) > 1e-12 || gx.N() != wx.N() {
		t.Errorf("X marginal %+v differs from direct Welford %+v", gx, wx)
	}
	if math.Abs(b.MeanY()-wy.Mean()) > 1e-12 || math.Abs(b.VarY()-wy.Variance()) > 1e-12 {
		t.Errorf("Y marginal (%v, %v) differs from direct Welford %+v", b.MeanY(), b.VarY(), wy)
	}
}

func TestFromMoments(t *testing.T) {
	w := FromMoments(100, 0.25, 0.04)
	if w.N() != 100 || w.Mean() != 0.25 {
		t.Fatalf("FromMoments basic fields: n=%d mean=%v", w.N(), w.Mean())
	}
	if math.Abs(w.Variance()-0.04) > 1e-15 {
		t.Errorf("Variance = %v, want 0.04", w.Variance())
	}
	if math.Abs(w.StdErr()-math.Sqrt(0.04/100)) > 1e-15 {
		t.Errorf("StdErr = %v", w.StdErr())
	}
	// Degenerate shapes must not produce NaNs or negative variance.
	single := FromMoments(1, 1, 0.5)
	if v := single.Variance(); v != 0 {
		t.Errorf("n=1 variance = %v, want 0", v)
	}
	flat := FromMoments(10, 1, 0)
	if v := flat.Variance(); v != 0 {
		t.Errorf("zero-variance input gave %v", v)
	}
}
