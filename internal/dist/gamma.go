package dist

import "math"

// Normal returns a standard normal variate via Marsaglia's polar method.
// The second variate the method produces is deliberately discarded: caching
// it would make the draw count depend on call history, which complicates
// reasoning about substream usage for no measurable gain in the places
// Normal is called (once per Gamma rejection round, not per event).
func (s *Stream) Normal() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// Gamma returns a Gamma(shape, rate) variate (mean shape/rate) using the
// Marsaglia–Tsang squeeze method for shape ≥ 1 and the standard boost
// Gamma(a) = Gamma(a+1)·U^{1/a} below it. The method is an exact rejection
// sampler — the output distribution is Gamma to full float precision, not an
// approximation — and costs O(1) draws for every shape.
func (s *Stream) Gamma(shape, rate float64) float64 {
	if shape <= 0 || rate <= 0 {
		panic("dist: Gamma needs positive shape and rate")
	}
	if shape < 1 {
		u := 1 - s.Float64() // (0, 1]: the power stays finite
		return s.Gamma(shape+1, rate) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := s.Normal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := 1 - s.Float64() // (0, 1]: the log below stays finite
		x2 := x * x
		if u < 1-0.0331*x2*x2 {
			return d * v / rate
		}
		if math.Log(u) < 0.5*x2+d*(1-v+math.Log(v)) {
			return d * v / rate
		}
	}
}

// erlangDirectMax is the shape below which Erlang sums exponentials
// directly: for tiny k the k logs are cheaper than the Gamma sampler's
// normal variates and squeeze tests.
const erlangDirectMax = 8

// Erlang returns the sum of k independent Exp(rate) variates — the Erlang
// (integer-shape Gamma) distribution — in O(1) time for large k. The
// simulators use it to collapse runs of exponential holding times whose
// individual values are never observed: by the independence of holding times
// and jump targets in a superposed Poisson process, an interval that
// contains k events has total length Erlang(k, g) regardless of which
// categories fired, so one Erlang draw replaces k per-event clock draws.
// It panics if k <= 0.
func (s *Stream) Erlang(k int, rate float64) float64 {
	if k <= 0 {
		panic("dist: Erlang needs k >= 1")
	}
	if k < erlangDirectMax {
		sum := 0.0
		for i := 0; i < k; i++ {
			sum += s.Exp(rate)
		}
		return sum
	}
	return s.Gamma(float64(k), rate)
}

// erlangSumMax is the largest shape ErlangSum draws as a sum of ziggurat
// exponentials: up to it the k draws of about 4 ns each cost less than the
// Gamma sampler's normal variate and squeeze test (about 65 ns on a
// 2.1 GHz Xeon).
const erlangSumMax = 16

// ErlangSum returns an Erlang(k, rate) variate — the same distribution as
// Erlang — as a sum of k ziggurat exponentials for k ≤ erlangSumMax and by
// the Gamma sampler above. It is several times cheaper than Erlang for
// shapes from 1 to a dozen, where Erlang spends one logarithm per
// exponential; Erlang keeps its own method because fixed-seed results of
// the simulators that call it are pinned. It panics if k <= 0.
func (s *Stream) ErlangSum(k int, rate float64) float64 {
	if k <= 0 {
		panic("dist: ErlangSum needs k >= 1")
	}
	if k > erlangSumMax {
		return s.Gamma(float64(k), rate)
	}
	sum := 0.0
	for i := 0; i < k; i++ {
		sum += s.stdExp()
	}
	return sum / rate
}

// The exponential ziggurat of Marsaglia & Tsang ("The ziggurat method for
// generating random variables", J. Stat. Softw. 5(8), 2000): 256 layers of
// equal area zigV under e^{−x}, the base layer ending at zigR and carrying
// the tail. zigK[i] is the 32-bit acceptance bound of layer i, zigW[i]
// scales a 32-bit draw to an abscissa in the layer, and zigF[i] = e^{−x_i}
// at the layer's right edge.
const (
	zigR = 7.697117470131487
	zigV = 3.949659822581572e-3
)

var (
	zigK [256]uint32
	zigW [256]float64
	zigF [256]float64
)

func init() {
	const m = 1 << 32
	de, te := zigR, zigR
	q := zigV / math.Exp(-de)
	zigK[0] = uint32(de / q * m)
	zigW[0], zigW[255] = q/m, de/m
	zigF[0], zigF[255] = 1, math.Exp(-de)
	for i := 254; i >= 1; i-- {
		de = -math.Log(zigV/de + math.Exp(-de))
		zigK[i+1] = uint32(de / te * m)
		te = de
		zigF[i] = math.Exp(-de)
		zigW[i] = de / m
	}
}

// stdExp returns an Exp(1) variate by the ziggurat: one 64-bit draw picks
// the layer (low 8 bits) and the abscissa (high 32 bits), accepted
// outright about 99% of the time; the rest go through the exact wedge test
// or, from the base layer, the tail zigR + Exp(1).
func (s *Stream) stdExp() float64 {
	for {
		u := s.Uint64()
		i := u & 0xFF
		j := uint32(u >> 32)
		x := float64(j) * zigW[i]
		if j < zigK[i] {
			return x
		}
		if i == 0 {
			return zigR - math.Log(1-s.Float64())
		}
		if zigF[i]+s.Float64()*(zigF[i-1]-zigF[i]) < math.Exp(-x) {
			return x
		}
	}
}
