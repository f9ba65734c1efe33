package markov

import (
	"math"
	"testing"
	"testing/quick"

	"recoveryblocks/internal/linalg"
	"recoveryblocks/internal/ode"
)

// twoStateChain: 0 --(rate r)--> 1 (absorbing). Absorption time ~ Exp(r).
func twoStateChain(r float64) *CTMC {
	c := NewCTMC(2)
	c.AddRate(0, 1, r)
	c.SetAbsorbing(1)
	return c
}

func TestExponentialAbsorption(t *testing.T) {
	for _, r := range []float64{0.5, 1, 4} {
		c := twoStateChain(r)
		m1, m2, err := c.AbsorptionMoments(0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m1-1/r) > 1e-12 {
			t.Fatalf("E[T] = %v, want %v", m1, 1/r)
		}
		if math.Abs(m2-2/(r*r)) > 1e-10 {
			t.Fatalf("E[T²] = %v, want %v", m2, 2/(r*r))
		}
	}
}

func TestErlangAbsorption(t *testing.T) {
	// 0→1→2→3 each at rate r: absorption time is Erlang(3, r).
	r := 2.0
	c := NewCTMC(4)
	c.AddRate(0, 1, r)
	c.AddRate(1, 2, r)
	c.AddRate(2, 3, r)
	c.SetAbsorbing(3)
	m1, m2, err := c.AbsorptionMoments(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m1-3/r) > 1e-12 {
		t.Fatalf("Erlang mean = %v", m1)
	}
	want2 := 3/(r*r) + 9/(r*r) // Var = k/r², E[T²] = Var + mean²
	if math.Abs(m2-want2) > 1e-10 {
		t.Fatalf("Erlang second moment = %v, want %v", m2, want2)
	}
}

func TestCompetingRisks(t *testing.T) {
	// 0 → 1 at rate a, 0 → 2 at rate b, both absorbing: E[T] = 1/(a+b).
	a, b := 1.5, 0.5
	c := NewCTMC(3)
	c.AddRate(0, 1, a)
	c.AddRate(0, 2, b)
	c.SetAbsorbing(1)
	c.SetAbsorbing(2)
	m1, err := c.MeanAbsorptionTime(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m1-1/(a+b)) > 1e-12 {
		t.Fatalf("competing risks mean = %v", m1)
	}
}

func TestIterativeMatchesDirect(t *testing.T) {
	// Birth–death chain with absorbing upper end.
	c := NewCTMC(6)
	for i := 0; i < 5; i++ {
		c.AddRate(i, i+1, 1.0+float64(i))
		if i > 0 {
			c.AddRate(i, i-1, 0.7)
		}
	}
	c.SetAbsorbing(5)
	direct, err := c.MeanAbsorptionTime(0)
	if err != nil {
		t.Fatal(err)
	}
	iter, err := c.MeanAbsorptionTimeIterative(0, 1e-12, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(direct-iter) > 1e-8 {
		t.Fatalf("direct %v vs iterative %v", direct, iter)
	}
}

func TestTransientDistributionTwoState(t *testing.T) {
	// π_0(t) = e^{-rt} exactly.
	r := 1.3
	c := twoStateChain(r)
	for _, tt := range []float64{0, 0.1, 0.5, 1, 3} {
		pi := c.TransientDistribution([]float64{1, 0}, tt, 1e-12)
		want := math.Exp(-r * tt)
		if math.Abs(pi[0]-want) > 1e-9 {
			t.Fatalf("π_0(%v) = %v, want %v", tt, pi[0], want)
		}
		if math.Abs(pi[0]+pi[1]-1) > 1e-9 {
			t.Fatalf("mass not conserved at t=%v", tt)
		}
	}
}

func TestTransientDistributionMatchesODE(t *testing.T) {
	// Cross-validate uniformization against direct RK4 on dπ/dt = πQ.
	c := NewCTMC(4)
	c.AddRate(0, 1, 1.1)
	c.AddRate(1, 0, 0.4)
	c.AddRate(1, 2, 2.0)
	c.AddRate(2, 3, 0.8)
	c.AddRate(2, 0, 0.3)
	c.SetAbsorbing(3)
	q := denseGenerator(c)
	f := func(_ float64, y, dst []float64) {
		res := q.VecMul(y)
		copy(dst, res)
	}
	pi0 := []float64{1, 0, 0, 0}
	for _, tt := range []float64{0.3, 1.0, 2.5} {
		uni := c.TransientDistribution(pi0, tt, 1e-12)
		rk := ode.RK4(f, pi0, 0, tt, 4000)
		for i := range uni {
			if math.Abs(uni[i]-rk[i]) > 1e-7 {
				t.Fatalf("t=%v state %d: uniformization %v vs RK4 %v", tt, i, uni[i], rk[i])
			}
		}
	}
}

func TestAbsorptionDensityExponential(t *testing.T) {
	r := 2.0
	c := twoStateChain(r)
	times := []float64{0, 0.25, 0.5, 1, 2}
	f := c.AbsorptionDensity([]float64{1, 0}, times, 1e-12)
	for i, tt := range times {
		want := r * math.Exp(-r*tt)
		if math.Abs(f[i]-want) > 1e-9 {
			t.Fatalf("f(%v) = %v, want %v", tt, f[i], want)
		}
	}
}

func TestAbsorptionDensityIntegratesToOne(t *testing.T) {
	c := NewCTMC(4)
	c.AddRate(0, 1, 1)
	c.AddRate(1, 2, 2)
	c.AddRate(1, 0, 0.5)
	c.AddRate(2, 3, 1.5)
	c.SetAbsorbing(3)
	// Trapezoid over a long horizon.
	const dt = 0.01
	times := make([]float64, 3001)
	for i := range times {
		times[i] = float64(i) * dt
	}
	f := c.AbsorptionDensity([]float64{1, 0, 0, 0}, times, 1e-12)
	integral := 0.0
	for i := 1; i < len(times); i++ {
		integral += (f[i] + f[i-1]) / 2 * dt
	}
	if math.Abs(integral-1) > 1e-3 {
		t.Fatalf("∫f = %v, want 1", integral)
	}
}

func TestAbsorptionCDFMatchesDensityIntegral(t *testing.T) {
	c := NewCTMC(3)
	c.AddRate(0, 1, 1)
	c.AddRate(1, 2, 2)
	c.SetAbsorbing(2)
	pi0 := []float64{1, 0, 0}
	const dt = 0.005
	times := make([]float64, 601)
	for i := range times {
		times[i] = float64(i) * dt
	}
	f := c.AbsorptionDensity(pi0, times, 1e-12)
	cdf := c.AbsorptionCDF(pi0, times, 1e-12)
	integral := 0.0
	for i := 1; i < len(times); i++ {
		integral += (f[i] + f[i-1]) / 2 * dt
		if math.Abs(integral-cdf[i]) > 1e-4 {
			t.Fatalf("∫f(0..%v)=%v vs CDF %v", times[i], integral, cdf[i])
		}
	}
}

func TestMeanFromDensityMatchesLinearSolve(t *testing.T) {
	// E[T] = ∫ t f(t) dt must match the LU-based moment.
	c := NewCTMC(4)
	c.AddRate(0, 1, 2)
	c.AddRate(1, 2, 1)
	c.AddRate(2, 0, 0.4)
	c.AddRate(2, 3, 2.2)
	c.SetAbsorbing(3)
	m1, err := c.MeanAbsorptionTime(0)
	if err != nil {
		t.Fatal(err)
	}
	const dt = 0.01
	times := make([]float64, 4001)
	for i := range times {
		times[i] = float64(i) * dt
	}
	f := c.AbsorptionDensity([]float64{1, 0, 0, 0}, times, 1e-12)
	integral := 0.0
	for i := 1; i < len(times); i++ {
		integral += (times[i]*f[i] + times[i-1]*f[i-1]) / 2 * dt
	}
	if math.Abs(integral-m1) > 5e-3*m1 {
		t.Fatalf("∫t·f = %v vs E[T] = %v", integral, m1)
	}
}

func TestDTMCExpectedVisitsGeometric(t *testing.T) {
	// State 0 self-loops with prob p, absorbs with prob 1-p:
	// E[visits to 0] = 1/(1-p).
	p := 0.75
	d := NewDTMC(2)
	d.AddProb(0, 0, p)
	d.AddProb(0, 1, 1-p)
	d.SetAbsorbing(1)
	v, err := d.ExpectedVisits(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v[0]-4) > 1e-12 {
		t.Fatalf("visits = %v, want 4", v[0])
	}
}

func TestDTMCGamblersRuin(t *testing.T) {
	// Symmetric walk on 0..4 with absorbing ends; from 2 the ruin
	// probabilities are 1/2 each and expected visits are known.
	d := NewDTMC(5)
	for i := 1; i <= 3; i++ {
		d.AddProb(i, i-1, 0.5)
		d.AddProb(i, i+1, 0.5)
	}
	d.SetAbsorbing(0)
	d.SetAbsorbing(4)
	v, err := d.ExpectedVisits(2)
	if err != nil {
		t.Fatal(err)
	}
	// For the symmetric walk from the middle of 0..4: N(2,·) = (1, 2, 1).
	if math.Abs(v[1]-1) > 1e-12 || math.Abs(v[2]-2) > 1e-12 || math.Abs(v[3]-1) > 1e-12 {
		t.Fatalf("visits = %v", v)
	}
	// Each end absorbs the visits of its neighbour times its step: 1/2 each.
	if ruin0, ruin4 := v[1]*0.5, v[3]*0.5; math.Abs(ruin0-0.5) > 1e-12 || math.Abs(ruin4-0.5) > 1e-12 {
		t.Fatalf("ruin probabilities %v, %v", ruin0, ruin4)
	}
}

func TestExpectedTransitionCount(t *testing.T) {
	p := 0.6
	d := NewDTMC(3)
	d.AddProb(0, 1, p)
	d.AddProb(0, 2, 1-p)
	d.AddProb(1, 0, 1)
	d.SetAbsorbing(2)
	v, err := d.ExpectedVisits(0)
	if err != nil {
		t.Fatal(err)
	}
	// Visits to 0 form a geometric with success prob 1-p ⇒ E = 1/(1-p).
	want0 := 1 / (1 - p)
	if math.Abs(v[0]-want0) > 1e-12 {
		t.Fatalf("visits(0) = %v", v[0])
	}
	// Traversals of 0 → 1 are visits(0)·p(0, 1), the sum SplitChain.MeanL
	// takes over the edges into its primed absorbing state.
	got := 0.0
	for _, e := range d.Transitions(0) {
		if e.To == 1 {
			got += v[0] * e.Rate
		}
	}
	if math.Abs(got-p*want0) > 1e-12 {
		t.Fatalf("E[0→1 traversals] = %v", got)
	}
}

func TestPoissonWeightsSumToOne(t *testing.T) {
	for _, lt := range []float64{0.001, 0.5, 5, 50, 500} {
		w := poissonWeights(nil, lt, 1e-12)
		sum := 0.0
		for _, v := range w {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Poisson weights for Λt=%v sum to %v", lt, sum)
		}
	}
}

// TestPoissonWeightsMatchLogSpace checks the recurrence weights against the
// per-term log-space formula. Both carry the rounding of an exponent of size
// ~Λt·log Λt, so the relative tolerance scales with Λt (below 1e-300 both
// underflow and the check is absolute). The same rounding moves 1 − Σw by
// ~Λt·1e-16, so the two truncation points differ where 1 − Σw crosses eps
// that closely: on uniform grids of 20 000 horizons at eps = 1e-10, at 6
// below Λt = 100 and at 1 % below 1000. The test pins them on a fixed set of
// small horizons.
func TestPoissonWeightsMatchLogSpace(t *testing.T) {
	var w []float64
	for _, lt := range []float64{1e-6, 0.3, 1, 7.5, 64, 99.9, 333.3, 2000} {
		tol := 1e-14 * (lt + 10)
		for _, eps := range []float64{1e-10, 1e-12} {
			w = poissonWeights(w, lt, eps)
			bound := int(lt + 10*math.Sqrt(lt) + 30)
			var ref []float64
			sum := 0.0
			for k := 0; k <= bound; k++ {
				lg, _ := math.Lgamma(float64(k + 1))
				ref = append(ref, math.Exp(-lt+float64(k)*math.Log(lt)-lg))
				sum += ref[k]
				if k > int(lt) && 1-sum < eps {
					break
				}
			}
			if lt < 100 && len(w) != len(ref) {
				t.Fatalf("Λt=%v eps=%v: truncated at K=%d, log space at %d", lt, eps, len(w)-1, len(ref)-1)
			}
			for k := 0; k < len(w) && k < len(ref); k++ {
				if d := math.Abs(w[k] - ref[k]); d > tol*ref[k] && d > 1e-300 {
					t.Fatalf("Λt=%v: w_%d = %v, log space %v", lt, k, w[k], ref[k])
				}
			}
		}
	}
}

// denseGenerator assembles the generator Q the chain's rows imply: the
// transition rates off the diagonal and −OutRate on it.
func denseGenerator(c *CTMC) *linalg.Matrix {
	q := linalg.NewMatrix(c.N(), c.N())
	for u := 0; u < c.N(); u++ {
		q.Add(u, u, -c.OutRate(u))
		for _, e := range c.Transitions(u) {
			q.Add(u, e.To, e.Rate)
		}
	}
	return q
}

func TestGeneratorRowSumsZeroProperty(t *testing.T) {
	f := func(seed int64) bool {
		// Random small chain; the generator its rows imply (diagonal
		// −OutRate) must have rows summing to ~0.
		r := seed
		next := func() float64 {
			r = r*6364136223846793005 + 1442695040888963407
			return float64((r>>33)&0xffff) / 65536.0
		}
		c := NewCTMC(6)
		for u := 0; u < 5; u++ {
			for v := 0; v < 6; v++ {
				if u != v {
					c.AddRate(u, v, next())
				}
			}
		}
		c.SetAbsorbing(5)
		q := denseGenerator(c)
		for u := 0; u < 6; u++ {
			s := 0.0
			for v := 0; v < 6; v++ {
				s += q.At(u, v)
			}
			if math.Abs(s) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAddRateAccumulates(t *testing.T) {
	c := NewCTMC(2)
	c.AddRate(0, 1, 1)
	c.AddRate(0, 1, 2)
	if c.OutRate(0) != 3 {
		t.Fatalf("accumulated rate = %v", c.OutRate(0))
	}
	if len(c.Transitions(0)) != 1 {
		t.Fatal("duplicate entries not merged")
	}
}

func TestAbsorbingGuards(t *testing.T) {
	c := NewCTMC(2)
	c.SetAbsorbing(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic adding transition out of absorbing state")
		}
	}()
	c.AddRate(1, 0, 1)
}

func TestAbsorptionMomentsFromAbsorbingStart(t *testing.T) {
	c := twoStateChain(1)
	m1, m2, err := c.AbsorptionMoments(1)
	if err != nil || m1 != 0 || m2 != 0 {
		t.Fatalf("absorbing start: %v %v %v", m1, m2, err)
	}
}
