package rbmodel

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"recoveryblocks/internal/markov"
)

// cubeMomentsBig evaluates cubeMoments' recursion in prec-bit
// big.Float arithmetic, with Λ(T) summed pair by pair, as the reference its
// float64 rounding is judged against.
func cubeMomentsBig(p Params, prec uint) (m1, m2 float64) {
	n := p.N()
	ones := 1<<n - 1
	f := func(x float64) *big.Float { return new(big.Float).SetPrec(prec).SetFloat64(x) }
	P := make([]*big.Float, ones+1)
	A := make([]*big.Float, ones+1)
	P[0], A[0] = f(1), f(0)
	for t := 1; t <= ones; t++ {
		d, sp, sa := f(0), f(0), f(0)
		for i := 0; i < n; i++ {
			if t&(1<<i) == 0 {
				continue
			}
			mu := f(p.Mu[i])
			d.Add(d, mu)
			sp.Add(sp, f(0).Mul(mu, P[t&^(1<<i)]))
			sa.Add(sa, f(0).Mul(mu, A[t&^(1<<i)]))
			for j := 0; j < n; j++ {
				// Each pair that meets T once: {i, j} with j ∉ T, or j > i.
				if j != i && (t&(1<<j) == 0 || j > i) {
					d.Add(d, f(p.Lambda[i][j]))
				}
			}
		}
		P[t] = f(0).Quo(sp, d)
		A[t] = f(0).Quo(sa.Add(sa, f(0).Sub(f(1), P[t])), d)
	}
	rate, sa := f(0), f(0)
	for i := 0; i < n; i++ {
		rate.Add(rate, f(0).Mul(f(p.Mu[i]), P[ones&^(1<<i)]))
		sa.Add(sa, f(0).Mul(f(p.Mu[i]), A[ones&^(1<<i)]))
	}
	e1 := f(0).Quo(f(1), rate)
	e2 := f(0).Mul(e1, e1)
	e2.Mul(e2, sa.Add(sa, f(1))).Mul(e2, f(2))
	m1, _ = e1.Float64()
	m2, _ = e2.Float64()
	return m1, m2
}

func relDiff(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }

// scaledRandom is randomParams with λ rescaled to put the interaction
// intensity at ρ.
func scaledRandom(rng *rand.Rand, n int, rho float64) Params {
	p := randomParams(rng, n)
	if p.SumLambdaPairs() == 0 {
		return p
	}
	s := rho / p.Rho()
	for i := range p.Lambda {
		for j := range p.Lambda[i] {
			p.Lambda[i][j] *= s
		}
	}
	return p
}

// rampFamilies returns the three λ shapes the cross-route tests run at one
// size and intensity: uniform, one hot pair, and random with some pairs zero.
func rampFamilies(rng *rand.Rand, n int, rho float64) map[string]Params {
	return map[string]Params{
		"uniform":  wallRamp(n, rho),
		"hot-pair": hotPairRamp(n, rho),
		"random":   scaledRandom(rng, n, rho),
	}
}

// TestRenewalRounding bounds the float64 recursion's rounding against a
// 256-bit evaluation of the same recursion at n ≤ 10, ρ from 1e-3 to 64,
// for uniform, hot-pair and random λ. The worst relative differences were
// 1.4e-15 in E[X] and 2.8e-15 in E[X²].
func TestRenewalRounding(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var worst1, worst2 float64
	for n := 2; n <= 10; n++ {
		for _, rho := range []float64{1e-3, 0.25, 1, 4, 8, 64} {
			for _, p := range []Params{wallRamp(n, rho), hotPairRamp(n, rho), scaledRandom(rng, n, rho)} {
				f1, f2 := cubeMoments(p)
				b1, b2 := cubeMomentsBig(p, 256)
				worst1 = max(worst1, relDiff(f1, b1))
				worst2 = max(worst2, relDiff(f2, b2))
			}
		}
	}
	if worst1 > 1e-14 || worst2 > 2e-14 {
		t.Errorf("float64 recursion rounds %.2e (E[X]) and %.2e (E[X²]) from 256 bits, bounds 1e-14 and 2e-14", worst1, worst2)
	}
	t.Logf("worst relative rounding: E[X] %.2e, E[X²] %.2e", worst1, worst2)
}

// TestRenewalMatchesDenseLU judges the recursion against dense LU on the
// enumerated chain at n = 3, 8 and 10 (and 11 for uniform λ at ρ = 1, past
// -short), for uniform, hot-pair and random λ. LU's own error grows with ρ,
// so the tolerance does too; each is under ten times the worst difference
// measured (ρ = 0.25: 1.8e-14; ρ = 1: 9.8e-13; ρ = 4: 1.4e-10).
func TestRenewalMatchesDenseLU(t *testing.T) {
	tol := map[float64]float64{0.25: 1e-13, 1: 5e-12, 4: 1e-9}
	worst := map[float64]float64{}
	rng := rand.New(rand.NewSource(83))
	check := func(name string, p Params, rho float64) {
		e1, e2, err := mustEnumerate(t, p).AbsorptionMomentsDense(0)
		if err != nil {
			t.Fatal(err)
		}
		r1, r2 := cubeMoments(p)
		d := max(relDiff(r1, e1), relDiff(r2, e2))
		worst[rho] = max(worst[rho], d)
		if d > tol[rho] {
			t.Errorf("%s: recursion (%.17g, %.17g), dense LU (%.17g, %.17g), tolerance %g", name, r1, r2, e1, e2, tol[rho])
		}
	}
	for _, n := range []int{3, 8, 10} {
		for _, rho := range []float64{0.25, 1, 4} {
			for family, p := range rampFamilies(rng, n, rho) {
				check(fmt.Sprintf("n=%d ρ=%g %s", n, rho, family), p, rho)
			}
		}
	}
	if !testing.Short() {
		check("n=11 ρ=1 uniform", wallRamp(11, 1), 1)
	}
	t.Logf("worst relative difference by ρ: %v", worst)
}

// TestRenewalMatchesKrylovAtHighRho: at ρ = 8 dense LU is off by up to 3e-7
// itself, so the recursion is judged against the kron-krylov rung at n = 8
// and 10, within 3e-8 relative (the worst difference measured was 3.1e-9)
// and within that rung's a-posteriori forward-error bound.
func TestRenewalMatchesKrylovAtHighRho(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	var worst float64
	for _, n := range []int{8, 10} {
		for family, p := range rampFamilies(rng, n, 8) {
			start := 1<<n - 1
			h, h2, e1, e2 := krylovMoments(t, p)
			r1, r2 := cubeMoments(p)
			d1, d2 := math.Abs(r1-h[start]), math.Abs(r2-h2[start])
			worst = max(worst, d1/r1, d2/r2)
			if d1 > 3e-8*r1 || d2 > 3e-8*r2 || d1 > e1 || d2 > e2 {
				t.Errorf("n=%d %s: recursion (%.17g, %.17g), kron-krylov (%.17g, %.17g) ± (%.2g, %.2g)", n, family, r1, r2, h[start], h2[start], e1, e2)
			}
		}
	}
	t.Logf("worst relative difference: %.2e", worst)
}

// TestRenewalMatchesEnumerated runs the recursion against EnumerateAsync's
// chain (dense LU, n ≤ 7) on 60 random-λ models with some pairs zero, within
// 1e-10 relative (worst measured 1.3e-11).
func TestRenewalMatchesEnumerated(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	var worst float64
	for trial := 0; trial < 60; trial++ {
		n := 2 + trial%6
		p := randomParams(rng, n)
		e1, e2, err := mustEnumerate(t, p).AbsorptionMomentsDense(0)
		if err != nil {
			t.Fatal(err)
		}
		r1, r2 := cubeMoments(p)
		worst = max(worst, relDiff(r1, e1), relDiff(r2, e2))
		if relDiff(r1, e1) > 1e-10 || relDiff(r2, e2) > 1e-10 {
			t.Errorf("trial %d n=%d: recursion (%.17g, %.17g), enumerated (%.17g, %.17g)", trial, n, r1, r2, e1, e2)
		}
	}
	t.Logf("worst relative difference: %.2e", worst)
}

// TestRenewalWithoutInteractions: at λ = 0 no process is ever unmarked, so
// every recovery point forms a line and X is exponential at rate Σμ:
// E[X] = 1/Σμ and E[X²] = 2/(Σμ)². The recursion gives E[X] exactly (P_T is
// Σ_{i∈T} μ_i over the same sum, so 1) and E[X²] = 2·E[X]² (A_T = 0), one
// rounding order away from 2/(Σμ)² (at most 1.5e-16 relative here).
func TestRenewalWithoutInteractions(t *testing.T) {
	for _, n := range []int{1, 2, 5, 9} {
		p := wallRamp(n, 0)
		s := p.SumMu()
		m1, m2 := cubeMoments(p)
		if m1 != 1/s || m2 != 2*m1*m1 || relDiff(m2, 2/(s*s)) > 1e-15 {
			t.Errorf("n=%d: (%.17g, %.17g), want (%.17g, %.17g)", n, m1, m2, 1/s, 2/(s*s))
		}
	}
}

// absorptionMomentsBig solves a chain's moment systems Q_T·h = −1 and
// Q_T·h2 = −2h by Gaussian elimination with partial pivoting in prec-bit
// arithmetic, and returns h and h2 at start.
func absorptionMomentsBig(c *markov.CTMC, states, start int, prec uint) (m1, m2 float64) {
	f := func(x float64) *big.Float { return new(big.Float).SetPrec(prec).SetFloat64(x) }
	idx := make([]int, states)
	var tr []int
	for u := range idx {
		idx[u] = -1
		if !c.IsAbsorbing(u) {
			idx[u] = len(tr)
			tr = append(tr, u)
		}
	}
	k := len(tr)
	q := make([][]*big.Float, k)
	for r, u := range tr {
		q[r] = make([]*big.Float, k)
		for j := range q[r] {
			q[r][j] = f(0)
		}
		for _, e := range c.Transitions(u) {
			q[r][r].Sub(q[r][r], f(e.Rate))
			if j := idx[e.To]; j >= 0 {
				q[r][j].Add(q[r][j], f(e.Rate))
			}
		}
	}
	solve := func(b []*big.Float) []*big.Float {
		m := make([][]*big.Float, k)
		for r := range m {
			m[r] = make([]*big.Float, k+1)
			for j := range q[r] {
				m[r][j] = f(0).Set(q[r][j])
			}
			m[r][k] = f(0).Set(b[r])
		}
		for p := 0; p < k; p++ {
			best := p
			for r := p + 1; r < k; r++ {
				if f(0).Abs(m[r][p]).Cmp(f(0).Abs(m[best][p])) > 0 {
					best = r
				}
			}
			m[p], m[best] = m[best], m[p]
			for r := p + 1; r < k; r++ {
				l := f(0).Quo(m[r][p], m[p][p])
				for j := p; j <= k; j++ {
					m[r][j].Sub(m[r][j], f(0).Mul(l, m[p][j]))
				}
			}
		}
		x := make([]*big.Float, k)
		for r := k - 1; r >= 0; r-- {
			s := f(0).Set(m[r][k])
			for j := r + 1; j < k; j++ {
				s.Sub(s, f(0).Mul(m[r][j], x[j]))
			}
			x[r] = f(0).Quo(s, m[r][r])
		}
		return x
	}
	b := make([]*big.Float, k)
	for r := range b {
		b[r] = f(-1)
	}
	h := solve(b)
	for r := range b {
		b[r] = f(0).Mul(f(-2), h[r])
	}
	h2 := solve(b)
	m1, _ = h[idx[start]].Float64()
	m2, _ = h2[idx[start]].Float64()
	return m1, m2
}

// TestRenewalMatchesSymmetricChain: at identical rates the full model lumps
// onto the paper's (n+2)-state symmetric chain, an independent route small
// enough to solve in 512-bit arithmetic at any n. The recursion agrees with
// it within 2e-14 relative at n = 8, 16 and 20 for ρ up to 16 (worst
// measured 2.3e-15), where E[X] reaches 7e19 and float64 solves of either
// chain drift: float64 LU on the symmetric chain is 5e-4 off at n = 16,
// ρ = 8, and at ρ = 16 reads E[X] = 1.2e15 for 3.4e15.
func TestRenewalMatchesSymmetricChain(t *testing.T) {
	var worst float64
	for _, n := range []int{8, 16, 20} {
		for _, rho := range []float64{0.25, 1, 4, 8, 16} {
			lambda := rho / float64(n-1)
			sym, err := NewSymmetric(n, 1, lambda)
			if err != nil {
				t.Fatal(err)
			}
			s1, s2 := absorptionMomentsBig(sym.Chain(), n+2, sym.Entry(), 512)
			r1, r2 := cubeMoments(Uniform(n, 1, lambda))
			worst = max(worst, relDiff(r1, s1), relDiff(r2, s2))
			if relDiff(r1, s1) > 2e-14 || relDiff(r2, s2) > 2e-14 {
				t.Errorf("n=%d ρ=%g: recursion (%.17g, %.17g), 512-bit symmetric chain (%.17g, %.17g)", n, rho, r1, r2, s1, s2)
			}
		}
	}
	t.Logf("worst relative difference: %.2e", worst)
}

// classParams builds lumpable rates: process i in class of[i], with RP rate
// mu[of[i]] and λ_ij = L[of[i]][of[j]], every λ then scaled to put the
// interaction intensity at ρ.
func classParams(of []int, mu []float64, L [][]float64, rho float64) Params {
	n := len(of)
	p := Params{Mu: make([]float64, n), Lambda: make([][]float64, n)}
	for i, a := range of {
		p.Mu[i] = mu[a]
		p.Lambda[i] = make([]float64, n)
		for j, b := range of {
			if j != i {
				p.Lambda[i][j] = L[a][b]
			}
		}
	}
	if p.SumLambdaPairs() > 0 {
		s := rho / p.Rho()
		for i := range p.Lambda {
			for j := range p.Lambda[i] {
				p.Lambda[i][j] *= s
			}
		}
	}
	return p
}

// TestCountFormMatchesSymmetricChain: at identical rates the count form has
// one class, and the paper's (n+2)-state symmetric chain solved in 512-bit
// arithmetic is an independent oracle at any n. Both one-class readings,
// SymmetricModel's and NewAsync's, agree with it within 1e-14 relative at
// n = 2..20 for ρ up to 16, where E[X] reaches 7e19 (worst measured
// 1.4e-15).
func TestCountFormMatchesSymmetricChain(t *testing.T) {
	var worst float64
	for _, n := range []int{2, 5, 8, 12, 16, 20} {
		for _, rho := range []float64{0.25, 1, 4, 8, 16} {
			lambda := rho / float64(n-1)
			sym, err := NewSymmetric(n, 1, lambda)
			if err != nil {
				t.Fatal(err)
			}
			b1, b2 := absorptionMomentsBig(sym.Chain(), n+2, sym.Entry(), 512)
			s1, s2, err := sym.MomentsX()
			if err != nil {
				t.Fatal(err)
			}
			a1, a2, err := mustAsync(t, Uniform(n, 1, lambda)).MomentsX()
			if err != nil {
				t.Fatal(err)
			}
			d := max(relDiff(s1, b1), relDiff(s2, b2), relDiff(a1, b1), relDiff(a2, b2))
			worst = max(worst, d)
			if d > 1e-14 {
				t.Errorf("n=%d ρ=%g: symmetric (%.17g, %.17g), NewAsync (%.17g, %.17g), 512-bit chain (%.17g, %.17g)", n, rho, s1, s2, a1, a2, b1, b2)
			}
		}
	}
	t.Logf("worst relative difference: %.2e", worst)
}

// TestCountFormMatchesCube judges the count form against the cube
// recursion over all 2^n subsets on lumpable rates: two interleaved
// classes, three classes with one zero λ block, and a singleton class
// beside a large one, at n = 4..20 and ρ from 0.25 to 16. The two agree
// within 1e-13 relative (worst measured 6.7e-14), and NewAsync's moment
// pair is the count form's, bit for bit.
func TestCountFormMatchesCube(t *testing.T) {
	var worst float64
	for _, n := range []int{4, 9, 14, 17, 20} {
		two, three, single := make([]int, n), make([]int, n), make([]int, n)
		for i := range two {
			two[i], three[i] = i%2, i%3
			if i > 0 {
				single[i] = 1
			}
		}
		families := map[string]Params{}
		for _, rho := range []float64{0.25, 1, 4, 16} {
			families[fmt.Sprintf("two-class ρ=%g", rho)] = classParams(two, []float64{1, 2.5},
				[][]float64{{0.3, 0.5}, {0.5, 0.8}}, rho)
			families[fmt.Sprintf("three-class ρ=%g", rho)] = classParams(three, []float64{0.7, 1.3, 2},
				[][]float64{{0.2, 0, 0.9}, {0, 1.1, 0.4}, {0.9, 0.4, 0.6}}, rho)
			families[fmt.Sprintf("singleton ρ=%g", rho)] = classParams(single, []float64{3, 0.9},
				[][]float64{{0, 0.7}, {0.7, 0.25}}, rho)
		}
		for name, p := range families {
			cls := lumpClasses(p)
			if cls == nil {
				t.Fatalf("n=%d %s: rates do not lump", n, name)
			}
			c1, c2 := cls.countMoments()
			r1, r2 := cubeMoments(p)
			d := max(relDiff(c1, r1), relDiff(c2, r2))
			worst = max(worst, d)
			if d > 1e-13 {
				t.Errorf("n=%d %s: count form (%.17g, %.17g), cube (%.17g, %.17g)", n, name, c1, c2, r1, r2)
			}
			if a1, a2, err := mustAsync(t, p).MomentsX(); err != nil || a1 != c1 || a2 != c2 {
				t.Errorf("n=%d %s: NewAsync (%.17g, %.17g, %v), count form (%.17g, %.17g)", n, name, a1, a2, err, c1, c2)
			}
		}
	}
	t.Logf("worst relative difference: %.2e", worst)
}

// TestLumpedMomentsAtHighRho is the regression for the float64 LU solves of
// the lumped chains the lumped routes once took: at n = 20, ρ = 8 the orbit
// chain's LU gave E[X] = 3.32e14 for 5.86e14, and it was off by about 1 at
// ρ = 16 and by 3.3e-3 at n = 24, ρ = 4. The count form of NewAsync and
// SymmetricModel now agree with the 512-bit symmetric chain within 1e-14
// there, and at n = 20 with the cube recursion within 2e-14 (worst measured
// 1.6e-15 and 2.2e-15).
func TestLumpedMomentsAtHighRho(t *testing.T) {
	var worstBig, worstCube float64
	for _, c := range []struct {
		n   int
		rho float64
	}{{20, 8}, {20, 16}, {24, 4}} {
		lambda := c.rho / float64(c.n-1)
		m := mustAsync(t, Uniform(c.n, 1, lambda))
		if m.Route() != "count" {
			t.Fatalf("n=%d: form %s, want count", c.n, m.Route())
		}
		o1, o2, err := m.MomentsX()
		if err != nil {
			t.Fatal(err)
		}
		sym, err := NewSymmetric(c.n, 1, lambda)
		if err != nil {
			t.Fatal(err)
		}
		s1, s2, err := sym.MomentsX()
		if err != nil {
			t.Fatal(err)
		}
		b1, b2 := absorptionMomentsBig(sym.Chain(), c.n+2, sym.Entry(), 512)
		d := max(relDiff(o1, b1), relDiff(o2, b2), relDiff(s1, b1), relDiff(s2, b2))
		worstBig = max(worstBig, d)
		if d > 1e-14 {
			t.Errorf("n=%d ρ=%g: orbit (%.17g, %.17g), symmetric (%.17g, %.17g), 512-bit chain (%.17g, %.17g)", c.n, c.rho, o1, o2, s1, s2, b1, b2)
		}
		if c.n <= 20 {
			r1, r2 := cubeMoments(Uniform(c.n, 1, lambda))
			d := max(relDiff(o1, r1), relDiff(o2, r2))
			worstCube = max(worstCube, d)
			if d > 2e-14 {
				t.Errorf("n=%d ρ=%g: orbit (%.17g, %.17g), cube (%.17g, %.17g)", c.n, c.rho, o1, o2, r1, r2)
			}
		}
	}
	t.Logf("worst relative difference: %.2e from the 512-bit chain, %.2e from the cube", worstBig, worstCube)
}

// TestRenewalIsCoreCountInvariant: from 2^16 subsets cubeMoments pipelines
// its pass across the top bit, and pairRates splits its two halves, so the
// n = 16 and 17 moment pairs, for uniform and hot-pair λ, must come out bit
// for bit on two cores as on one.
func TestRenewalIsCoreCountInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		name string
		p    Params
	}{
		{"uniform n=16", wallRamp(16, 1)}, {"uniform n=17", wallRamp(17, 1)},
		{"hot pair n=16", hotPairRamp(16, 4)}, {"hot pair n=17", hotPairRamp(17, 4)},
	} {
		runtime.GOMAXPROCS(1)
		w1, w2 := cubeMoments(c.p)
		runtime.GOMAXPROCS(2)
		g1, g2 := cubeMoments(c.p)
		if math.Float64bits(g1) != math.Float64bits(w1) || math.Float64bits(g2) != math.Float64bits(w2) {
			t.Errorf("%s: moment pair (%.17g, %.17g) on two cores, (%.17g, %.17g) on one", c.name, g1, g2, w1, w2)
		}
	}
}
