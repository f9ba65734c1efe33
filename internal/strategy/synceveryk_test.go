package strategy

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"recoveryblocks/internal/stats"
	"recoveryblocks/internal/synch"
)

// TestEveryKDegeneratesToSyncAtK1 is the acceptance identity of the fourth
// discipline: at k = 1 the Erlang commit phase is the exponential residual of
// the paper's Section 3, so the advisor metrics must be the sync strategy's
// bit for bit, apart from the strategy name and the block period, on random
// workloads with and without a deadline and an optimal interval.
func TestEveryKDegeneratesToSyncAtK1(t *testing.T) {
	syncSt, _ := Lookup(Sync)
	everySt, _ := Lookup(SyncEveryK)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		w := testWorkload()
		n := 2 + rng.Intn(5)
		w.Mu = make([]float64, n)
		for i := range w.Mu {
			w.Mu[i] = 0.2 + 4.8*rng.Float64()
		}
		w.Lambda = uniformMatrix(n, rng.Float64())
		w.EveryK = 1
		w.SyncInterval = 0.1 + 3*rng.Float64()
		w.ErrorRate = 0.01 + 0.5*rng.Float64()
		w.OptimalSync = trial%2 == 1
		w.Deadline = 0
		if trial%4 < 2 {
			w.Deadline = 0.5 + 6*rng.Float64()
		}
		ms, err := syncSt.Price(w)
		if err != nil {
			t.Fatal(err)
		}
		mk, err := everySt.Price(w)
		if err != nil {
			t.Fatal(err)
		}
		if mk.Strategy != SyncEveryK || mk.EveryK != 1 {
			t.Fatalf("trial %d: every-k labelled %q with k = %d", trial, mk.Strategy, mk.EveryK)
		}
		mk.Strategy, mk.EveryK = ms.Strategy, ms.EveryK
		if mk != ms {
			t.Fatalf("trial %d: k = 1 metrics %+v, sync %+v", trial, mk, ms)
		}
	}
}

// TestMeanMaxErlangClosedForms checks the integral route against independent
// exact values: k = 1 is the inclusion–exclusion E[max Exp], and a single
// process at any k is a plain Erlang mean k/μ.
func TestMeanMaxErlangClosedForms(t *testing.T) {
	mu := []float64{1.5, 1.0, 0.5}
	got, err := meanMaxErlang(1, mu)
	if err != nil {
		t.Fatal(err)
	}
	want, err := synch.MeanMax(mu)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("k=1 integral %v vs inclusion-exclusion %v", got, want)
	}
	for _, k := range []int{1, 2, 5, 40} {
		one, err := meanMaxErlang(k, []float64{0.7})
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(k) / 0.7; math.Abs(one-want) > 1e-8*want {
			t.Fatalf("single-process k=%d: %v, want %v", k, one, want)
		}
	}
	// E[Z_k] grows with k and is bounded below by the slowest mean k/min μ.
	prev := 0.0
	for _, k := range []int{1, 2, 4, 8} {
		ez, err := meanMaxErlang(k, mu)
		if err != nil {
			t.Fatal(err)
		}
		if ez <= prev {
			t.Fatalf("E[Z_k] not increasing at k=%d: %v <= %v", k, ez, prev)
		}
		if floor := float64(k) / 0.5; ez < floor {
			t.Fatalf("E[Z_%d] = %v below slowest mean %v", k, ez, floor)
		}
		prev = ez
	}
}

// exactMeanMaxErlang is the closed form of E[max_i Erlang(k, μ_i)] by
// inclusion–exclusion over the nonempty subsets S: E[max] = Σ_S (−1)^{|S|+1}
// E[min_{i∈S}], where the survival function of the minimum is
// Π_{i∈S} e^{−μ_i t}·P_i(t) with P_i(t) = Σ_{j<k} (μ_i t)^j/j!, a polynomial
// times e^{−M t} (M = Σ_{i∈S} μ_i) integrated term by term as
// ∫ t^m e^{−M t} dt = m!/M^{m+1}.
func exactMeanMaxErlang(k int, mu []float64) float64 {
	total := 0.0
	for s := 1; s < 1<<len(mu); s++ {
		poly := []float64{1} // coefficients of t^m in Π_{i∈S} P_i(t)
		rate := 0.0
		for i, m := range mu {
			if s&(1<<i) == 0 {
				continue
			}
			rate += m
			next := make([]float64, len(poly)+k-1)
			c := 1.0 // μ^j/j!
			for j := 0; j < k; j++ {
				if j > 0 {
					c *= m / float64(j)
				}
				for a, p := range poly {
					next[a+j] += p * c
				}
			}
			poly = next
		}
		term, moment := 0.0, 1/rate // moment = m!/M^{m+1}
		for m, c := range poly {
			if m > 0 {
				moment *= float64(m) / rate
			}
			term += c * moment
		}
		if bits.OnesCount(uint(s))%2 == 1 {
			total += term
		} else {
			total -= term
		}
	}
	return total
}

// meanMaxErlangTol is the absolute accuracy meanMaxErlang holds against the
// closed form. At k = 1 the panel march stops once a panel (two slowest
// means wide) contributes below 1e-10, and the survival function decays by
// e⁻² per panel, so the unmarched tail is up to 1e-10·e⁻²/(1−e⁻²) ≈ 1.6e-11;
// from k = 2 it decays much faster and the quadrature itself is the bound.
func meanMaxErlangTol(k int) float64 {
	if k == 1 {
		return 2e-11
	}
	return 1e-11
}

// TestMeanMaxErlangExact checks the Gauss–Kronrod route against the
// inclusion–exclusion closed form on random rates, n ≤ 6 and k ≤ 8.
func TestMeanMaxErlangExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n, k := 1+rng.Intn(6), 1+rng.Intn(8)
		mu := make([]float64, n)
		for i := range mu {
			mu[i] = 0.2 + 2.8*rng.Float64()
		}
		got, err := meanMaxErlang(k, mu)
		if err != nil {
			t.Fatal(err)
		}
		if want := exactMeanMaxErlang(k, mu); math.Abs(got-want) > meanMaxErlangTol(k) {
			t.Fatalf("k=%d μ=%v: integral %v vs closed form %v (error %.3g)", k, mu, got, want, math.Abs(got-want))
		}
	}
}

// TestMeanMaxErlangEvaluationBudget bounds how often the commit-phase
// integral evaluates its integrand (n exponentials each): at most 400 times
// on the chaos corpus's shapes (n = 2..5, k = 1..4, rates 0.2..5) and 1 000
// at k = 512 up to n = 24. It replays meanMaxErlang's own call with a
// counting integrand and first checks the replay returns the same bits.
func TestMeanMaxErlangEvaluationBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	check := func(k int, mu []float64, budget int) {
		t.Helper()
		slowest := mu[0]
		for _, m := range mu {
			slowest = math.Min(slowest, m)
		}
		calls := 0
		got, err := stats.IntegrateToInf(func(t float64) float64 {
			calls++
			return 1 - maxErlangCDF(k, mu, t)
		}, 0, 2*float64(k)/slowest, 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := meanMaxErlang(k, mu); got != want {
			t.Fatalf("replay %v differs from meanMaxErlang %v: update the replay", got, want)
		}
		if calls > budget {
			t.Errorf("k=%d n=%d: %d integrand evaluations, budget %d", k, len(mu), calls, budget)
		}
	}
	for trial := 0; trial < 200; trial++ {
		n, k := 2+rng.Intn(4), 1+rng.Intn(4)
		base := 0.5 + 2*rng.Float64()
		mu := make([]float64, n)
		for i := range mu {
			mu[i] = base * (0.4 + 1.6*rng.Float64())
		}
		check(k, mu, 400)
	}
	for n := 2; n <= 24; n += 2 {
		mu := make([]float64, n)
		for i := range mu {
			mu[i] = 0.5 + 2*rng.Float64()
		}
		check(512, mu, 1000)
	}
}

func TestErlangCDFProperties(t *testing.T) {
	if got := erlangCDF(3, 1, 0); got != 0 {
		t.Fatalf("CDF(0) = %v", got)
	}
	if got := erlangCDF(3, 1, -1); got != 0 {
		t.Fatalf("CDF(-1) = %v", got)
	}
	// Monotone, in [0, 1], and saturating at 1 past the underflow anchor.
	prev := 0.0
	for _, x := range []float64{0.1, 1, 3, 10, 100, 800, 2000} {
		p := erlangCDF(MaxEveryK, 1, x)
		if p < prev-1e-15 || p < 0 || p > 1 {
			t.Fatalf("CDF not monotone in [0,1] at %v: %v after %v", x, p, prev)
		}
		prev = p
	}
	if got := erlangCDF(MaxEveryK, 1, 2000); got != 1 {
		t.Fatalf("deep-tail CDF = %v, want exactly 1", got)
	}
	// k=1 is the exponential.
	if got, want := erlangCDF(1, 2, 0.7), 1-math.Exp(-1.4); math.Abs(got-want) > 1e-15 {
		t.Fatalf("Exp CDF via Erlang: %v, want %v", got, want)
	}
}

// TestEveryKSimulatorWorkerInvariance pins the mc determinism contract on
// the new simulator: results are bit-identical for every worker count.
func TestEveryKSimulatorWorkerInvariance(t *testing.T) {
	mu := []float64{1.5, 1.0, 0.5}
	a := simulateEveryK(mu, 1.5, 3, 5000, 77, 1)
	b := simulateEveryK(mu, 1.5, 3, 5000, 77, 4)
	c := simulateEveryK(mu, 1.5, 3, 5000, 77, 0)
	for _, pair := range []struct {
		name string
		x, y everyKResult
	}{{"1-vs-4", a, b}, {"1-vs-all", a, c}} {
		if pair.x.Z != pair.y.Z || pair.x.Loss != pair.y.Loss ||
			pair.x.Cycle != pair.y.Cycle || pair.x.Saved != pair.y.Saved {
			t.Fatalf("worker counts disagree (%s):\n%+v\nvs\n%+v", pair.name, pair.x, pair.y)
		}
	}
}

// TestEveryKXValChecksOptIn: cells that do not set EveryK record nothing
// (that is what keeps the legacy grids' goldens untouched); cells that do
// record the four observables, plus the two exact k=1 degeneracy routes.
func TestEveryKXValChecksOptIn(t *testing.T) {
	st, _ := Lookup(SyncEveryK)
	w := testWorkload()
	w.Reps = 2000

	w.EveryK = 0
	rec := NewRecorder(w.Name)
	if err := st.XValChecks(w, rec); err != nil {
		t.Fatal(err)
	}
	if n := len(rec.Measurements()); n != 0 {
		t.Fatalf("EveryK=0 cell recorded %d checks, want 0", n)
	}

	w.EveryK = 2
	rec = NewRecorder(w.Name)
	if err := st.XValChecks(w, rec); err != nil {
		t.Fatal(err)
	}
	if n := len(rec.Measurements()); n != 4 {
		t.Fatalf("EveryK=2 cell recorded %d checks, want 4", n)
	}

	w.EveryK = 1
	rec = NewRecorder(w.Name)
	if err := st.XValChecks(w, rec); err != nil {
		t.Fatal(err)
	}
	ms := rec.Measurements()
	if n := len(ms); n != 6 {
		t.Fatalf("EveryK=1 cell recorded %d checks, want 6 (4 statistical + 2 numeric)", n)
	}
	numeric := 0
	for _, m := range ms {
		if m.Kind == KindNumeric {
			numeric++
			if math.Abs(m.Ref-m.Est) > 1e-9*(1+math.Abs(m.Ref)) {
				t.Errorf("%s: exact routes disagree: %v vs %v", m.Name, m.Ref, m.Est)
			}
		}
	}
	if numeric != 2 {
		t.Fatalf("k=1 cell carried %d numeric checks, want 2", numeric)
	}
}

// TestEveryKOptimalInterval: under OptimalSync the discipline resolves τ
// from its own cost curve. At k = 1 the closed form must agree with
// synch.OptimalInterval (the sync strategy's resolver minimizes the same
// function there); at k > 1 the resolved τ must actually beat the k = 1
// optimum on the every-k renewal-reward overhead it claims to minimize.
func TestEveryKOptimalInterval(t *testing.T) {
	w := testWorkload()
	w.OptimalSync = true
	w.ErrorRate = 0.08
	syncSt, _ := Lookup(Sync)
	everySt, _ := Lookup(SyncEveryK)

	w.EveryK = 1
	ms, err := syncSt.Price(w)
	if err != nil {
		t.Fatal(err)
	}
	mk, err := everySt.Price(w)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(ms.SyncInterval-mk.SyncInterval) / ms.SyncInterval; rel > 1e-6 {
		t.Fatalf("k=1 optimal tau: sync %v vs every-k %v (rel %v)", ms.SyncInterval, mk.SyncInterval, rel)
	}

	w.EveryK = 4
	m4, err := everySt.Price(w)
	if err != nil {
		t.Fatal(err)
	}
	ez4, err := meanMaxErlang(4, w.Mu)
	if err != nil {
		t.Fatal(err)
	}
	cl4 := meanLossEveryK(4, w.Mu, ez4)
	over := func(tau float64) float64 {
		n := float64(len(w.Mu))
		cycle := tau + ez4
		return (cl4 + w.ErrorRate*cycle*n*tau/2) / (n * cycle)
	}
	if over(m4.SyncInterval) > over(mk.SyncInterval)+1e-12 {
		t.Fatalf("k=4 resolved tau %v is worse than the k=1 optimum %v on its own cost curve (%v vs %v)",
			m4.SyncInterval, mk.SyncInterval, over(m4.SyncInterval), over(mk.SyncInterval))
	}
	// And it is a genuine stationary point of the closed form.
	want := math.Sqrt(2*cl4/(w.ErrorRate*float64(len(w.Mu)))) - ez4
	if math.Abs(m4.SyncInterval-want) > 1e-9*(1+want) {
		t.Fatalf("k=4 tau = %v, want closed form %v", m4.SyncInterval, want)
	}

	// No error rate: the optimum is undefined, and the discipline must say so.
	w.ErrorRate = 0
	if _, err := everySt.Price(w); err == nil {
		t.Fatal("optimal interval resolved with zero error rate")
	}
}

// TestEveryKValidateBounds: the block period must stay in [0, MaxEveryK]
// (0 = default), whatever a spec file claims.
func TestEveryKValidateBounds(t *testing.T) {
	st, _ := Lookup(SyncEveryK)
	w := testWorkload()
	for _, k := range []int{-1, MaxEveryK + 1} {
		w.EveryK = k
		if err := st.Validate(w); err == nil {
			t.Errorf("EveryK=%d accepted", k)
		}
	}
	for _, k := range []int{0, 1, MaxEveryK} {
		w.EveryK = k
		if err := st.Validate(w); err != nil {
			t.Errorf("EveryK=%d rejected: %v", k, err)
		}
	}
}

// TestEveryKPricesTheAmortizationTradeoff: with cheap errors, raising k
// lowers the per-cycle synchronization overhead share only when the commit
// machinery is what dominates; what must always hold is that the commitment
// wait per cycle (SyncLossRate × cycle × n = E[CL_k]) grows with k while
// cycles get proportionally longer.
func TestEveryKPricesTheAmortizationTradeoff(t *testing.T) {
	w := testWorkload()
	w.Deadline = 0
	st, _ := Lookup(SyncEveryK)
	prevCL := 0.0
	for _, k := range []int{1, 2, 4, 8} {
		w.EveryK = k
		m, err := st.Price(w)
		if err != nil {
			t.Fatal(err)
		}
		ezk, err := meanMaxErlang(k, w.Mu)
		if err != nil {
			t.Fatal(err)
		}
		cl := m.SyncLossRate * (m.SyncInterval + ezk) * float64(len(w.Mu))
		if cl <= prevCL {
			t.Fatalf("E[CL_k] not increasing at k=%d: %v <= %v", k, cl, prevCL)
		}
		prevCL = cl
		if m.DeadlineMissProb != -1 {
			t.Fatalf("no-deadline sentinel lost: %v", m.DeadlineMissProb)
		}
	}
}
