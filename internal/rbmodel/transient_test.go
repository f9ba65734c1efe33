package rbmodel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"recoveryblocks/internal/obs"
)

// The tests in this file install the global obs registry, so none of them may
// call t.Parallel().

// TestTransientGridMatchesTransientDistribution checks CDFX and DensityX,
// answered from one absorption sequence, against the full-vector
// uniformization reference on the full cube (EnumerateAsync's chain,
// independent of either operator), evaluated point by point on the
// 16 385-point grid the Figure 6 KS check uses, t = 0 included: in the
// count form on one, two and three classes, with and without
// interactions, in the cube form on a non-lumpable n = 5 model, and
// against the n = 1 closed form.
func TestTransientGridMatchesTransientDistribution(t *testing.T) {
	third := []int{0, 1, 2, 0, 1, 2}
	cases := []*AsyncModel{
		mustAsync(t, Uniform(3, 1, 1)),
		mustAsync(t, Uniform(3, 1, 0)),
		mustAsync(t, Uniform(1, 2, 0)),
		mustAsync(t, twoClassParams(3, 2, 1.0, 2.5, 0.3, 0.8, 0.5)),
		mustAsync(t, classParams(third, []float64{0.7, 1.3, 2}, [][]float64{{0.2, 0, 0.9}, {0, 1.1, 0.4}, {0.9, 0.4, 0.6}}, 1)),
		mustAsync(t, wallRamp(5, 1)),
	}
	forms := map[string]int{}
	for _, m := range cases {
		forms[m.Route()]++
	}
	if forms["count"] != 4 || forms["cube"] != 2 {
		t.Fatalf("forms %v, want 4 count and 2 cube", forms)
	}

	const gridN = 16384
	for _, m := range cases {
		mean, err := m.MeanX()
		if err != nil {
			t.Fatal(err)
		}
		times := make([]float64, gridN+1)
		for i := range times {
			times[i] = 4 * mean * float64(i) / gridN
		}
		cdf, dens := m.CDFX(times), m.DensityX(times)
		chain := mustEnumerate(t, m.P)
		pi0 := pointMass(m.NumStates(), m.Entry())
		for i, tt := range times {
			pi := chain.TransientDistribution(pi0, tt, transientEps)
			var wantCDF, wantF float64
			for u, v := range pi {
				if chain.IsAbsorbing(u) {
					wantCDF += v
					continue
				}
				for _, e := range chain.Transitions(u) {
					if chain.IsAbsorbing(e.To) {
						wantF += v * e.Rate
					}
				}
			}
			if math.Abs(cdf[i]-wantCDF) > 1e-12 || math.Abs(dens[i]-wantF) > 1e-12*math.Max(1, wantF) {
				t.Fatalf("%s n=%d t=%v: CDF %v density %v, reference %v %v", m.Route(), m.P.N(), tt, cdf[i], dens[i], wantCDF, wantF)
			}
			if m.P.N() == 1 {
				mu := m.P.Mu[0]
				if math.Abs(cdf[i]-(1-math.Exp(-mu*tt))) > 1e-9 || math.Abs(dens[i]-mu*math.Exp(-mu*tt)) > 1e-9 {
					t.Fatalf("n=1 t=%v: CDF %v density %v, closed form %v %v", tt, cdf[i], dens[i], 1-math.Exp(-mu*tt), mu*math.Exp(-mu*tt))
				}
			}
		}
	}
}

// matvecsOf returns the uniformization matvecs fn performs.
func matvecsOf(t *testing.T, fn func() error) int64 {
	t.Helper()
	return countOf(t, "markov_uniformization_matvecs_total", fn)
}

// passesOf returns the transform passes fn performs.
func passesOf(t *testing.T, fn func() error) int64 {
	t.Helper()
	return countOf(t, "rbmodel_transform_passes_total", fn)
}

// countOf returns the deterministic counter name's increments over fn.
func countOf(t *testing.T, name string, fn func() error) int64 {
	t.Helper()
	reg := obs.Enable()
	defer obs.Disable()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	return reg.Counter(name).Value()
}

// TestQuantileCostsAboutOneCDF: the uniformization rung of QuantileXCtx
// reads one absorption sequence for every Newton probe and grows its
// horizon by at most a quarter per probe, so a 0.99 quantile costs at most
// 1.3 times the uniformization matvecs of one deadline-miss evaluation at
// its own answer, on the count operator and the cube's. A bracket
// doubled from E[X] took 1.49 times on the benchmark's n = 12 kron chain
// and 1.77 on its paper-table chains.
func TestQuantileCostsAboutOneCDF(t *testing.T) {
	ctx := context.Background()
	models := []*AsyncModel{
		mustAsync(t, Uniform(4, 1, 0.5)),
		mustAsync(t, Uniform(3, 1, 1)),
		mustAsync(t, twoClassParams(3, 2, 1.0, 2.5, 0.3, 0.8, 0.5)),
		mustAsync(t, Uniform(17, 1, 0.005)),
		mustAsync(t, wallRamp(12, 0.25)),
	}
	for _, m := range models {
		var x float64
		quantile := matvecsOf(t, func() (err error) { x, err = m.quantileUniformized(ctx, 0.99); return })
		miss := matvecsOf(t, func() error { _, err := m.missUniformized(ctx, x); return err })
		if miss == 0 || float64(quantile) > 1.3*float64(miss) {
			t.Errorf("%s n=%d: uniformized 0.99 quantile took %d matvecs, one CDF at its answer %d", m.Route(), m.P.N(), quantile, miss)
		}
		if m.P.N() < 10 {
			if cdf := m.CDFX([]float64{x})[0]; math.Abs(cdf-0.99) > 1e-8 {
				t.Errorf("%s n=%d: CDF %v at the uniformized 0.99 quantile %v", m.Route(), m.P.N(), cdf, x)
			}
		}
	}
}

// TestDeadlineMissMatvecsPinned pins the work and answer of one deadline-miss
// evaluation on each rung. The uniformization rung's Poisson truncation
// point, and so its matvec count, equals the full-vector sweep's it
// replaced, on the count operator as on the enumerated and orbit chains
// before it. Its answer sums the transient masses; read as 1 − F it was
// 3.7e-11 to 8.2e-11 higher on these cases. The transform rung takes talbotNodes + talbotCheck passes and
// no matvec, and matches the uniformization rung within its 1e-10
// truncation.
func TestDeadlineMissMatvecsPinned(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		p           Params
		route       string
		matvecs     int64
		unif, trans float64
	}{
		{Uniform(4, 1, 0.5), "count", 44, 0.31344146094188269, 0.31344146094788755},
		{Uniform(3, 1, 1), "count", 40, 0.34005799243320711, 0.34005799243867396},
		{Uniform(17, 1, 0.005), "count", 79, 0.017697252197347552, 0.017697252197935102},
		{wallRamp(12, 0.25), "cube", 69, 0.068640211110731389, 0.068640211114076727},
	} {
		m := mustAsync(t, c.p)
		var unif, trans float64
		got := matvecsOf(t, func() (err error) { unif, err = m.missUniformized(ctx, 2); return })
		if m.Route() != c.route || got != c.matvecs {
			t.Errorf("%s n=%d: uniformized P(X > 2) took %d matvecs, want %d on %s", m.Route(), c.p.N(), got, c.matvecs, c.route)
		}
		if math.Abs(unif-c.unif) > 1e-13 {
			t.Errorf("%s n=%d: uniformized P(X > 2) = %.17g, want %.17g", m.Route(), c.p.N(), unif, c.unif)
		}
		var passes, matvecs int64
		matvecs = matvecsOf(t, func() error {
			passes = passesOf(t, func() (err error) { trans, err = m.DeadlineMissProb(2); return })
			return nil
		})
		if passes != talbotNodes+talbotCheck || matvecs != 0 {
			t.Errorf("%s n=%d: DeadlineMissProb(2) took %d passes and %d matvecs, want %d and 0", m.Route(), c.p.N(), passes, matvecs, talbotNodes+talbotCheck)
		}
		if math.Abs(trans-c.trans) > 1e-13 || math.Abs(trans-unif) > 2*transientEps {
			t.Errorf("%s n=%d: DeadlineMissProb(2) = %.17g, want %.17g and within %v of %.17g", m.Route(), c.p.N(), trans, c.trans, 2*transientEps, unif)
		}
	}
}

// countdownCtx is a context whose Err reports cancellation once it has been
// asked left times. Both halves of a split batch poll it, so the count is
// atomic.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

// countdown returns a countdownCtx alive for left checks.
func countdown(left int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(left)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestTransientCtxHonoursCancellation: the context-aware quantile and
// deadline-miss entry points stop on a dead context; the transform rung
// polls the context before every pass, so a context that dies in the middle
// of an inversion stops it within a pass; and the uniformization rung on
// the kron route, where a step is a full operator application, stops within
// a step.
func TestTransientCtxHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []*AsyncModel{mustAsync(t, Uniform(3, 1, 1)), mustAsync(t, wallRamp(12, 0.25))} {
		if _, err := m.QuantileXCtx(ctx, 0.99); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: QuantileXCtx on a cancelled context: err = %v", m.Route(), err)
		}
		if _, err := m.DeadlineMissProbCtx(ctx, 2); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: DeadlineMissProbCtx on a cancelled context: err = %v", m.Route(), err)
		}
	}

	m := mustAsync(t, wallRamp(12, 0.25))
	const alive = 10 // context checks before it dies, one of them the block's
	passes := passesOf(t, func() error {
		_, err := m.DeadlineMissProbCtx(countdown(alive), 2)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("DeadlineMissProbCtx on a dying context: err = %v", err)
		}
		return nil
	})
	if passes != alive-1 {
		t.Errorf("transform ran %d passes on a context alive for %d checks, want %d", passes, alive, alive-1)
	}
	full := passesOf(t, func() error { _, err := m.QuantileX(0.99); return err })
	cut := passesOf(t, func() error {
		// Enough checks for the tail root and the first Talbot probe, not
		// for the whole search.
		_, err := m.QuantileXCtx(countdown(40), 0.99)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("QuantileXCtx on a dying context: err = %v", err)
		}
		return nil
	})
	if cut != 39 || cut >= full {
		t.Errorf("QuantileXCtx ran %d passes on a context alive for 40 checks, the whole search %d", cut, full)
	}

	steps := matvecsOf(t, func() error {
		_, err := m.missUniformized(countdown(alive), 2)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("kron uniformization on a dying context: err = %v", err)
		}
		return nil
	})
	if steps != alive {
		t.Errorf("kron sweep ran %d steps on a context alive for %d checks, want %d", steps, alive, alive)
	}
}

// TestCancelIsCoreCountInvariant: a context that dies in the middle of a
// split contour batch (the n = 12 deadline miss and quantile) or between
// the pipelined passes of the n = 16 tail search stops the question with
// context.Canceled after the same number of passes on two cores as on one,
// and leaves no half waiting: the next question still answers, bit for bit
// as on one core. A panic in either half of a pipelined pass reaches the
// caller, and the half without it does not wait forever.
func TestCancelIsCoreCountInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	m12, m16 := mustAsync(t, wallRamp(12, 0.25)), mustAsync(t, wallRamp(16, 1))
	for _, c := range []struct {
		name  string
		alive int64
		ask   func(ctx context.Context) (float64, error)
	}{
		{"n=12 deadline", 30, func(ctx context.Context) (float64, error) { return m12.DeadlineMissProbCtx(ctx, 2) }},
		{"n=12 quantile", 40, func(ctx context.Context) (float64, error) { return m12.QuantileXCtx(ctx, 0.99) }},
		{"n=16 decay rate", 4, func(ctx context.Context) (float64, error) { eta, _, err := m16.DecayRateXCtx(ctx); return eta, err }},
	} {
		var passes [2]int64
		var after [2]float64
		for i, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			passes[i] = passesOf(t, func() error {
				if _, err := c.ask(countdown(c.alive)); !errors.Is(err, context.Canceled) {
					t.Errorf("%s on %d cores, a context dying after %d checks: err = %v", c.name, procs, c.alive, err)
				}
				return nil
			})
			var err error
			if after[i], err = c.ask(context.Background()); err != nil {
				t.Fatalf("%s on %d cores after a cancelled question: %v", c.name, procs, err)
			}
		}
		if passes[0] != passes[1] || passes[0] > c.alive {
			t.Errorf("%s: cancelled after %d passes on one core, %d on two, context alive for %d checks", c.name, passes[0], passes[1], c.alive)
		}
		if math.Float64bits(after[0]) != math.Float64bits(after[1]) {
			t.Errorf("%s after a cancelled question: %v on two cores, %v on one", c.name, after[1], after[0])
		}
	}

	runtime.GOMAXPROCS(2)
	const dim = 1 << 16
	for _, at := range []int{5, dim/2 + 5} { // the half without the top bit, the half with it
		var pipe pipeline
		p := func() (p any) {
			defer func() { p = recover() }()
			pipe.sweep(panicAt(at), dim)
			return nil
		}()
		if p == nil {
			t.Errorf("a panic at subset %d did not reach the caller", at)
		}
	}
}

// panicAt is a subset pass that panics when it reaches its subset.
type panicAt int

func (p panicAt) run(lo, hi int) {
	if lo <= int(p) && int(p) < hi {
		panic(fmt.Sprintf("subset %d reached", int(p)))
	}
}

// TestUniformizedSurvivalDeepTail: on the rates the FuzzTransformAgreement
// seed 84108ba5d47d9360 builds (μ = (1.55, 0.3625, 0.3625, 1.8, 1.55), λ up
// to 3.5), at t = 4226, where γt ≈ 9e4, the uniformization rung matches the
// full-vector survival function within 1e-9 relative (measured 2.2e-11).
// It sums the transient masses; read as 1 − F, its answer is 4.3e-8 off
// there.
func TestUniformizedSurvivalDeepTail(t *testing.T) {
	p := fuzzParams([]byte("0\n\n8"), 5)
	if want := []float64{1.55, 0.3625, 0.3625, 1.8, 1.55}; fmt.Sprint(p.Mu) != fmt.Sprint(want) {
		t.Fatalf("seed rates μ = %v, want %v", p.Mu, want)
	}
	const d = 4226
	m := mustAsync(t, p)
	got, err := m.missUniformized(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	want := survivalReference(t, p, d)
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("%s: uniformized P(X > %v) = %.15g, full-vector reference %.15g (relative %.1e)", m.Route(), float64(d), got, want, math.Abs(got-want)/want)
	}
	F, _, err := m.gridEngine().NewAbsorptionSequence().At(context.Background(), d, transientEps)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s γt = %.3g: S = %.6g, relative error %.1e; 1 − F's %.1e", m.Route(), entryRate(p)*d, got, math.Abs(got-want)/want, math.Abs(1-F-want)/want)
}
