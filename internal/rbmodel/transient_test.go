package rbmodel

import (
	"context"
	"errors"
	"math"
	"testing"

	"recoveryblocks/internal/markov"
	"recoveryblocks/internal/obs"
)

// The tests in this file install the global obs registry, so none of them may
// call t.Parallel().

// TestTransientGridMatchesTransientDistribution checks CDFX and DensityX,
// answered from one absorption sequence, against the full-vector
// uniformization reference evaluated point by point on the 16 385-point grid
// the Figure 6 KS check uses, t = 0 included, on the enumerated and orbit
// routes, with and without interactions, and against the n = 1 closed form.
func TestTransientGridMatchesTransientDistribution(t *testing.T) {
	type gridCase struct {
		m             *AsyncModel
		chain         *markov.CTMC
		entry, states int
	}
	var cases []gridCase
	for _, p := range []Params{Uniform(3, 1, 1), Uniform(3, 1, 0), Uniform(1, 2, 0)} {
		m := mustAsync(t, p)
		cases = append(cases, gridCase{m, m.Chain(), m.Entry(), m.NumStates()})
	}
	orb := forceOrbit(t, twoClassParams(3, 2, 1.0, 2.5, 0.3, 0.8, 0.5))
	cases = append(cases, gridCase{orb, orb.chain(), orb.entry, orb.states})

	const gridN = 16384
	for _, c := range cases {
		mean, err := c.m.MeanX()
		if err != nil {
			t.Fatal(err)
		}
		times := make([]float64, gridN+1)
		for i := range times {
			times[i] = 4 * mean * float64(i) / gridN
		}
		cdf, dens := c.m.CDFX(times), c.m.DensityX(times)
		pi0 := make([]float64, c.states)
		pi0[c.entry] = 1
		for i, tt := range times {
			pi := c.chain.TransientDistribution(pi0, tt, transientEps)
			var wantCDF, wantF float64
			for u, v := range pi {
				if c.chain.IsAbsorbing(u) {
					wantCDF += v
					continue
				}
				for _, e := range c.chain.Transitions(u) {
					if c.chain.IsAbsorbing(e.To) {
						wantF += v * e.Rate
					}
				}
			}
			if math.Abs(cdf[i]-wantCDF) > 1e-12 || math.Abs(dens[i]-wantF) > 1e-12*math.Max(1, wantF) {
				t.Fatalf("%s n=%d t=%v: CDF %v density %v, reference %v %v", c.m.Route(), c.m.P.N(), tt, cdf[i], dens[i], wantCDF, wantF)
			}
			if c.m.P.N() == 1 {
				mu := c.m.P.Mu[0]
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
// its own answer, on the enumerated, orbit and kron routes. A bracket
// doubled from E[X] took 1.49 times on the benchmark's n = 12 kron chain
// and 1.77 on its paper-table chains.
func TestQuantileCostsAboutOneCDF(t *testing.T) {
	ctx := context.Background()
	models := []*AsyncModel{
		mustAsync(t, Uniform(4, 1, 0.5)),
		mustAsync(t, Uniform(3, 1, 1)),
		forceOrbit(t, twoClassParams(3, 2, 1.0, 2.5, 0.3, 0.8, 0.5)),
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
// replaced. The transform rung takes talbotNodes + talbotCheck passes and
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
		{Uniform(4, 1, 0.5), "enumerated", 44, 0.31344146097935432, 0.31344146094788755},
		{Uniform(3, 1, 1), "enumerated", 40, 0.34005799247839796, 0.34005799243867396},
		{Uniform(17, 1, 0.005), "orbit", 79, 0.017697252279705533, 0.017697252197935102},
		// The enumerated route's count and answer before n = 12 moved to
		// the operator-stepped sequence.
		{wallRamp(12, 0.25), "kron", 69, 0.068640211196998258, 0.068640211114076727},
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
// asked left times.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
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
		_, err := m.DeadlineMissProbCtx(&countdownCtx{Context: context.Background(), left: alive}, 2)
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
		_, err := m.QuantileXCtx(&countdownCtx{Context: context.Background(), left: 40}, 0.99)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("QuantileXCtx on a dying context: err = %v", err)
		}
		return nil
	})
	if cut != 39 || cut >= full {
		t.Errorf("QuantileXCtx ran %d passes on a context alive for 40 checks, the whole search %d", cut, full)
	}

	steps := matvecsOf(t, func() error {
		_, err := m.missUniformized(&countdownCtx{Context: context.Background(), left: alive}, 2)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("kron uniformization on a dying context: err = %v", err)
		}
		return nil
	})
	if steps != alive {
		t.Errorf("kron sweep ran %d steps on a context alive for %d checks, want %d", steps, alive, alive)
	}
}
