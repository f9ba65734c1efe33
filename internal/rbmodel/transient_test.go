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
		m     *AsyncModel
		chain *markov.CTMC
		entry int
	}
	var cases []gridCase
	for _, p := range []Params{Uniform(3, 1, 1), Uniform(3, 1, 0), Uniform(1, 2, 0)} {
		m := mustAsync(t, p)
		cases = append(cases, gridCase{m, m.Chain(), m.Entry()})
	}
	orb := forceOrbit(t, twoClassParams(3, 2, 1.0, 2.5, 0.3, 0.8, 0.5))
	cases = append(cases, gridCase{orb, orb.orbit.Chain(), orb.orbit.Entry()})

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
		pi0 := make([]float64, c.chain.N())
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
	reg := obs.Enable()
	defer obs.Disable()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	return reg.Counter("markov_uniformization_matvecs_total").Value()
}

// TestQuantileCostsAboutOneCDF: every bisection probe reads one absorption
// sequence, so a 0.99 quantile costs at most twice the matvecs of one
// deadline-miss evaluation at its own answer (the bracket's upper end is at
// most twice the quantile).
func TestQuantileCostsAboutOneCDF(t *testing.T) {
	models := []*AsyncModel{
		mustAsync(t, Uniform(4, 1, 0.5)),
		mustAsync(t, Uniform(3, 1, 1)),
		forceOrbit(t, twoClassParams(3, 2, 1.0, 2.5, 0.3, 0.8, 0.5)),
		mustAsync(t, Uniform(17, 1, 0.005)),
		mustAsync(t, wallRamp(12, 0.25)),
	}
	for _, m := range models {
		var x float64
		quantile := matvecsOf(t, func() (err error) { x, err = m.QuantileX(0.99); return })
		miss := matvecsOf(t, func() error { _, err := m.DeadlineMissProb(x); return err })
		if miss == 0 || quantile > 2*miss {
			t.Errorf("%s n=%d: QuantileX(0.99) took %d matvecs, one CDF at its answer %d", m.Route(), m.P.N(), quantile, miss)
		}
	}
}

// TestDeadlineMissMatvecsPinned pins the matvec count and answer of one
// deadline-miss evaluation: the Poisson truncation point, and so the work,
// of a single-horizon evaluation equals the full-vector sweep's it replaced.
func TestDeadlineMissMatvecsPinned(t *testing.T) {
	for _, c := range []struct {
		p       Params
		route   string
		matvecs int64
		miss    float64
	}{
		{Uniform(4, 1, 0.5), "enumerated", 44, 0.31344146097935432},
		{Uniform(3, 1, 1), "enumerated", 40, 0.34005799247839796},
		{Uniform(17, 1, 0.005), "orbit", 79, 0.017697252279705533},
		// The enumerated route's count and answer before n = 12 moved to
		// the operator-stepped sequence.
		{wallRamp(12, 0.25), "kron", 69, 0.068640211196998258},
	} {
		m := mustAsync(t, c.p)
		var p float64
		got := matvecsOf(t, func() (err error) { p, err = m.DeadlineMissProb(2); return })
		if m.Route() != c.route || got != c.matvecs {
			t.Errorf("%s n=%d: DeadlineMissProb(2) took %d matvecs, want %d on %s", m.Route(), c.p.N(), got, c.matvecs, c.route)
		}
		if math.Abs(p-c.miss) > 1e-13 {
			t.Errorf("%s n=%d: DeadlineMissProb(2) = %.17g, want %.17g", m.Route(), c.p.N(), p, c.miss)
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
// deadline-miss entry points stop on a dead context, and on the kron route,
// where a step is a full operator application, a context that dies in the
// middle of the sweep stops it within a step.
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
	const alive = 10 // context checks before it dies, two of them on entry
	steps := matvecsOf(t, func() error {
		_, err := m.DeadlineMissProbCtx(&countdownCtx{Context: context.Background(), left: alive}, 2)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("kron DeadlineMissProbCtx on a dying context: err = %v", err)
		}
		return nil
	})
	if steps != alive-2 {
		t.Errorf("kron sweep ran %d steps on a context alive for %d checks, want %d", steps, alive, alive-2)
	}
	full := matvecsOf(t, func() error { _, err := m.QuantileX(0.99); return err })
	cut := matvecsOf(t, func() error {
		// Enough checks for the moment solve and the first bisection probes,
		// not for the sequence the whole search needs.
		_, err := m.QuantileXCtx(&countdownCtx{Context: context.Background(), left: 100}, 0.99)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("kron QuantileXCtx on a dying context: err = %v", err)
		}
		return nil
	})
	if cut >= full {
		t.Errorf("kron QuantileXCtx ran %d steps on a dying context, the whole search %d", cut, full)
	}
}
