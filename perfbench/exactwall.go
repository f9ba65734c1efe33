package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	rb "recoveryblocks"
	"recoveryblocks/internal/guard"
	"recoveryblocks/internal/linalg"
)

// The exact-wall questions. ρ is fixed per question and the seed moves only
// the shape of the μ ramp: at n = 12 the 0.99 quantile costs seconds at
// ρ = 0.25 and minutes at ρ = 1, so a seed that moved ρ would move a run's
// cost by orders of magnitude.
var (
	// belowWall is the largest size still on the enumerated route.
	belowWall = question{n: 16, rho: 1}
	// pastWall is one size past the enumeration wall, on the Kronecker route.
	pastWall = question{n: 17, rho: 1}
	// midChain carries the deadline-miss and quantile questions.
	midChain = question{n: 12, rho: 0.25}
)

const (
	midDeadline = 2.0  // d of the deadline-miss question on midChain
	midQuantile = 0.99 // q of the quantile question on midChain

	// Relative tolerances against the reference route. The enumerated and
	// matrix-free routes agree to about 2e-9 at n = 16.
	momentTol = 1e-7
	missTol   = 1e-6
	// cdfTol bounds |F_ref(q̂) − q| at the returned quantile q̂.
	cdfTol = 1e-7
)

// question is one chain size at a fixed interaction intensity
// ρ = 2·Σλ/Σμ.
type question struct {
	n   int
	rho float64
}

// params builds the question's chain: μ_i = 0.8 + 0.05·(i + j_i) with a
// seeded shape jitter j_i ∈ [−0.4, 0.4), so the rates stay pairwise
// distinct (never lumpable) and their sum moves by under 1%; λ is uniform
// and sized for the question's ρ.
func (q question) params(rng *rand.Rand) rb.Params {
	mu := make([]float64, q.n)
	sum := 0.0
	for i := range mu {
		mu[i] = 0.8 + 0.05*(float64(i)+0.8*(rng.Float64()-0.5))
		sum += mu[i]
	}
	lambda := q.rho * sum / float64(q.n*(q.n-1))
	p := rb.Params{Mu: mu, Lambda: make([][]float64, q.n)}
	for i := range p.Lambda {
		p.Lambda[i] = make([]float64, q.n)
		for j := range p.Lambda[i] {
			if i != j {
				p.Lambda[i][j] = lambda
			}
		}
	}
	return p
}

// exactWall holds the built models of the three questions.
type exactWall struct {
	below, past, mid *rb.AsyncModel
}

// wallAnswers is one pass of exact-wall.
type wallAnswers struct {
	below, past [2]float64 // E[X], E[X²]
	miss        float64    // P(X > midDeadline) on midChain
	quantile    float64    // the midQuantile quantile of X on midChain
	fallbacks   []string   // guard routes that replaced a primary
}

// newRNG is the generator the exact-wall inputs are drawn from.
func newRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), 0x657861637477616c))
}

func setupExactWall(seed int64, _ int, tr *tracer) (runner[wallAnswers], error) {
	rng := newRNG(seed)
	w := &exactWall{}
	for _, b := range []struct {
		q   question
		dst **rb.AsyncModel
	}{{belowWall, &w.below}, {pastWall, &w.past}, {midChain, &w.mid}} {
		p := b.q.params(rng)
		err := tr.do(spanBuild, func() (err error) {
			*b.dst, err = rb.NewAsyncModel(p)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("n = %d: %w", b.q.n, err)
		}
	}
	return w, nil
}

func (w *exactWall) pass(tr *tracer) (wallAnswers, error) {
	var a wallAnswers
	rec := &guard.Recorder{}
	ctx := guard.WithRecorder(context.Background(), rec)
	steps := []struct {
		span string
		run  func() error
	}{
		{spanMomentsBelow, func() (err error) { a.below[0], a.below[1], err = w.below.MomentsXCtx(ctx); return }},
		{spanMomentsPast, func() (err error) { a.past[0], a.past[1], err = w.past.MomentsXCtx(ctx); return }},
		{spanDeadline, func() (err error) { a.miss, err = w.mid.DeadlineMissProbCtx(ctx, midDeadline); return }},
		{spanQuantile, func() (err error) { a.quantile, err = w.mid.QuantileX(midQuantile); return }},
	}
	for _, s := range steps {
		if err := tr.do(s.span, s.run); err != nil {
			return a, fmt.Errorf("%s: %w", s.span, err)
		}
	}
	a.fallbacks = rec.Routes()
	return a, nil
}

// check compares the first pass with the reference route and every later
// pass with the first, bit for bit. An answer from a fallback route fails.
func (w *exactWall) check(a wallAnswers, first *wallAnswers) (int, []string) {
	var fails []string
	for _, r := range a.fallbacks {
		fails = append(fails, "answered by fallback route "+r)
	}
	if first != nil {
		if a.below != first.below || a.past != first.past || a.miss != first.miss || a.quantile != first.quantile {
			fails = append(fails, "exact-wall answers differ from the first pass")
		}
		return 4, fails
	}
	ref, err := wallReference(w.below.P, w.past.P, w.mid.P, a.quantile)
	if err != nil {
		return 4, append(fails, "reference route: "+err.Error())
	}
	return 4, append(fails, ref.judge(a)...)
}

// wallRef holds the reference route's values for one pass's questions.
type wallRef struct {
	below, past [2]float64
	miss        float64
	cdfAtQ      float64 // reference P(X ≤ q̂) at the program's quantile q̂
}

// wallReference answers the questions on the benchmark's own Kronecker
// assembly (refChain): moments by Jacobi-preconditioned GMRES and the
// transient by Krylov exponentials.
func wallReference(below, past, mid rb.Params, q float64) (wallRef, error) {
	var r wallRef
	var err error
	if r.below[0], r.below[1], err = refChain(below).AbsorptionMoments(); err != nil {
		return r, err
	}
	if r.past[0], r.past[1], err = refChain(past).AbsorptionMoments(); err != nil {
		return r, err
	}
	cdf, err := refChain(mid).AbsorptionCDF([]float64{midDeadline, q}, 1e-12)
	if err != nil {
		return r, err
	}
	r.miss, r.cdfAtQ = 1-cdf[0], cdf[1]
	return r, nil
}

// judge lists the answers that miss the reference beyond their tolerance.
func (r wallRef) judge(a wallAnswers) []string {
	var fails []string
	for _, c := range []struct {
		what      string
		got, want [2]float64
	}{{"moments below the wall", a.below, r.below}, {"moments past the wall", a.past, r.past}} {
		if !relClose(c.got[0], c.want[0], momentTol) || !relClose(c.got[1], c.want[1], momentTol) {
			fails = append(fails, fmt.Sprintf("%s: (%.12g, %.12g), reference (%.12g, %.12g)", c.what, c.got[0], c.got[1], c.want[0], c.want[1]))
		}
	}
	if !relClose(a.miss, r.miss, missTol) {
		fails = append(fails, fmt.Sprintf("deadline miss: %.12g, reference %.12g", a.miss, r.miss))
	}
	if !(math.Abs(r.cdfAtQ-midQuantile) <= cdfTol) {
		fails = append(fails, fmt.Sprintf("quantile %.12g: reference CDF there is %.12g, want %v", a.quantile, r.cdfAtQ, midQuantile))
	}
	return fails
}

func relClose(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// kronMatvecReps is the number of timed KronOp applications in the probe.
const kronMatvecReps = 25

// probe times a direct KronOp.MulVecInto at the past-wall size on the
// operator the program assembles for that chain, and measures how many
// uniformization matvecs one CDF evaluation at the answered quantile costs,
// against which the quantile's own matvecs are the wasted-probe ratio.
func (w *exactWall) probe(tr *tracer, first wallAnswers, layer map[string]float64) error {
	op := programKronOp(w.past.P)
	x := make([]float64, op.Dim())
	for i := range x {
		x[i] = 1 / float64(1+i%7)
	}
	dst := make([]float64, op.Dim())
	for i := 0; i < 3; i++ {
		op.MulVecInto(dst, x) // warm the operator's scratch and the caches
	}
	times := make([]float64, kronMatvecReps)
	for i := range times {
		id := tr.begin("linalg.kron_matvec")
		t0 := time.Now()
		op.MulVecInto(dst, x)
		times[i] = ms(time.Since(t0))
		tr.end(id)
	}
	n := w.past.P.N()
	layer["linalg.kron_matvec_ms"] = median(times)
	layer["linalg.kron_gbps_computed"] = kronBytes(n) / (median(times) / 1e3) / 1e9

	ratio, err := quantileWasteRatio(tr, []*rb.AsyncModel{w.mid}, []float64{first.quantile})
	layer["rbmodel.quantile_waste_ratio"] = ratio
	return err
}

// quantileWasteRatio is the wasted-probe ratio of QuantileX: the uniformization
// matvecs of the first traced pass's quantile calls over the matvecs of one
// CDF evaluation at each answered quantile, measured here.
func quantileWasteRatio(tr *tracer, models []*rb.AsyncModel, quantiles []float64) (float64, error) {
	var spent, once int64
	for _, s := range tr.descendants(tr.roots(spanPass)[0]) {
		if s.Name == spanQuantile {
			spent += s.Counts["markov_uniformization_matvecs_total"]
		}
	}
	for i, m := range models {
		id := tr.begin("rbmodel.cdf_at_quantile")
		_, err := m.DeadlineMissProb(quantiles[i])
		tr.end(id)
		if err != nil {
			return 0, err
		}
		once += tr.spans[id].Counts["markov_uniformization_matvecs_total"]
	}
	if once == 0 {
		return 0, nil
	}
	return float64(spent) / float64(once), nil
}

// kronBytes is the vector traffic one KronOp application computes for the
// asynchronous model's operator at n bits: per bit, one streamed pass each
// over x, the output and the two shift accumulators; then the exchange
// combine (x, both accumulators, output) and the three zero fills.
func kronBytes(n int) float64 {
	return 8 * float64(int(1)<<n) * float64(4*n+4+3)
}

// programKronOp assembles the operator the way the program's Kronecker
// route does for a uniform interaction rate: one site factor per process,
// the exchange family, and the boundary fixups of the entry state.
func programKronOp(p rb.Params) *linalg.KronOp {
	n := p.N()
	ones := 1<<n - 1
	op := linalg.NewKronOp(n)
	sum := 0.0
	for i, mu := range p.Mu {
		op.AddSite(i, -mu, mu, 0, 0)
		sum += mu
	}
	op.AddExchange(p.Lambda[0][1])
	for i, mu := range p.Mu {
		op.AddFixup(ones&^(1<<i), ones, -mu)
	}
	op.AddFixup(ones, ones, -sum)
	return op
}
