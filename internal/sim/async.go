// Package sim provides the three scheme simulators used to cross-validate
// the analytic models: SimulateAsync (recovery-line intervals X and
// saved-state counts L_i, Table 1 and Figures 5–6), SimulateSync
// (computation loss under the three synchronization-request strategies of
// Section 3), and SimulatePRP (rollback distances with pseudo recovery
// points vs asynchronous recovery lines, Section 4).
//
// All three simulators shard their replications through the parallel Monte
// Carlo engine in internal/mc: replications are cut into fixed blocks, each
// block draws from its own dist.Substream, and per-block statistics merge
// in block order, so for a fixed seed every result is bit-identical across
// worker counts (the Workers option on each simulator's options struct).
package sim

import (
	"errors"
	"fmt"

	"recoveryblocks/internal/dist"
	"recoveryblocks/internal/mc"
	"recoveryblocks/internal/obs"
	"recoveryblocks/internal/rbmodel"
	"recoveryblocks/internal/stats"
)

// AsyncResult aggregates the simulated behavior of asynchronous recovery
// blocks: the recovery-line interval X and the per-process saved-state
// counts L_i, measured over many consecutive intervals.
type AsyncResult struct {
	X         stats.Welford   // interval between successive recovery lines
	L         []stats.Welford // states saved by each process per interval
	Intervals int             // number of completed intervals observed
	Hist      *stats.Histogram
	Samples   []float64 // raw X samples (for ECDF/KS against the analytic CDF)
}

// AsyncOptions controls the asynchronous-scheme simulation.
type AsyncOptions struct {
	Intervals   int     // recovery-line intervals to observe (required, ≥ 1)
	Seed        int64   // RNG seed
	HistMax     float64 // histogram range [0, HistMax); 0 disables
	HistBins    int     // histogram bins (when HistMax > 0)
	KeepSamples bool    // retain raw X samples
	// Workers sets the Monte Carlo worker-pool size: n > 0 means exactly n
	// goroutines, anything else means runtime.NumCPU(). Results are
	// bit-identical for every value — replications are sharded into fixed
	// blocks seeded by dist.Substream(Seed, block), so the worker count
	// changes only wall-clock time (see internal/mc).
	Workers int
}

// eventCats is the shared, read-only category table of the superposed
// Poisson process: n RP streams, one stream per interacting pair, and any
// extra trailing streams a simulator superposes (the PRP simulator appends a
// probe stream). Total rate g; each event picks its category with
// probability rate/g (superposition theorem), which is statistically
// identical to maintaining independent exponential clocks. Category choice
// goes through a Walker/Vose alias table — O(1) per event instead of a
// linear scan over the n + C(n,2) categories — built once and shared
// read-only by every worker block.
//
// upd folds the paper's mask-update rules into one lookup per category, so
// the hot loops update the last-action vector without branching on the
// category class: an RP of process i sets bit i (or = 1<<i, and = 0); an
// interaction of pair (i,j) clears whichever of bits i, j are set — which
// is just clearing both unconditionally (or = 0, and = 1<<i | 1<<j); extra
// categories leave the mask alone. Packing both masks into one slice entry
// costs the loop a single bounds check and cache line per event.
type eventCats struct {
	pairs []pairIdx
	upd   []maskUpd
	rates []float64 // category rates, in category order
	alias *dist.Alias
	g     float64
	n     int
}

// maskUpd is one category's last-action-vector update: newMask = (mask | or) &^ and.
type maskUpd struct{ or, and int }

type pairIdx struct{ i, j int }

// newEventCats builds the category table, appending any extra trailing
// category rates after the RP and pair streams. It fails — rather than
// panicking in the alias constructor — when the process count pushes the
// category count past the alias table's addressable range (n + C(n,2)
// exceeds 2^15 around n = 255).
func newEventCats(p rbmodel.Params, extra ...float64) (eventCats, error) {
	n := p.N()
	if cats := n + n*(n-1)/2 + len(extra); cats > dist.MaxAliasCategories {
		return eventCats{}, fmt.Errorf(
			"sim: %d processes need %d event categories, above the sampler's limit of %d",
			n, cats, dist.MaxAliasCategories)
	}
	c := eventCats{n: n}
	weights := make([]float64, 0, n+n*(n-1)/2+len(extra))
	for i := 0; i < n; i++ {
		weights = append(weights, p.Mu[i])
		c.upd = append(c.upd, maskUpd{or: 1 << i})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if p.Lambda[i][j] > 0 {
				c.pairs = append(c.pairs, pairIdx{i, j})
				weights = append(weights, p.Lambda[i][j])
				c.upd = append(c.upd, maskUpd{and: 1<<i | 1<<j})
			}
		}
	}
	for range extra {
		c.upd = append(c.upd, maskUpd{})
	}
	weights = append(weights, extra...)
	for _, w := range weights {
		c.g += w
	}
	if c.g > 0 {
		c.alias = dist.NewAlias(weights)
	}
	c.rates = weights
	return c, nil
}

// probeIdx returns the category index of the first extra stream (the one
// past the RP and pair categories).
func (c *eventCats) probeIdx() int { return c.n + len(c.pairs) }

// asyncBlock is the per-block accumulator of SimulateAsync. Its scratch is
// allocated once per block and reused across every interval, keeping the
// steady-state event loops allocation-free (pinned by
// TestAsyncBlockZeroAlloc).
type asyncBlock struct {
	x       stats.Welford
	l       []stats.Welford
	hist    *stats.Histogram
	samples []float64
	// scratch holds run's event counts per category for the interval in
	// progress, or runJump's per-lane visits and touched lists.
	scratch []int
	events  int64 // events drawn, folded into obs at run end
}

// histBins resolves the histogram bin count (0 means the 50-bin default).
// SimulateAsync and its blocks must build identically shaped histograms or
// the merge fails, so both go through this one resolution.
func (opt AsyncOptions) histBins() int {
	if opt.HistBins > 0 {
		return opt.HistBins
	}
	return 50
}

// newAsyncBlock allocates a block accumulator with every buffer the event
// loop needs — runJump's on tab when tab is non-nil, run's otherwise —
// sized up front so the loop itself never allocates. run's counts span the
// full category table: interaction tallies are never read, but counting
// unconditionally keeps the loop branchless.
func newAsyncBlock(cats *eventCats, tab *jumpTables, intervals int, opt AsyncOptions) *asyncBlock {
	blk := &asyncBlock{l: make([]stats.Welford, cats.n)}
	if tab != nil {
		blk.scratch = make([]int, laneScratch(len(tab.rate)))
	} else {
		blk.scratch = make([]int, len(cats.upd))
	}
	if opt.HistMax > 0 {
		blk.hist = stats.NewHistogram(0, opt.HistMax, opt.histBins())
	}
	if opt.KeepSamples {
		blk.samples = make([]float64, 0, intervals)
	}
	return blk
}

// run observes `intervals` consecutive recovery-line intervals with the
// given stream on the one shared category table — the kernel for process
// counts whose per-state tables exceed jumpTableBudget (runJump covers the
// rest). Consecutive intervals are iid (the event process restarts
// statistically at every line — memorylessness), so blocks simulated from
// independent substreams are distributed identically to one long run.
//
// The loop separates the jump chain from the clock: each event's category
// comes from the alias table, and only when a recovery line forms is the
// interval length drawn — as one Erlang(m, g) variate for the m events the
// interval contained. In a superposed Poisson process the holding times are
// iid Exp(g) independent of the category sequence, so (X, L_1..L_n) has
// exactly the same joint distribution as with per-event clock draws; the
// xval and scenario gates cross-check that equivalence against the exact
// chain on every run.
func (blk *asyncBlock) run(cats *eventCats, intervals int, rng *dist.Stream) {
	n := cats.n
	alias := cats.alias
	upd := cats.upd
	ones := (1 << n) - 1
	mask := ones // a recovery line has just formed
	atLine := true
	events := 0
	counts := blk.scratch
	for i := range counts {
		counts[i] = 0
	}
	done := 0

	// The common path is branch-light on purpose: one RNG word picks the
	// category, the mask update is two table lookups, and the only data-
	// dependent branch is the rare line-formation test. The test reads
	// "line state reached, and the event is a recovery point": R4 (any RP
	// while at a line) or R1 completing the vector. Interactions can never
	// make the updated mask all-ones, so ordering the cheap, almost-always-
	// false mask condition first keeps the branch predictable.
	for done < intervals {
		events++
		k := alias.Pick(rng.Uint64())
		counts[k]++
		u := upd[k]
		mask = (mask | u.or) &^ u.and
		if (atLine || mask == ones) && k < n {
			// Entry rule R4, or rule R1 completing the vector: the
			// (r+1)-th recovery line forms now.
			blk.addInterval(rng.Erlang(events, cats.g), counts)
			done++
			blk.events += int64(events)
			events = 0
			mask = ones
			atLine = true
			continue
		}
		atLine = false
	}
}

// addInterval records one completed interval of length x whose recovery
// points per process are counts[:n], and zeroes those counts.
func (blk *asyncBlock) addInterval(x float64, counts []int) {
	blk.x.Add(x)
	if blk.hist != nil {
		blk.hist.Add(x)
	}
	if blk.samples != nil {
		blk.samples = append(blk.samples, x)
	}
	for i := range blk.l {
		blk.l[i].Add(float64(counts[i]))
		counts[i] = 0
	}
}

// SimulateAsync runs the event process of Section 2.1 directly — Poisson
// recovery points of rate μ_i and pairwise interactions of rate λ_ij — and
// detects recovery lines with the paper's last-action rule: a line forms at
// the moment every process's most recent event is a recovery point. It is an
// estimator of exactly the quantity the paper's Markov chain computes, built
// without reference to that chain, so the two can validate each other.
//
// Replications are sharded across a worker pool (see AsyncOptions.Workers);
// for a fixed Seed the result is bit-identical for every worker count.
// When per-state jump tables fit jumpTableBudget the blocks run on them
// (runJump); above it they run the single-table loop (run).
func SimulateAsync(p rbmodel.Params, opt AsyncOptions) (*AsyncResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opt.Intervals < 1 {
		return nil, errors.New("sim: Intervals must be ≥ 1")
	}
	n := p.N()
	cats, err := newEventCats(p)
	if err != nil {
		return nil, err
	}
	if cats.g <= 0 {
		return nil, errors.New("sim: all event rates are zero")
	}

	var tab *jumpTables
	if jumpFits(n, len(cats.upd)) {
		tab = getJumpTables(&cats)
		defer putJumpTables(n, tab)
	}
	blocks := mc.Run(opt.Intervals, mc.DefaultBlockSize, opt.Workers, func(b mc.Block) *asyncBlock {
		blk := newAsyncBlock(&cats, tab, b.N(), opt)
		rng := dist.Substream(opt.Seed, b.Index)
		if tab != nil {
			blk.runJump(tab, b.N(), rng)
		} else {
			blk.run(&cats, b.N(), rng)
		}
		return blk
	})

	res := &AsyncResult{L: make([]stats.Welford, n)}
	if opt.HistMax > 0 {
		res.Hist = stats.NewHistogram(0, opt.HistMax, opt.histBins())
	}
	for _, blk := range blocks {
		res.X.Merge(blk.x)
		for i := range res.L {
			res.L[i].Merge(blk.l[i])
		}
		if res.Hist != nil {
			if err := res.Hist.Merge(blk.hist); err != nil {
				return nil, err
			}
		}
		if opt.KeepSamples {
			res.Samples = append(res.Samples, blk.samples...)
		}
	}
	res.Intervals = res.X.N()
	// Event and interval totals are per-block tallies folded after the merge
	// — the hot loop stays untouched, and the sums are block-order-invariant,
	// so both counters are deterministic across worker counts.
	if reg := obs.Current(); reg != nil {
		var events int64
		for _, blk := range blocks {
			events += blk.events
		}
		reg.Counter("sim_async_events_total").Add(events)
		reg.Counter("sim_async_intervals_total").Add(int64(res.Intervals))
	}
	return res, nil
}

// KSAgainstModel computes the Kolmogorov–Smirnov distance between the
// simulated X samples and the analytic CDF of the model (requires
// KeepSamples). The caller compares it with stats.KSCritical95.
func (r *AsyncResult) KSAgainstModel(m *rbmodel.AsyncModel) (float64, error) {
	if len(r.Samples) == 0 {
		return 0, errors.New("sim: no retained samples (set KeepSamples)")
	}
	// Evaluate the analytic CDF on a grid and interpolate: the uniformized
	// transient solve is too expensive to call once per sample point.
	maxX := 0.0
	for _, x := range r.Samples {
		if x > maxX {
			maxX = x
		}
	}
	// Fine grid: with 2e5 samples the KS critical value is ~3e-3, so the
	// interpolation error of the reference CDF must sit well below that.
	const gridN = 16384
	times := make([]float64, gridN+1)
	for i := range times {
		times[i] = maxX * float64(i) / gridN
	}
	cdf := m.CDFX(times)
	interp := func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		if x >= maxX {
			return cdf[gridN]
		}
		pos := x / maxX * gridN
		lo := int(pos)
		frac := pos - float64(lo)
		return cdf[lo]*(1-frac) + cdf[lo+1]*frac
	}
	return stats.NewECDF(r.Samples).KSAgainst(interp), nil
}
