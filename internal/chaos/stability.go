package chaos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"recoveryblocks/internal/dist"
	"recoveryblocks/internal/guard"
	"recoveryblocks/internal/mc"
	"recoveryblocks/internal/obs"
	"recoveryblocks/internal/scenario"
	"recoveryblocks/internal/stats"
	"recoveryblocks/internal/strategy"
)

// Defaults of the stability analysis. They are deliberate, documented
// choices rather than tuning knobs hidden in code:
const (
	// DefaultDraws is the perturbed draws per (scenario, stack) cell. 32
	// draws put the score test's standard error around 0.077 at the default
	// threshold — enough power to separate a systematic flip (rate ≈ 1)
	// from a tolerated occasional one, at a price of 32 advisor solves per
	// cell.
	DefaultDraws = 32
	// DefaultFlipThreshold is the tolerated per-draw winner-flip
	// probability p0. A ranking that flips in under a quarter of the
	// perturbed draws is behaving like a ranking near a legitimate regime
	// boundary; one that flips significantly more often than that is not a
	// ranking worth advising.
	DefaultFlipThreshold = 0.25
	// DefaultMarginFloor is the lower bound of the knife-edge boundary. The
	// boundary itself is adaptive — max(floor, stack magnitude) per cell: a
	// perturbation moving rates by up to a fraction γ moves the priced
	// overheads by O(γ), so it can legitimately flip any winner whose
	// relative margin is below γ. Cells under the boundary are classed
	// knife-edge (the expected geometry of a near-tie, reported but never
	// gated); a flip above it means a winner the advisor called by more
	// than the perturbation's own scale did not survive — the pricing
	// pathology the gate exists for.
	DefaultMarginFloor = 0.05
	// DefaultAlpha is the family-wise false-alarm rate of a whole sweep: the
	// probability that a perfectly stable corpus is flagged anyway. Each
	// cell's one-sided score test runs at alpha/cells (Bonferroni).
	DefaultAlpha = 1e-3
)

// chaosSeedOffset separates the chaos substream family from every estimator
// family derived from the same scenario seed (the strategy layer's offsets
// are all far below this).
const chaosSeedOffset = 7_777_777

// Options tunes a stability sweep.
type Options struct {
	// Alpha is the family-wise false-alarm rate; 0 selects DefaultAlpha.
	Alpha float64
	// Draws is the perturbed draws per (scenario, stack) cell; 0 selects
	// DefaultDraws.
	Draws int
	// FlipThreshold is the tolerated per-draw flip probability p0; 0 selects
	// DefaultFlipThreshold, negative means zero tolerance (any flip in any
	// draw is significant).
	FlipThreshold float64
	// MarginFloor is the lower bound of the knife-edge boundary: a cell is
	// knife-edge when the clean relative margin is below
	// max(MarginFloor, the stack's summed magnitude). 0 selects
	// DefaultMarginFloor, negative means no boundary (every cell gates,
	// whatever its margin).
	MarginFloor float64
	// Stacks is the adversary set; nil selects DefaultStacks().
	Stacks []Stack
	// Workers sets the scenario-level fan-out across the internal/mc pool
	// (0 = all CPUs). Results are bit-identical for every value.
	Workers int
	// Ctx carries cancellation into the sweep's advisor solves; nil means
	// context.Background(). Each scenario's advisements run on it plus that
	// scenario's own strategy.Memo, and stacks containing solver-fault
	// layers derive their fault-injected draw contexts from that.
	Ctx context.Context
}

func (o Options) withDefaults() Options {
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	if o.Alpha == 0 {
		o.Alpha = DefaultAlpha
	}
	if o.Draws == 0 {
		o.Draws = DefaultDraws
	}
	switch {
	case o.FlipThreshold == 0:
		o.FlipThreshold = DefaultFlipThreshold
	case o.FlipThreshold < 0:
		o.FlipThreshold = 0
	}
	if o.MarginFloor == 0 {
		o.MarginFloor = DefaultMarginFloor
	}
	// Negative stays negative: it disables the knife-edge boundary
	// entirely (see cellFloor).
	if o.Stacks == nil {
		o.Stacks = DefaultStacks()
	}
	return o
}

// validate rejects malformed options before any work is spent.
func (o Options) validate() error {
	if o.Alpha <= 0 || o.Alpha >= 1 {
		return fmt.Errorf("chaos: alpha %v must be in (0, 1)", o.Alpha)
	}
	if o.Draws < 2 {
		return fmt.Errorf("chaos: draws %d must be >= 2 (one draw cannot estimate a flip rate)", o.Draws)
	}
	if o.FlipThreshold >= 1 || math.IsNaN(o.FlipThreshold) {
		return fmt.Errorf("chaos: flip threshold %v must be below 1", o.FlipThreshold)
	}
	if math.IsNaN(o.MarginFloor) || math.IsInf(o.MarginFloor, 0) {
		return fmt.Errorf("chaos: margin floor %v must be finite", o.MarginFloor)
	}
	for _, s := range o.Stacks {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Run sweeps every scenario under every perturbation stack: the advisor
// prices the clean workload once, then Draws perturbed variants per stack,
// and the flip rate is judged against the threshold with a one-sided score
// test at the Bonferroni-corrected level. Scenarios fan out across the
// internal/mc pool; every draw's randomness comes from
// dist.Substream(scenario seed + offset, stack·Draws + draw), so the report
// is bit-identical for every worker count and reproducible from the
// scenario seeds alone.
func Run(scenarios []scenario.Scenario, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if len(scenarios) == 0 {
		return nil, errors.New("chaos: empty scenario batch")
	}
	for i := range scenarios {
		if err := scenarios[i].Validate(); err != nil {
			return nil, err
		}
	}

	cells := len(scenarios) * len(opt.Stacks)
	// One-sided test: instability is only ever "flip rate ABOVE threshold".
	crit := stats.InvNormCDF(1 - opt.Alpha/float64(cells))

	type out struct {
		res ScenarioStability
		err error
	}
	outs, err := mc.MapCtx(opt.Ctx, scenarios, opt.Workers, func(_ int, sc scenario.Scenario) out {
		res, err := analyzeScenario(sc, opt, crit)
		if err != nil {
			return out{err: fmt.Errorf("chaos: scenario %q: %w", sc.Name, err)}
		}
		return out{res: res}
	})
	if err != nil {
		return nil, err // cancellation: a real abort
	}

	rep := &Report{
		Alpha:         opt.Alpha,
		Crit:          crit,
		FlipThreshold: opt.FlipThreshold,
		MarginFloor:   opt.MarginFloor,
		Draws:         opt.Draws,
		Cells:         cells,
	}
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		rep.Unstable += o.res.Unstable
		for _, c := range o.res.Cells {
			// The summary counts knife-edge *verdicts*: significant flips
			// forgiven because the clean margin was below the cell's floor.
			if c.KnifeEdge && c.Significant {
				rep.KnifeEdge++
			}
			rep.Degraded += c.DegradedDraws
		}
		rep.Scenarios = append(rep.Scenarios, o.res)
	}
	if reg := obs.Current(); reg != nil {
		reg.Counter("chaos_cells_total").Add(int64(cells))
		reg.Counter("chaos_draws_total").Add(int64(cells * opt.Draws))
		var flips int64
		for _, sc := range rep.Scenarios {
			for _, c := range sc.Cells {
				flips += int64(c.Flips)
			}
		}
		reg.Counter("chaos_flips_total").Add(flips)
	}
	return rep, nil
}

// cellFloor is the knife-edge boundary of one (options, stack) cell:
// max(MarginFloor, the stack's summed magnitude), or no boundary at all when
// MarginFloor is negative.
func cellFloor(opt Options, stack Stack) float64 {
	if opt.MarginFloor < 0 {
		return 0
	}
	return math.Max(opt.MarginFloor, stack.Magnitude())
}

// analyzeScenario runs the clean + perturbed advisor solves of one scenario
// and judges each stack's cell. The clean solve always runs fault-free on the
// sweep's base context; stacks with solver-fault layers get their fault
// policy installed on the perturbed draws' context only, so clean and
// perturbed advisements never contaminate each other even though they run on
// the same pool.
//
// One fresh strategy.Memo, shared by the clean advisement and every
// perturbed draw, lives for the call: a draw that leaves μ, λ and d as they
// were (error-spike, cost-inflate; burst for E[Z_k]) reuses the clean
// scenario's chain answers instead of solving again. Fault-injected draws
// bypass it (see strategy.Memo), and the advisements of one scenario run in
// order, so which draws hit is fixed by the scenario alone.
func analyzeScenario(sc scenario.Scenario, opt Options, crit float64) (ScenarioStability, error) {
	ctx := strategy.WithMemo(opt.Ctx, &strategy.Memo{})
	clean, err := scenario.AdviseCtx(ctx, sc)
	if err != nil {
		return ScenarioStability{}, err
	}
	res := ScenarioStability{
		Scenario:   sc.Name,
		Winner:     string(clean.Winner),
		Margin:     clean.Margin,
		MarginRel:  clean.MarginRel,
		Confidence: clean.Confidence,
	}
	cleanRate := make(map[string]float64, len(clean.Ranking))
	for _, m := range clean.Ranking {
		cleanRate[string(m.Strategy)] = m.OverheadRate
	}

	for si, stack := range opt.Stacks {
		cell := CellResult{
			Stack: stack.String(),
			Draws: opt.Draws,
			Crit:  crit,
			Floor: cellFloor(opt, stack),
		}
		// Solver-fault layers ride the context, not the scenario: the draw
		// context forces the first FaultDepth rungs of every guard ladder the
		// perturbed advisement runs.
		drawCtx := ctx
		if depth := stack.FaultDepth(); depth > 0 {
			drawCtx = guard.WithFaults(ctx, guard.FaultSpec{Depth: depth})
		}
		// Per-strategy overhead deltas accumulate across draws, keyed in the
		// clean ranking's order so the report rows are deterministic.
		sens := make([]StrategySensitivity, len(clean.Ranking))
		for i, m := range clean.Ranking {
			sens[i].Strategy = string(m.Strategy)
		}
		marginSum := 0.0
		for d := 0; d < opt.Draws; d++ {
			// Yield once per draw so the GC's mark worker gets a turn. The
			// pool keeps every P busy with pricing that allocates hundreds
			// of MiB/s; without the yield a mark stretches over 15–20 ms,
			// everything allocated meanwhile counts as live, and the next
			// heap goal, and with it peak RSS, ratchets up.
			runtime.Gosched()
			rng := dist.Substream(sc.Seed+chaosSeedOffset, si*opt.Draws+d)
			perturbed := stack.Apply(sc, rng)
			adv, err := scenario.AdviseCtx(drawCtx, perturbed)
			if err != nil {
				return ScenarioStability{}, fmt.Errorf("stack %s draw %d: %w", cell.Stack, d, err)
			}
			if adv.Winner != clean.Winner {
				cell.Flips++
			}
			if adv.Confidence != scenario.ConfidenceExact {
				cell.DegradedDraws++
			}
			marginSum += adv.MarginRel
			for i := range sens {
				for _, m := range adv.Ranking {
					if string(m.Strategy) == sens[i].Strategy {
						delta := m.OverheadRate - cleanRate[sens[i].Strategy]
						sens[i].MeanAbsDelta += math.Abs(delta)
						if base := cleanRate[sens[i].Strategy]; base > 0 {
							rel := math.Abs(delta) / base
							if rel > sens[i].MaxRelDelta {
								sens[i].MaxRelDelta = rel
							}
						}
						break
					}
				}
			}
		}
		for i := range sens {
			sens[i].MeanAbsDelta /= float64(opt.Draws)
		}
		cell.Sensitivity = sens
		cell.FlipRate = float64(cell.Flips) / float64(opt.Draws)
		cell.MeanMarginRel = marginSum / float64(opt.Draws)
		if res.MarginRel > 0 {
			cell.MarginErosion = (res.MarginRel - cell.MeanMarginRel) / res.MarginRel
		}

		// The significance guard: a cell is flagged only when the observed
		// flip rate exceeds the tolerated threshold by more than the score
		// test's sampling noise explains. p0 = 0 degenerates (no sampling
		// noise under H0): any flip is significant, Stat keeps the -1
		// degenerate sentinel the other report layers use.
		p0 := opt.FlipThreshold
		if p0 == 0 {
			cell.Stat = -1
			cell.Significant = cell.Flips > 0
		} else {
			se := math.Sqrt(p0 * (1 - p0) / float64(opt.Draws))
			cell.Stat = (cell.FlipRate - p0) / se
			cell.Significant = cell.Stat > crit
		}
		cell.KnifeEdge = res.MarginRel < cell.Floor
		cell.Unstable = cell.Significant && !cell.KnifeEdge
		if cell.Unstable {
			res.Unstable++
		}
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}
