package sim

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"

	"recoveryblocks/internal/dist"
)

// Per-state jump tables: the asynchronous simulator's kernel for every n
// whose tables fit jumpTableBudget.
//
// In last-action state s (bit i set when process i's most recent event is
// a recovery point — "marked"), an interaction between two unmarked
// processes clears bits that are already clear: it changes neither the
// state nor any L_i. Those events are thinned out. Each state gets its own
// alias table over the remaining categories, so every drawn event is either
// a recovery point (counted in L_i, whether or not it moves the state) or
// an interaction that clears at least one bit. By the thinning theorem the
// drawn events of state s form a Poisson process of rate
//
//	g_eff(s) = g − Σ λ_ij over pairs i, j both unmarked in s,
//
// so the sojourns of an interval are independent Exp(g_eff) variates and
// the interval length is one Gamma(visits, g_eff) draw per rate class
// visited. States with equal g_eff share a class; under uniform rates there
// are about n classes.

// jumpTableBudget caps the bytes of one call's tables: 2^n rows of
// n + C(n,2) 16-byte columns, 144 KiB at n = 8 and 360 KiB at n = 9. It is
// set where the per-state kernel stops beating the single-table loop: at
// n = 9 it still won at ρ = 2 and 4, while at n = 10 (880 KiB) it lost at
// ρ = 2 and won only at ρ = 4 (EXPERIMENTS.md, "Per-state jump tables").
// Above the budget SimulateAsync keeps the single-table loop
// (asyncBlock.run), unchanged: per-state tables need 2^n rows, and a
// single-table kernel whose columns carry both outcomes' mask updates
// measured 1.31× where the per-state tables measured 1.57×, so it does not
// replace either.
const jumpTableBudget = 512 << 10

// A jump packs one alias outcome into 32 bits: the destination's row
// offset (state·k for k categories) in the low jumpCatShift bits, the
// category above it, and the destination's rate class on top. The layout
// holds every n up to jumpMaxN: at n = 10 row offsets stay below 2^16, the
// 55 categories fit 6 bits and the at most 2^10 rate classes fit the top
// 10.
const (
	jumpMaxN       = 10
	jumpCatShift   = 16
	jumpCatBits    = 6
	jumpClassShift = jumpCatShift + jumpCatBits
	jumpCatMask    = 1<<jumpCatBits - 1
)

// jumpCol is one alias column of one state's row. A draw landing on it
// takes acc when dist.AliasAccept(f, thresh) is 1 for the draw's fraction
// bits f and red otherwise, so one load yields the next row, the category
// to count and the next rate class.
type jumpCol struct {
	thresh   uint64
	acc, red uint32
}

// jumpTables holds every state's row in one flat slice (row s starts at
// s·k) plus the rate of each class. A built table is read-only and
// shared by all worker blocks of a call. It is cached per process count
// between calls together with its build scratch, so a repeated call
// allocates no table and one with the same rates does not rebuild.
type jumpTables struct {
	cols      []jumpCol
	rate      []float64 // g_eff of each rate class
	k         int       // row width: one column per category
	lineClass uint32    // rate class of the all-marked state

	rates   []float64 // the category rates the table was built for
	pairs   []pairIdx // and their pair categories
	geff    []float64 // per state
	classOf []uint32  // per state
	order   []uint32  // states sorted by g_eff
	row     []float64 // one state's thinned weights
	packed  []uint64  // one state's alias columns
	alias   dist.AliasBuilder
}

// jumpCache keeps the last tables of each process count that fits the
// budget: under 1 MiB of columns over all counts up to n = 9.
var jumpCache [jumpMaxN + 1]struct {
	sync.Mutex
	t *jumpTables
}

// jumpFits reports whether per-state tables for n processes and k event
// categories fit the layout and the byte budget.
func jumpFits(n, k int) bool {
	return n <= jumpMaxN && (1<<n)*k*16 <= jumpTableBudget
}

// getJumpTables returns per-state tables for cats, taking the cached ones
// of its process count when there are any and rebuilding them unless they
// were built for the same rates. Hand them back with putJumpTables.
// Concurrent calls at one process count each get tables of their own.
func getJumpTables(cats *eventCats) *jumpTables {
	c := &jumpCache[cats.n]
	c.Lock()
	t := c.t
	c.t = nil
	c.Unlock()
	if t == nil {
		t = &jumpTables{}
	}
	if !slices.Equal(t.rates, cats.rates) || !slices.Equal(t.pairs, cats.pairs) {
		t.build(cats)
	}
	return t
}

func putJumpTables(n int, t *jumpTables) {
	c := &jumpCache[n]
	c.Lock()
	c.t = t
	c.Unlock()
}

// thin fills t.row with the category weights of state s — the pair
// categories of two unmarked processes zeroed — and returns their sum,
// g_eff(s), accumulated in category order.
func (t *jumpTables) thin(cats *eventCats, s int) float64 {
	row := t.row
	sum := 0.0
	for c, w := range cats.rates {
		if u := cats.upd[c]; u.and != 0 && s&u.and == 0 {
			w = 0
		}
		row[c] = w
		sum += w
	}
	return sum
}

// jump packs the outcome of category c fired in state s.
func (t *jumpTables) jump(cats *eventCats, s, c int) uint32 {
	u := cats.upd[c]
	d := (s | u.or) &^ u.and
	return uint32(d*t.k) | uint32(c)<<jumpCatShift | t.classOf[d]<<jumpClassShift
}

// build fills the tables for cats, reusing every buffer that is already
// large enough.
func (t *jumpTables) build(cats *eventCats) {
	n, k := cats.n, len(cats.upd)
	rows := 1 << n
	t.k = k
	t.cols = grow(t.cols, rows*k)
	t.geff = grow(t.geff, rows)
	t.classOf = grow(t.classOf, rows)
	t.order = grow(t.order, rows)
	t.row = grow(t.row, k)
	t.packed = grow(t.packed, k)
	t.rates = append(t.rates[:0], cats.rates...)
	t.pairs = append(t.pairs[:0], cats.pairs...)

	// Rate classes: states with bit-equal g_eff share one, numbered in
	// increasing rate.
	for s := range rows {
		t.geff[s] = t.thin(cats, s)
		t.order[s] = uint32(s)
	}
	slices.SortFunc(t.order, func(a, b uint32) int { return cmp.Compare(t.geff[a], t.geff[b]) })
	t.rate = t.rate[:0]
	for _, s := range t.order {
		if g := t.geff[s]; len(t.rate) == 0 || g != t.rate[len(t.rate)-1] {
			t.rate = append(t.rate, g)
		}
		t.classOf[s] = uint32(len(t.rate) - 1)
	}
	t.lineClass = t.classOf[rows-1]

	for s := range rows {
		t.thin(cats, s)
		t.alias.Build(t.packed, t.row)
		cols := t.cols[s*k:][:k]
		for c, e := range t.packed {
			thresh, target := dist.AliasColumn(e)
			red := t.jump(cats, s, target)
			acc := red
			if c < k && t.row[c] > 0 {
				acc = t.jump(cats, s, c)
			}
			cols[c] = jumpCol{thresh: thresh, acc: acc, red: red}
		}
	}
}

// grow returns buf resized to n, reallocating only when its capacity is
// short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// jumpLane is the scratch of one of a block's two in-flight intervals.
type jumpLane struct {
	counts  *[1 << jumpCatBits]int // events per category; RP entries are L_i
	visits  []int                  // drawn events per rate class
	touched []int                  // rate classes visited, first visit first
}

// laneScratch is the length of a block's scratch for nc rate classes: per
// lane, visits per class and a touched list one longer (the loop writes
// one slot past the classes visited).
func laneScratch(nc int) int { return 2 * (2*nc + 1) }

// lane carves lane i's visits and touched list out of the block's scratch.
func lane(scratch []int, i, nc int, counts *[1 << jumpCatBits]int) jumpLane {
	scratch = scratch[i*(2*nc+1):]
	return jumpLane{counts: counts, visits: scratch[:nc], touched: scratch[nc : 2*nc+1]}
}

// runJump observes `intervals` consecutive recovery-line intervals on the
// per-state tables. The state → column-load chain is latency-bound, so two
// lanes run intervals in lockstep from the one stream: lane A runs
// ⌈intervals/2⌉ of them and lane B the rest, and a lane whose partner has
// met its quota finishes its own intervals alone — an interval in flight
// is never abandoned, which would bias the sample toward short intervals.
//
// Each step draws one word u and splits the 128-bit product u·k: the high
// word picks one of the row's k columns, each within k·2^-64 of 1/k, so
// rows need no padding; the low word is the fraction of u·k, uniform on a
// grid of step k·2^-64 given the column, and its top 48 bits run the
// acceptance test. The step loads that column of the current state's row,
// books the sojourn just ended under the state's rate class, counts the
// category and moves to the destination's row. A line forms exactly when
// the destination is the all-marked state: interactions always clear two
// bits, so only a recovery point can land there. The step is spelled out
// once per lane so each lane's state stays in registers; it is over the
// inliner's budget as a function.
func (blk *asyncBlock) runJump(t *jumpTables, intervals int, rng *dist.Stream) {
	// Category counts live on the stack: the 6-bit category field indexes
	// them without a bounds check.
	var cntA, cntB [1 << jumpCatBits]int
	la, lb := lane(blk.scratch, 0, len(t.rate), &cntA), lane(blk.scratch, 1, len(t.rate), &cntB)
	visA, touA := la.visits, la.touched
	visB, touB := lb.visits, lb.touched
	cols, k := t.cols, uint64(t.k)
	line := (len(t.geff) - 1) * t.k          // the all-marked state's row
	rA, cA, ntA := line, int(t.lineClass), 0 // row, its rate class, len of touched
	rB, cB, ntB := line, int(t.lineClass), 0
	leftA, leftB := (intervals+1)/2, intervals/2
	for leftA > 0 || leftB > 0 {
		if leftA > 0 {
			i, f := bits.Mul64(rng.Uint64(), k)
			col := cols[rA+int(i)]
			o := col.red ^ (col.acc^col.red)&-uint32(dist.AliasAccept(f>>16, col.thresh))
			v := visA[cA]
			touA[ntA] = cA
			ntA += int(uint(v-1) >> 63) // first visit of this class this interval
			visA[cA] = v + 1
			cntA[o>>jumpCatShift&jumpCatMask]++
			rA, cA = int(o&(1<<jumpCatShift-1)), int(o>>jumpClassShift)
			if rA == line {
				blk.finishJump(t, &la, ntA, rng)
				ntA, leftA = 0, leftA-1
			}
		}
		if leftB > 0 {
			i, f := bits.Mul64(rng.Uint64(), k)
			col := cols[rB+int(i)]
			o := col.red ^ (col.acc^col.red)&-uint32(dist.AliasAccept(f>>16, col.thresh))
			v := visB[cB]
			touB[ntB] = cB
			ntB += int(uint(v-1) >> 63)
			visB[cB] = v + 1
			cntB[o>>jumpCatShift&jumpCatMask]++
			rB, cB = int(o&(1<<jumpCatShift-1)), int(o>>jumpClassShift)
			if rB == line {
				blk.finishJump(t, &lb, ntB, rng)
				ntB, leftB = 0, leftB-1
			}
		}
	}
}

// finishJump closes a lane's interval: X is one Gamma(visits, g_eff) draw
// per rate class visited, in first-visit order.
func (blk *asyncBlock) finishJump(t *jumpTables, ln *jumpLane, nt int, rng *dist.Stream) {
	x := 0.0
	for _, c := range ln.touched[:nt] {
		v := ln.visits[c]
		x += rng.ErlangSum(v, t.rate[c])
		blk.events += int64(v)
		ln.visits[c] = 0
	}
	blk.addInterval(x, ln.counts[:])
}
