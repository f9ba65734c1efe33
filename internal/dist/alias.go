package dist

import (
	"math"
	"math/bits"
)

// aliasMaxK bounds the padded table size: Pick spends the top 16 bits of
// one uniform word on the column index, so at most 2^16 columns are
// addressable. The simulators' event processes have n + C(n,2) + O(1)
// categories — a few hundred at most.
const aliasMaxK = 1 << 16

// MaxAliasCategories is the largest category count NewAlias accepts
// (pre-padding). Callers with potentially wider distributions — the
// simulators accept any process count — must check it and degrade
// gracefully instead of hitting the constructor's panic.
const MaxAliasCategories = aliasMaxK / 2

// mask48 selects the low 48 bits of a draw — the acceptance-test fraction.
const mask48 = 1<<48 - 1

// Alias is a Walker/Vose alias table: O(1) sampling from a fixed discrete
// distribution, regardless of the number of categories. Construction is O(k)
// and fully deterministic (a pure function of the weight vector), so tables
// built on different goroutines from equal weights are interchangeable. A
// built table is immutable and safe for concurrent use by any number of
// Streams — the simulators build one table per event process and share it
// across all worker blocks.
//
// Compared with Stream.ChoiceTotal, which scans the weight prefix sums and
// costs O(k) per draw, sampling costs one RNG draw, two table loads and one
// comparison. The event loops in internal/sim pick among k = n + C(n,2)
// superposed Poisson categories per event, so the scan dominated their
// per-event budget for n ≥ 8; the alias table makes category choice
// independent of n and cheap enough that the generator's own latency is the
// remaining floor.
//
// The table is padded with zero-weight columns to a power-of-two size: the
// column index then comes from the top bits of one uniform word with no
// modulo bias and no rejection loop, which keeps Pick small enough to
// inline into the simulators' event loops. Padding columns carry zero
// acceptance mass and always redirect, so the sampled distribution is
// unchanged — Vose's redistribution is exact for zero weights.
//
// Precision: acceptance thresholds are quantized to 48 bits, so each
// category's probability is realized to within 2^-48 of the float64 table
// values — about five orders of magnitude below anything a Monte Carlo
// estimate can resolve.
type Alias struct {
	// packed holds one word per column: the 48-bit acceptance threshold in
	// the high bits and the 16-bit redirect target in the low bits. One load
	// serves the whole acceptance test, and the accept/redirect choice is
	// resolved with carry arithmetic rather than a branch — the outcome is
	// data-random, so a branch would mispredict almost half the time and
	// dominate the O(1) draw it guards.
	packed []uint64
	shift  uint // 64 − log2(len(packed)): maps a word's top bits to a column
	k      int  // number of real (unpadded) categories
}

// threshScale converts an acceptance probability p into the integer
// threshold T = ⌈p·2^48⌉, capped at 2^48−1 so it fits the packed word's 48
// threshold bits: a 48-bit uniform draw u satisfies u < T with probability
// T/2^48, within 2^-48 of p. (The cap costs always-accept columns a 2^-48
// redirect — the same order as the quantization itself.) Round-off in the
// Vose pairing can leave a column's residual probability a hair below
// zero; clamp it to never-accept rather than feed a negative float to the
// uint64 conversion, whose result is architecture-dependent.
func threshScale(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	t := uint64(math.Ceil(p * (1 << 48)))
	if t > mask48 {
		t = mask48
	}
	return t
}

// pack combines a column's acceptance threshold and redirect target.
func pack(thresh uint64, alias int) uint64 { return thresh<<16 | uint64(alias) }

// NewAlias builds the table for the given weights. Weights must be finite
// and nonnegative with a positive sum; zero-weight categories are never
// sampled. At most 2^15 categories are supported (the padded table must fit
// 16 index bits). The input slice is not retained.
func NewAlias(weights []float64) *Alias {
	k := len(weights)
	// Pad to the next power of two with zero-weight columns.
	k2 := 1
	for k2 < k {
		k2 <<= 1
	}
	a := &Alias{
		packed: make([]uint64, k2),
		shift:  uint(64 - bits.TrailingZeros(uint(k2))),
		k:      k,
	}
	var b AliasBuilder
	b.Build(a.packed, weights)
	return a
}

// AliasBuilder builds alias tables into caller-owned memory, reusing its
// Vose scratch from one build to the next. The simulators use it to build
// one table per state of an event process — thousands of rows — as a single
// flat allocation; after the first build of a given width it allocates
// nothing. The zero value is ready to use; a builder is not safe for
// concurrent use.
type AliasBuilder struct {
	scaled       []float64
	small, large []int
}

// Build fills packed with the alias table of weights in Alias's column
// layout (decode a column with AliasColumn) and returns Σ weights. Each of
// the len(packed) ≥ len(weights) columns carries mass 1/len(packed);
// columns past the weights are padding that is never sampled. Build panics
// on the inputs NewAlias rejects. The construction is a pure function of
// the weights, so equal weights yield equal columns.
func (b *AliasBuilder) Build(packed []uint64, weights []float64) float64 {
	k, k2 := len(weights), len(packed)
	if k == 0 {
		panic("dist: alias table with no categories")
	}
	if k > MaxAliasCategories {
		panic("dist: alias tables support at most 2^15 categories")
	}
	if k2 < k {
		panic("dist: alias table narrower than its weights")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			panic("dist: alias weight must be finite and nonnegative")
		}
		total += w
	}
	if total <= 0 {
		panic("dist: alias table needs positive total weight")
	}

	// Vose's method: scale weights to mean 1, then repeatedly pair an
	// under-full column with an over-full one. Stacks are filled in index
	// order, so the construction is deterministic.
	if cap(b.scaled) < k2 {
		b.scaled = make([]float64, k2)
		b.small = make([]int, 0, k2)
		b.large = make([]int, 0, k2)
	}
	scaled := b.scaled[:k2]
	fallback := 0 // heaviest category: a safe redirect for zero-weight columns
	for i, w := range weights {
		scaled[i] = w * float64(k2) / total
		if w > weights[fallback] {
			fallback = i
		}
	}
	clear(scaled[k:])
	small, large := b.small[:0], b.large[:0]
	for i, s := range scaled {
		if s < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		packed[s] = pack(threshScale(scaled[s]), l)
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Leftovers hold (up to round-off) exactly one unit of mass each: they
	// accept unconditionally. A zero-weight or padding column can only
	// linger here through float pathology; keep it unsampleable by
	// redirecting it to the heaviest category instead of granting it mass.
	for _, stack := range [2][]int{large, small} {
		for _, i := range stack {
			if i >= k || weights[i] == 0 {
				packed[i] = pack(0, fallback)
				continue
			}
			packed[i] = pack(threshScale(1), i)
		}
	}
	return total
}

// AliasColumn decodes one column of a table built by AliasBuilder.Build:
// its 48-bit acceptance threshold and the category it redirects to. A draw
// landing on column i yields i when AliasAccept(u, thresh) is 1 and target
// otherwise.
func AliasColumn(e uint64) (thresh uint64, target int) { return e >> 16, int(e & 0xFFFF) }

// AliasAccept runs a column's acceptance test on the low 48 bits of the
// uniform word u, branch-free: it returns 1 when they fall below thresh
// and 0 otherwise.
func AliasAccept(u, thresh uint64) uint64 {
	_, borrow := bits.Sub64(u&mask48, thresh, 0)
	return borrow
}

// K returns the number of categories (excluding internal padding).
func (a *Alias) K() int { return a.k }

// Pick maps one 64-bit uniform word to a category index: the top bits
// choose the column (exactly uniform — the padded table size is a power of
// two), and the low 48 bits run the acceptance test against the column
// threshold. Splitting one word this way is sound because disjoint bit
// ranges of a uniform word are independent uniforms. Pick is a pure
// function, costs O(1) — one load and a few ALU ops, branch-free because
// the accept/redirect outcome is a coin flip no predictor can learn —
// performs no allocation, and is small enough to inline into simulator
// event loops.
func (a *Alias) Pick(u uint64) int {
	i := u >> a.shift
	e := a.packed[i]
	// accept = 1 exactly when the 48 fraction bits fall below the column
	// threshold; the mask arithmetic then selects the column index itself,
	// and the redirect target otherwise.
	ai := e & 0xFFFF
	return int(ai ^ ((ai ^ i) & -AliasAccept(u, e>>16)))
}

// Sample draws a category index with probability weights[i] / Σ weights,
// consuming exactly one variate from the stream.
func (a *Alias) Sample(s *Stream) int {
	return a.Pick(s.Uint64())
}
