package linalg

import "math/bits"

// KronOp is a matrix-free operator on the n-bit hypercube state space
// {0,1}^n, dimension 2^n. It represents a sum of Kronecker-structured terms —
// each acting on one or two bit positions and identity everywhere else — plus
// an optional uniform all-pairs "exchange" family and a short list of sparse
// entrywise fixups:
//
//	A = Σ_b I ⊗ … ⊗ K_b ⊗ … ⊗ I            (site terms, 2×2 factors)
//	  + Σ_{lo<hi} I ⊗ … ⊗ K_{lo,hi} ⊗ … ⊗ I (pair terms, 4×4 factors)
//	  + rate · Σ_{i<j} E_ij                  (uniform exchange family)
//	  + Σ_k v_k · e_{row_k} e_{col_k}ᵀ       (fixups)
//
// Matrix–vector products run the shuffle algorithm: one strided sweep per
// factor, O(n·2^n) flops and O(2^n) memory, and the 2^n × 2^n matrix is never
// materialized. This is what breaks the CSR regime's memory wall for the
// recovery-block generator: its transient part is exactly a sum of
// per-process 2×2 site factors and pairwise interaction terms.
//
// Bit b of a state index corresponds to local states {0 = clear, 1 = set};
// factor entries are generator-style K[row][col] with row the source state.
//
// A KronOp is built once (AddSite/AddPair/AddExchange/AddFixup) and then
// applied; it is not safe to add terms concurrently with applications.
// Applications reuse internal scratch, so a single KronOp must not be applied
// from multiple goroutines at once.
type KronOp struct {
	bits int
	dim  int

	// site[b] is the accumulated 2×2 factor on bit b, row-major
	// [k00 k01 k10 k11]; hasSite[b] marks bits with a factor.
	site    [][4]float64
	hasSite []bool

	pairs    []pairTerm
	exchange float64
	fixups   []fixupTerm

	// Scratch for the exchange sweeps (first- and second-order down-shift
	// accumulators) and their per-popcount weights, allocated on first use
	// and reused across applications.
	shiftA, shiftB    []float64
	exW1, exW1T, exW0 []float64
}

type pairTerm struct {
	lo, hi int
	// k is the 4×4 factor on bits (lo, hi), row-major K[r][c] with local
	// state r = bit(lo) | bit(hi)<<1.
	k [16]float64
}

type fixupTerm struct {
	row, col int
	v        float64
}

// NewKronOp creates an empty operator on 2^nbits states.
func NewKronOp(nbits int) *KronOp {
	if nbits < 1 || nbits > 30 {
		panic("linalg: KronOp needs between 1 and 30 bits")
	}
	return &KronOp{
		bits:    nbits,
		dim:     1 << nbits,
		site:    make([][4]float64, nbits),
		hasSite: make([]bool, nbits),
	}
}

// Dim returns 2^bits.
func (op *KronOp) Dim() int { return op.dim }

// Bits returns the number of bit positions n.
func (op *KronOp) Bits() int { return op.bits }

// AddSite accumulates a 2×2 factor K = [[k00 k01],[k10 k11]] acting on the
// given bit (identity on every other bit).
func (op *KronOp) AddSite(bit int, k00, k01, k10, k11 float64) {
	if bit < 0 || bit >= op.bits {
		panic("linalg: KronOp site bit out of range")
	}
	op.site[bit][0] += k00
	op.site[bit][1] += k01
	op.site[bit][2] += k10
	op.site[bit][3] += k11
	op.hasSite[bit] = true
}

// AddPair accumulates a 4×4 factor acting on bits lo < hi, row-major K[r][c]
// with local state r = bit(lo) | bit(hi)<<1. Pair terms cost one O(2^n) sweep
// each per application — with all C(n,2) pairs present the product is
// O(n²·2^n); rate structures that are uniform across pairs should use
// AddExchange instead, which applies the whole family in O(n·2^n).
func (op *KronOp) AddPair(lo, hi int, k [16]float64) {
	if lo < 0 || hi <= lo || hi >= op.bits {
		panic("linalg: KronOp pair bits out of range")
	}
	for i := range op.pairs {
		if op.pairs[i].lo == lo && op.pairs[i].hi == hi {
			for j := range k {
				op.pairs[i].k[j] += k[j]
			}
			return
		}
	}
	op.pairs = append(op.pairs, pairTerm{lo: lo, hi: hi, k: k})
}

// AddExchange accumulates the uniform symmetric clearing family
// rate·Σ_{i<j} E_ij, where E_ij is the local generator on bits (i, j) sending
// each of (1,1), (1,0), (0,1) to (0,0) at unit rate (diagonal −1 on those
// three states). For the recovery-block chain this is rules R2+R3 with a
// uniform interaction rate λ.
//
// The whole family is applied with the down-shift identity instead of C(n,2)
// pair sweeps. Writing (Dx)[s] = Σ_{i∈s} x[s∖i] for the lowering operator,
//
//	Σ_{i<j} E_ij = D²/2 + diag(n−u)·D − diag(C(u,2) + u·(n−u)),  u = |s|,
//
// and D, D² are both computed in n prefix sweeps (one per bit), so the
// family costs O(n·2^n) regardless of n².
func (op *KronOp) AddExchange(rate float64) {
	if rate < 0 {
		panic("linalg: KronOp exchange rate must be nonnegative")
	}
	op.exchange += rate
}

// AddFixup accumulates a single sparse entry A[row][col] += v. Fixups carry
// the handful of boundary corrections a pure tensor structure cannot express
// (for the recovery-block chain: the all-ones row and column, where the
// hypercube's "everything checkpointed" corner is identified with the
// entry state).
func (op *KronOp) AddFixup(row, col int, v float64) {
	if row < 0 || row >= op.dim || col < 0 || col >= op.dim {
		panic("linalg: KronOp fixup index out of range")
	}
	op.fixups = append(op.fixups, fixupTerm{row: row, col: col, v: v})
}

// NNZTerms reports the structural size (site factors, pair factors, whether
// the exchange family is present, fixup count) for diagnostics.
func (op *KronOp) NNZTerms() (sites, pairs, fixups int, exchange bool) {
	for _, h := range op.hasSite {
		if h {
			sites++
		}
	}
	return sites, len(op.pairs), len(op.fixups), op.exchange != 0
}

func (op *KronOp) scratch() (a, b []float64) {
	if op.shiftA == nil {
		op.shiftA = make([]float64, op.dim)
		op.shiftB = make([]float64, op.dim)
		n := op.bits
		op.exW1 = make([]float64, n+1)
		op.exW1T = make([]float64, n+1)
		op.exW0 = make([]float64, n+1)
		for u := 0; u <= n; u++ {
			op.exW1[u] = float64(n - u)
			op.exW1T[u] = float64(n - u - 1)
			op.exW0[u] = float64(u*(u-1)/2 + u*(n-u))
		}
	}
	return op.shiftA, op.shiftB
}

// MulVecInto computes dst = A·x. dst and x must not alias (and must not alias
// the operator's scratch, which callers never see).
func (op *KronOp) MulVecInto(dst, x []float64) {
	op.apply(dst, x, false)
}

// MulVecTransInto computes dst = Aᵀ·x — for a generator this is the
// distribution-evolution direction π̇ᵀ = πᵀ·A.
func (op *KronOp) MulVecTransInto(dst, x []float64) {
	op.apply(dst, x, true)
}

// blockBits caps the cache-blocked prefix of the sweep: 2^blockBits states ×
// 8 B × 4 streamed arrays ≈ 1 MB, sized to stay resident in a per-core L2.
const blockBits = 15

func (op *KronOp) apply(dst, x []float64, trans bool) {
	if len(dst) != op.dim || len(x) != op.dim {
		panic("linalg: KronOp dimension mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	var shA, shB []float64
	if op.exchange != 0 {
		shA, shB = op.scratch()
		for i := range shA {
			shA[i] = 0
			shB[i] = 0
		}
	}

	// One strided pass per bit: the site factor and, when the exchange
	// family is on, the prefix accumulation of the first- and second-order
	// shift operators ride the same sweep so x is streamed once per bit.
	//
	// The shift identity is order-free — every unordered pair {i, j}
	// contributes via whichever of its bits sweeps second, so bits may be
	// processed in any order and any block schedule. That licenses cache
	// blocking: bits below blockBits act entirely within a 2^blockBits-state
	// block, so one pass over the arrays applies ALL low bits block by block
	// while each block is cache-resident, and only the high bits pay a full
	// strided pass each. At the largest sizes this is the difference
	// between n passes over gigabyte vectors and ~(n − blockBits) of them.
	low := op.bits
	if low > blockBits {
		low = blockBits
	}
	bsize := 1 << low
	for base := 0; base < op.dim; base += bsize {
		d, xs := dst[base:base+bsize], x[base:base+bsize]
		var sa, sb []float64
		if op.exchange != 0 {
			sa, sb = shA[base:base+bsize], shB[base:base+bsize]
		}
		for bit := 0; bit < low; bit++ {
			op.bitSweep(d, sa, sb, xs, bit, bsize, trans)
		}
	}
	for bit := low; bit < op.bits; bit++ {
		op.bitSweep(dst, shA, shB, x, bit, op.dim, trans)
	}
	if op.exchange != 0 {
		op.exchangeCombine(dst, x, shA, shB, trans)
	}

	for i := range op.pairs {
		op.pairSweep(dst, x, &op.pairs[i], trans)
	}
	for _, f := range op.fixups {
		if trans {
			dst[f.col] += f.v * x[f.row]
		} else {
			dst[f.row] += f.v * x[f.col]
		}
	}
}

// bitSweep applies one bit's site factor and shift accumulation to a
// contiguous range of dim states (the whole space, or one cache block when
// every pair the bit touches lies inside it).
func (op *KronOp) bitSweep(dst, shA, shB, x []float64, bit, dim int, trans bool) {
	step := 1 << bit
	if op.hasSite[bit] {
		k := op.site[bit]
		if trans {
			k[1], k[2] = k[2], k[1]
		}
		if op.exchange != 0 && !trans {
			op.fusedSweep(dst, shA, shB, x, step, k, dim)
			return
		}
		siteSweep(dst, x, step, k, dim)
	}
	if op.exchange != 0 {
		op.shiftSweep(shA, shB, x, step, dim, trans)
	}
}

// siteSweep applies one 2×2 factor: for every pair (s0, s1 = s0|step),
// dst[s0] += k00·x[s0] + k01·x[s1] and dst[s1] += k10·x[s0] + k11·x[s1].
// The lower-triangular-row-zero case (generator raising terms, and their
// transposes' mirror) skips the untouched half to halve the write traffic.
func siteSweep(dst, x []float64, step int, k [4]float64, dim int) {
	k00, k01, k10, k11 := k[0], k[1], k[2], k[3]
	switch {
	case k10 == 0 && k11 == 0:
		for base := 0; base < dim; base += 2 * step {
			for s0 := base; s0 < base+step; s0++ {
				dst[s0] += k00*x[s0] + k01*x[s0+step]
			}
		}
	case k00 == 0 && k01 == 0:
		for base := 0; base < dim; base += 2 * step {
			for s0 := base; s0 < base+step; s0++ {
				dst[s0+step] += k10*x[s0] + k11*x[s0+step]
			}
		}
	default:
		for base := 0; base < dim; base += 2 * step {
			for s0 := base; s0 < base+step; s0++ {
				x0, x1 := x[s0], x[s0+step]
				dst[s0] += k00*x0 + k01*x1
				dst[s0+step] += k10*x0 + k11*x1
			}
		}
	}
}

// shiftSweep advances the prefix accumulators one bit. Forward direction
// (down-shift D, lowering): for each pair, shB[s1] += shA[s0] then
// shA[s1] += x[s0]; after all bits shA = D·x and shB = D²x/2 (each unordered
// pair {i, j} ⊆ s contributes x[s∖i∖j] exactly once, via its larger bit
// sweeping the smaller bit's accumulation). Transposed direction mirrors it
// with the up-shift U = Dᵀ.
func (op *KronOp) shiftSweep(shA, shB, x []float64, step, dim int, trans bool) {
	if trans {
		for base := 0; base < dim; base += 2 * step {
			for s0 := base; s0 < base+step; s0++ {
				s1 := s0 + step
				shB[s0] += shA[s1]
				shA[s0] += x[s1]
			}
		}
		return
	}
	for base := 0; base < dim; base += 2 * step {
		for s0 := base; s0 < base+step; s0++ {
			s1 := s0 + step
			shB[s1] += shA[s0]
			shA[s1] += x[s0]
		}
	}
}

// fusedSweep is siteSweep and the forward shiftSweep in one pass over the
// bit's pairs, so x is read once. Only the upper-shape site factor
// (k10 = k11 = 0, the recovery-block raising terms) fuses; other shapes fall
// back to two passes. The transposed direction always takes the two-pass
// route in apply — the transposed factor loses the fusable shape.
func (op *KronOp) fusedSweep(dst, shA, shB, x []float64, step int, k [4]float64, dim int) {
	k00, k01 := k[0], k[1]
	if k[2] != 0 || k[3] != 0 {
		siteSweep(dst, x, step, k, dim)
		op.shiftSweep(shA, shB, x, step, dim, false)
		return
	}
	for base := 0; base < dim; base += 2 * step {
		for s0 := base; s0 < base+step; s0++ {
			s1 := s0 + step
			x0 := x[s0]
			dst[s0] += k00*x0 + k01*x[s1]
			shB[s1] += shA[s0]
			shA[s1] += x0
		}
	}
}

// exchangeCombine folds the shift accumulators into dst with the popcount
// diagonal. Forward: dst[s] += λ·(D²x/2 + (n−u)·(Dx) − (C(u,2)+u(n−u))·x)[s].
// Transposed: dst[s] += λ·(U²x/2 + (n−u−1)·(Ux) − (C(u,2)+u(n−u))·x)[s]
// (the (n−u−1) weight is diag(n−u) commuted past U: every up-neighbor of s
// has u+1 bits set).
func (op *KronOp) exchangeCombine(dst, x, shA, shB []float64, trans bool) {
	rate := op.exchange
	w1 := op.exW1
	if trans {
		w1 = op.exW1T
	}
	for s := range dst {
		u := bits.OnesCount32(uint32(s))
		dst[s] += rate * (shB[s] + w1[u]*shA[s] - op.exW0[u]*x[s])
	}
}

// pairSweep applies one 4×4 factor over the quads (s00, s10, s01, s11)
// spanned by the pair's two bits.
func (op *KronOp) pairSweep(dst, x []float64, p *pairTerm, trans bool) {
	var k [16]float64
	if trans {
		for r := 0; r < 4; r++ {
			for c := 0; c < 4; c++ {
				k[r*4+c] = p.k[c*4+r]
			}
		}
	} else {
		k = p.k
	}
	stepL, stepH := 1<<p.lo, 1<<p.hi
	for baseH := 0; baseH < op.dim; baseH += 2 * stepH {
		for baseL := baseH; baseL < baseH+stepH; baseL += 2 * stepL {
			for s00 := baseL; s00 < baseL+stepL; s00++ {
				s10 := s00 | stepL
				s01 := s00 | stepH
				s11 := s10 | stepH
				x0, x1, x2, x3 := x[s00], x[s10], x[s01], x[s11]
				dst[s00] += k[0]*x0 + k[1]*x1 + k[2]*x2 + k[3]*x3
				dst[s10] += k[4]*x0 + k[5]*x1 + k[6]*x2 + k[7]*x3
				dst[s01] += k[8]*x0 + k[9]*x1 + k[10]*x2 + k[11]*x3
				dst[s11] += k[12]*x0 + k[13]*x1 + k[14]*x2 + k[15]*x3
			}
		}
	}
}

// DiagInto writes the operator's diagonal into dst — the D of the Krylov
// preconditioners' splittings. O(n·2^n), run once per operator build.
func (op *KronOp) DiagInto(dst []float64) {
	if len(dst) != op.dim {
		panic("linalg: KronOp DiagInto dimension mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	for bit := 0; bit < op.bits; bit++ {
		if !op.hasSite[bit] {
			continue
		}
		k00, k11 := op.site[bit][0], op.site[bit][3]
		if k00 == 0 && k11 == 0 {
			continue
		}
		step := 1 << bit
		for base := 0; base < op.dim; base += 2 * step {
			for s0 := base; s0 < base+step; s0++ {
				dst[s0] += k00
				dst[s0+step] += k11
			}
		}
	}
	for i := range op.pairs {
		p := &op.pairs[i]
		stepL, stepH := 1<<p.lo, 1<<p.hi
		d0, d1, d2, d3 := p.k[0], p.k[5], p.k[10], p.k[15]
		for baseH := 0; baseH < op.dim; baseH += 2 * stepH {
			for baseL := baseH; baseL < baseH+stepH; baseL += 2 * stepL {
				for s00 := baseL; s00 < baseL+stepL; s00++ {
					dst[s00] += d0
					dst[s00|stepL] += d1
					dst[s00|stepH] += d2
					dst[s00|stepL|stepH] += d3
				}
			}
		}
	}
	if op.exchange != 0 {
		n := op.bits
		for s := range dst {
			u := bits.OnesCount32(uint32(s))
			dst[s] -= op.exchange * float64(u*(u-1)/2+u*(n-u))
		}
	}
	for _, f := range op.fixups {
		if f.row == f.col {
			dst[f.row] += f.v
		}
	}
}
