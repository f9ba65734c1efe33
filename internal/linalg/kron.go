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
// Matrix–vector products run the shuffle algorithm: strided sweeps over the
// factors, O(n·2^n) flops and O(2^n) memory, and the 2^n × 2^n matrix is never
// materialized. This is what breaks the CSR regime's memory wall for the
// recovery-block generator: its transient part is exactly a sum of
// per-process 2×2 site factors and pairwise interaction terms. The site
// factors and the exchange family share their sweeps, two bits per pass on
// the recovery-block generator (see apply), one pair term per pass.
//
// Bit b of a state index corresponds to local states {0 = clear, 1 = set};
// factor entries are generator-style K[row][col] with row the source state.
//
// A KronOp is built once (AddSite/AddPair/AddExchange/AddFixup) and then
// applied; it is not safe to add terms concurrently with applications.
// Past shardDim states an application splits each of its passes between the
// caller and a shared helper goroutine (see Shard), bit for bit the
// one-goroutine result. That is internal: applications reuse the operator's
// scratch and pass state, so a single KronOp must still not be applied from
// multiple goroutines at once.
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

	job applyJob
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
	ex := op.exchange != 0
	j := &op.job
	j.op, j.dst, j.x, j.trans = op, dst, x, trans
	if ex {
		j.shA, j.shB = op.scratch()
	}

	// The site factors and, when the exchange family is on, the prefix
	// accumulation of the first- and second-order shift operators ride the
	// same passes, so x is streamed once per pass. With the exchange family
	// on and the factor shapes of the recovery-block chain (see twoBits), one
	// pass applies two bits to the 4-state tiles they span, all in registers,
	// and the pass over bits 0–1 starts every tile from zero, so dst and the
	// accumulators need no zero fill. Other operators fill and run one bit
	// per pass.
	//
	// The shift identity is order-free — every unordered pair {i, j}
	// contributes via whichever of its bits sweeps second, so bits may be
	// processed in any order and any block schedule. That licenses cache
	// blocking: bits below blockBits act entirely within a 2^blockBits-state
	// block, so one pass over the arrays applies ALL low bits block by block
	// while each block is cache-resident, and only the high bits pay a full
	// strided pass each. At the largest sizes this is the difference
	// between n passes over gigabyte vectors and ~(n − blockBits) of them.
	//
	// Bits still apply in ascending order and every element sees the same
	// floating-point operations in the same order as a one-bit-per-pass sweep
	// from zeroed arrays, so the result does not depend on the pass layout.
	// Nor does it depend on the core count: every pass but the fixups writes
	// each element from one index of its range only, so Shard may split the
	// blocks, pairs or quads of a pass between two goroutines.
	low := min(op.bits, blockBits)
	j.tiled = low >= 2 && op.twoBits(0, trans)
	j.pass = passBlocks
	Shard(j, op.dim, op.dim>>low)
	j.pass = passBit
	for j.bit = low; j.bit < op.bits; j.bit++ {
		Shard(j, op.dim, op.dim/2)
	}
	if ex {
		j.pass = passCombine
		Shard(j, op.dim, op.dim)
	}
	j.pass = passPair
	for i := range op.pairs {
		j.pair = &op.pairs[i]
		Shard(j, op.dim, op.dim/4)
	}
	for _, f := range op.fixups {
		if trans {
			dst[f.col] += f.v * x[f.row]
		} else {
			dst[f.row] += f.v * x[f.col]
		}
	}
	*j = applyJob{} // keep no caller's vectors alive between applications
}

// The passes of one application, in the order apply runs them.
const (
	passBlocks  = iota // every bit below blockBits, by cache block
	passBit            // one bit at or past blockBits, by bit pair
	passCombine        // the exchange combine, by state
	passPair           // one pair term, by quad
)

// applyJob is one application's operands and current pass, the Ranger that
// apply hands to Shard. It lives in its KronOp, so applications allocate
// nothing.
type applyJob struct {
	op           *KronOp
	dst, x       []float64
	shA, shB     []float64
	trans, tiled bool
	pass, bit    int
	pair         *pairTerm
}

// RunRange runs the current pass over its index range [lo, hi).
func (j *applyJob) RunRange(lo, hi int) {
	op := j.op
	switch j.pass {
	case passBlocks:
		j.lowBits(lo, hi)
	case passBit:
		op.oneBitPass(j.dst, j.shA, j.shB, j.x, j.bit, j.trans, lo, hi)
	case passCombine:
		op.exchangeCombine(j.dst, j.x, j.shA, j.shB, j.trans, lo, hi)
	case passPair:
		op.pairSweep(j.dst, j.x, j.pair, j.trans, lo, hi)
	}
}

// lowBits applies every bit below blockBits to the cache blocks [lo, hi),
// one block at a time, zero-filling each block first unless the tile pass
// starts it from zero.
func (j *applyJob) lowBits(lo, hi int) {
	op := j.op
	low := min(op.bits, blockBits)
	bsize := 1 << low
	for base := lo * bsize; base < hi*bsize; base += bsize {
		d, xs := j.dst[base:base+bsize], j.x[base:base+bsize]
		var sa, sb []float64
		if j.shA != nil {
			sa, sb = j.shA[base:base+bsize], j.shB[base:base+bsize]
		}
		bit := 0
		if j.tiled {
			op.tilePass(d, sa, sb, xs, j.trans)
			bit = 2
		} else {
			clear(d)
			clear(sa)
			clear(sb)
		}
		for ; bit < low; bit++ {
			if bit+1 < low && op.twoBits(bit, j.trans) {
				op.twoBitPass(d, sa, sb, xs, bit, j.trans)
				bit++
				continue
			}
			op.oneBitPass(d, sa, sb, xs, bit, j.trans, 0, bsize/2)
		}
	}
}

// siteFactor returns bit b's 2×2 factor in the applied direction and which
// state of each pair (s0 with the bit clear, s1 with it set) it writes. An
// upper-shape factor (k10 = k11 = 0, the recovery-block raising terms) leaves
// s1 alone and a lower-shape one (k00 = k01 = 0) leaves s0 alone, which
// halves their write traffic; a bit with no factor writes neither.
func (op *KronOp) siteFactor(b int, trans bool) (k [4]float64, w0, w1 bool) {
	if !op.hasSite[b] {
		return k, false, false
	}
	k = op.site[b]
	if trans {
		k[1], k[2] = k[2], k[1]
	}
	switch {
	case k[2] == 0 && k[3] == 0:
		return k, true, false
	case k[0] == 0 && k[1] == 0:
		return k, false, true
	}
	return k, true, true
}

// twoBits reports whether bits b and b+1 take the two-bit pass: the exchange
// family is on and both factors have the shape the recovery-block chain
// gives them in the applied direction. Forward that is the upper (raising)
// shape; transposed, the raising factor writes both states of each pair, and
// the transposed pass takes any factor that does.
func (op *KronOp) twoBits(b int, trans bool) bool {
	if op.exchange == 0 {
		return false
	}
	_, k0, k1 := op.siteFactor(b, trans)
	_, m0, m1 := op.siteFactor(b+1, trans)
	if trans {
		return k0 && k1 && m0 && m1
	}
	return k0 && !k1 && m0 && !m1
}

// oneBitPass applies one bit's site factor and shift accumulation to the
// pairs (s0, s1 = s0|step) numbered [lo, hi), pair p having s0 = p with a
// zero inserted at the bit: dst[s0] += k00·x[s0] + k01·x[s1] and
// dst[s1] += k10·x[s0] + k11·x[s1]. The forward shift step (down-shift D,
// lowering) is shB[s1] += shA[s0] then shA[s1] += x[s0]; after all bits
// shA = D·x and shB = D²x/2, each unordered pair {i, j} ⊆ s contributing
// x[s∖i∖j] exactly once, via its larger bit sweeping the smaller bit's
// accumulation. The transposed step mirrors it with the up-shift U = Dᵀ.
func (op *KronOp) oneBitPass(dst, shA, shB, x []float64, bit int, trans bool, lo, hi int) {
	k, w0, w1 := op.siteFactor(bit, trans)
	ex := op.exchange != 0
	step := 1 << bit
	// Pairs p and p+1 have adjacent s0 except across a multiple of step, so
	// the range runs as contiguous stretches ending at those multiples.
	for p := lo; p < hi; {
		off := p & (step - 1)
		base := (p-off)<<1 + off
		n := min(step-off, hi-p)
		p += n
		x0s := x[base:][:n]
		x1s, d0s, d1s := x[base+step:][:n], dst[base:][:n], dst[base+step:][:n]
		if ex && !trans && w0 && !w1 {
			// The recovery-block raising factor with the forward shift.
			a0s, a1s, b1s := shA[base:][:n], shA[base+step:][:n], shB[base+step:][:n]
			for j, x0 := range x0s {
				d0s[j] += k[0]*x0 + k[1]*x1s[j]
				b1s[j] += a0s[j]
				a1s[j] += x0
			}
			continue
		}
		for j, x0 := range x0s {
			x1 := x1s[j]
			if w0 {
				d0s[j] += k[0]*x0 + k[1]*x1
			}
			if w1 {
				d1s[j] += k[2]*x0 + k[3]*x1
			}
			if !ex {
				continue
			}
			s0, s1 := base+j, base+step+j
			if trans {
				shB[s0] += shA[s1]
				shA[s0] += x1
			} else {
				shB[s1] += shA[s0]
				shA[s1] += x0
			}
		}
	}
}

// tilePass is twoBitPass on bits 0 and 1, each 4-state tile started from
// zero instead of loaded.
func (op *KronOp) tilePass(dst, shA, shB, x []float64, trans bool) {
	k, m := op.site[0], op.site[1]
	if trans {
		k[1], k[2] = k[2], k[1]
		m[1], m[2] = m[2], m[1]
	}
	for q := 0; q < len(dst); q += 4 {
		xs, ds := x[q:q+4:q+4], dst[q:q+4:q+4]
		as, bs := shA[q:q+4:q+4], shB[q:q+4:q+4]
		x0, x1, x2, x3 := xs[0], xs[1], xs[2], xs[3]
		var d0, d1, d2, d3, a0, a1, a2, a3, b0, b1, b2, b3 float64
		if trans {
			d0 += k[0]*x0 + k[1]*x1
			d1 += k[2]*x0 + k[3]*x1
			d2 += k[0]*x2 + k[1]*x3
			d3 += k[2]*x2 + k[3]*x3
			d0 += m[0]*x0 + m[1]*x2
			d1 += m[0]*x1 + m[1]*x3
			d2 += m[2]*x0 + m[3]*x2
			d3 += m[2]*x1 + m[3]*x3
			b0 += a1
			a0 += x1
			b2 += a3
			a2 += x3
			b0 += a2
			a0 += x2
			b1 += a3
			a1 += x3
		} else {
			d0 += k[0]*x0 + k[1]*x1
			d2 += k[0]*x2 + k[1]*x3
			d0 += m[0]*x0 + m[1]*x2
			d1 += m[0]*x1 + m[1]*x3
			b1 += a0
			a1 += x0
			b3 += a2
			a3 += x2
			b2 += a0
			a2 += x0
			b3 += a1
			a3 += x1
		}
		ds[0], ds[1], ds[2], ds[3] = d0, d1, d2, d3
		as[0], as[1], as[2], as[3] = a0, a1, a2, a3
		bs[0], bs[1], bs[2], bs[3] = b0, b1, b2, b3
	}
}

// twoBitPass applies bits lo and lo+1 in one pass over the tiles
// (q0, q1, q2, q3) = q0 + {0, 1, 2, 3}·2^lo they span: bit lo's oneBitPass
// step on the pairs (q0, q1) and (q2, q3), then bit lo+1's on (q0, q2) and
// (q1, q3), in registers. Forward, the upper-shape factors write q3 with
// neither bit, and q1 and q2 with one each.
func (op *KronOp) twoBitPass(dst, shA, shB, x []float64, lo int, trans bool) {
	k, m := op.site[lo], op.site[lo+1]
	if trans {
		k[1], k[2] = k[2], k[1]
		m[1], m[2] = m[2], m[1]
	}
	st := 1 << lo
	for base := 0; base < len(dst); base += 4 * st {
		x0s := x[base : base+st]
		n := len(x0s)
		x1s, x2s, x3s := x[base+st:][:n], x[base+2*st:][:n], x[base+3*st:][:n]
		d0s, d1s, d2s, d3s := dst[base:][:n], dst[base+st:][:n], dst[base+2*st:][:n], dst[base+3*st:][:n]
		a0s, a1s, a2s, a3s := shA[base:][:n], shA[base+st:][:n], shA[base+2*st:][:n], shA[base+3*st:][:n]
		b0s, b1s, b2s, b3s := shB[base:][:n], shB[base+st:][:n], shB[base+2*st:][:n], shB[base+3*st:][:n]
		if trans {
			for j, x0 := range x0s {
				x1, x2, x3 := x1s[j], x2s[j], x3s[j]
				d0s[j] = d0s[j] + (k[0]*x0 + k[1]*x1) + (m[0]*x0 + m[1]*x2)
				d1s[j] = d1s[j] + (k[2]*x0 + k[3]*x1) + (m[0]*x1 + m[1]*x3)
				d2s[j] = d2s[j] + (k[0]*x2 + k[1]*x3) + (m[2]*x0 + m[3]*x2)
				d3s[j] = d3s[j] + (k[2]*x2 + k[3]*x3) + (m[2]*x1 + m[3]*x3)
				a1, a2, a3 := a1s[j], a2s[j]+x3, a3s[j]
				b0s[j] = b0s[j] + a1 + a2
				a0s[j] = a0s[j] + x1 + x2
				b1s[j] += a3
				b2s[j] += a3
				a1s[j] = a1 + x3
				a2s[j] = a2
			}
			continue
		}
		for j, x0 := range x0s {
			x1, x2, x3 := x1s[j], x2s[j], x3s[j]
			d0s[j] = d0s[j] + (k[0]*x0 + k[1]*x1) + (m[0]*x0 + m[1]*x2)
			d1s[j] += m[0]*x1 + m[1]*x3
			d2s[j] += k[0]*x2 + k[1]*x3
			a0, a1, a2 := a0s[j], a1s[j]+x0, a2s[j]
			b1s[j] += a0
			b2s[j] += a0
			b3s[j] = b3s[j] + a2 + a1
			a1s[j] = a1
			a2s[j] = a2 + x0
			a3s[j] = a3s[j] + x2 + x1
		}
	}
}

// exchangeCombine folds the shift accumulators into dst with the popcount
// diagonal, on the states [lo, hi).
// Forward: dst[s] += λ·(D²x/2 + (n−u)·(Dx) − (C(u,2)+u(n−u))·x)[s].
// Transposed: dst[s] += λ·(U²x/2 + (n−u−1)·(Ux) − (C(u,2)+u(n−u))·x)[s]
// (the (n−u−1) weight is diag(n−u) commuted past U: every up-neighbor of s
// has u+1 bits set).
func (op *KronOp) exchangeCombine(dst, x, shA, shB []float64, trans bool, lo, hi int) {
	rate := op.exchange
	w1 := op.exW1
	if trans {
		w1 = op.exW1T
	}
	for s := lo; s < hi; s++ {
		u := bits.OnesCount32(uint32(s))
		dst[s] += rate * (shB[s] + w1[u]*shA[s] - op.exW0[u]*x[s])
	}
}

// pairSweep applies one 4×4 factor to the quads (s00, s10, s01, s11)
// spanned by the pair's two bits, numbered [lo, hi): quad q has s00 = q with
// zeros inserted at both bits.
func (op *KronOp) pairSweep(dst, x []float64, p *pairTerm, trans bool, lo, hi int) {
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
	for q := lo; q < hi; {
		off := q & (stepL - 1)
		base := (q-off)<<1 + off
		base = (base&^(stepH-1))<<1 | base&(stepH-1)
		n := min(stepL-off, hi-q)
		q += n
		for s00 := base; s00 < base+n; s00++ {
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
