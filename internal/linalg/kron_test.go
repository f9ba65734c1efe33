package linalg

import (
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"
)

// denseFromKron materializes a KronOp by applying it to basis vectors —
// the reference every sweep kernel is judged against.
func denseFromKron(op *KronOp) *Matrix {
	n := op.Dim()
	a := NewMatrix(n, n)
	e := make([]float64, n)
	col := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		op.MulVecInto(col, e)
		for i := 0; i < n; i++ {
			a.Set(i, j, col[i])
		}
	}
	return a
}

// denseExchange builds rate·Σ_{i<j} E_ij entry by entry from the definition:
// each pair (i, j) sends (1,1), (1,0), (0,1) to (0,0) at unit rate.
func denseExchange(nbits int, rate float64) *Matrix {
	n := 1 << nbits
	a := NewMatrix(n, n)
	for s := 0; s < n; s++ {
		for i := 0; i < nbits; i++ {
			for j := i + 1; j < nbits; j++ {
				bi, bj := 1<<i, 1<<j
				if s&bi == 0 && s&bj == 0 {
					continue
				}
				target := s &^ bi &^ bj
				a.Add(s, target, rate)
				a.Add(s, s, -rate)
			}
		}
	}
	return a
}

func maxAbsDiff(a, b *Matrix) float64 {
	m := 0.0
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}

// TestKronExchangeMatchesDefinition pins the down-shift fast path to the
// entrywise definition of the exchange family on several sizes.
func TestKronExchangeMatchesDefinition(t *testing.T) {
	for _, nbits := range []int{2, 3, 5, 7} {
		op := NewKronOp(nbits)
		op.AddExchange(0.7)
		got := denseFromKron(op)
		want := denseExchange(nbits, 0.7)
		if d := maxAbsDiff(got, want); d > 1e-12 {
			t.Errorf("n=%d: exchange family deviates from definition by %g", nbits, d)
		}
	}
}

// TestKronPairMatchesExchange cross-checks the two interaction encodings:
// C(n,2) explicit pair factors must equal one AddExchange call.
func TestKronPairMatchesExchange(t *testing.T) {
	const nbits = 5
	const rate = 1.3
	viaPairs := NewKronOp(nbits)
	// Local 4×4 of E_ij: states 1, 2, 3 each → 0 at `rate`.
	var k [16]float64
	for _, r := range []int{1, 2, 3} {
		k[r*4+0] += rate
		k[r*4+r] -= rate
	}
	for i := 0; i < nbits; i++ {
		for j := i + 1; j < nbits; j++ {
			viaPairs.AddPair(i, j, k)
		}
	}
	viaExchange := NewKronOp(nbits)
	viaExchange.AddExchange(rate)
	if d := maxAbsDiff(denseFromKron(viaPairs), denseFromKron(viaExchange)); d > 1e-12 {
		t.Errorf("pair-term and exchange encodings disagree by %g", d)
	}
}

// randomKron assembles a random operator exercising every term kind.
func randomKron(rng *rand.Rand, nbits int) *KronOp {
	op := NewKronOp(nbits)
	for b := 0; b < nbits; b++ {
		if rng.Float64() < 0.8 {
			mu := rng.Float64() + 0.1
			op.AddSite(b, -mu, mu, 0, 0)
		}
		if rng.Float64() < 0.3 {
			op.AddSite(b, 0, 0, rng.Float64(), -rng.Float64())
		}
	}
	if rng.Float64() < 0.7 {
		op.AddExchange(rng.Float64())
	}
	for i := 0; i < nbits; i++ {
		for j := i + 1; j < nbits; j++ {
			if rng.Float64() < 0.3 {
				var k [16]float64
				for e := range k {
					if rng.Float64() < 0.4 {
						k[e] = rng.NormFloat64()
					}
				}
				op.AddPair(i, j, k)
			}
		}
	}
	ones := op.Dim() - 1
	op.AddFixup(ones, ones, -rng.Float64())
	op.AddFixup(rng.Intn(op.Dim()), ones, rng.Float64())
	return op
}

// TestKronTransposeAndDiag checks MulVecTransInto against the explicit
// transpose of the materialized matrix, and DiagInto against its diagonal,
// over randomized operators with all term kinds mixed.
func TestKronTransposeAndDiag(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		nbits := 2 + rng.Intn(5)
		op := randomKron(rng, nbits)
		n := op.Dim()
		a := denseFromKron(op)

		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]float64, n)
		op.MulVecTransInto(got, x)
		want := make([]float64, n)
		for j := 0; j < n; j++ {
			s := 0.0
			for i := 0; i < n; i++ {
				s += a.At(i, j) * x[i]
			}
			want[j] = s
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-10 {
				t.Fatalf("trial %d: transpose deviates at %d: got %g want %g", trial, i, got[i], want[i])
			}
		}

		diag := make([]float64, n)
		op.DiagInto(diag)
		for i := 0; i < n; i++ {
			if math.Abs(diag[i]-a.At(i, i)) > 1e-12 {
				t.Fatalf("trial %d: diagonal deviates at %d: got %g want %g", trial, i, diag[i], a.At(i, i))
			}
		}
	}
}

// TestKronGeneratorRowSums builds a full recovery-block-shaped generator
// (raising sites + exchange + all-ones fixups) and checks that every
// transient row sums to ≤ 0 with the deficit equal to the absorption rate —
// the structural invariant of a generator's transient block.
func TestKronGeneratorRowSums(t *testing.T) {
	const nbits = 4
	op := NewKronOp(nbits)
	mu := []float64{0.5, 1.0, 1.5, 2.0}
	sumMu := 0.0
	for b, m := range mu {
		op.AddSite(b, -m, m, 0, 0)
		sumMu += m
	}
	op.AddExchange(0.25)
	ones := op.Dim() - 1
	for b, m := range mu {
		op.AddFixup(ones&^(1<<b), ones, -m) // raising into ones is absorption
	}
	op.AddFixup(ones, ones, -sumMu) // entry's R4 exit

	a := denseFromKron(op)
	for s := 0; s < op.Dim(); s++ {
		row := 0.0
		for c := 0; c < op.Dim(); c++ {
			row += a.At(s, c)
		}
		missing := 0.0 // rate into the (implicit) absorbing state
		if s == ones {
			missing = sumMu
		} else if bits.OnesCount(uint(s)) == nbits-1 {
			missing = mu[bits.TrailingZeros(uint(ones&^s))]
		}
		if math.Abs(row+missing) > 1e-12 {
			t.Errorf("row %b sums to %g, want %g", s, row, -missing)
		}
	}
}

// refApply is the plain per-bit sweep the pass layout of apply must
// reproduce bit for bit: zero fills, then one pass per bit in ascending
// order, an upper-shape factor writing only s0 and a lower-shape one only
// s1, the shift accumulators advanced in the same pass, then the exchange
// combine, the pair terms and the fixups.
func refApply(op *KronOp, dst, x []float64, trans bool) {
	ex := op.exchange != 0
	shA, shB := make([]float64, op.dim), make([]float64, op.dim)
	for i := range dst {
		dst[i] = 0
	}
	for bit := 0; bit < op.bits; bit++ {
		step := 1 << bit
		if op.hasSite[bit] {
			k := op.site[bit]
			if trans {
				k[1], k[2] = k[2], k[1]
			}
			upper, lower := k[2] == 0 && k[3] == 0, k[0] == 0 && k[1] == 0
			for base := 0; base < op.dim; base += 2 * step {
				for s0 := base; s0 < base+step; s0++ {
					s1 := s0 + step
					if upper || !lower {
						dst[s0] += k[0]*x[s0] + k[1]*x[s1]
					}
					if !upper {
						dst[s1] += k[2]*x[s0] + k[3]*x[s1]
					}
				}
			}
		}
		if !ex {
			continue
		}
		for base := 0; base < op.dim; base += 2 * step {
			for s0 := base; s0 < base+step; s0++ {
				s1 := s0 + step
				if trans {
					shB[s0] += shA[s1]
					shA[s0] += x[s1]
				} else {
					shB[s1] += shA[s0]
					shA[s1] += x[s0]
				}
			}
		}
	}
	if ex {
		op.scratch()
		op.exchangeCombine(dst, x, shA, shB, trans, 0, op.dim)
	}
	for i := range op.pairs {
		op.pairSweep(dst, x, &op.pairs[i], trans, 0, op.dim/4)
	}
	for _, f := range op.fixups {
		if trans {
			dst[f.col] += f.v * x[f.row]
		} else {
			dst[f.row] += f.v * x[f.col]
		}
	}
}

// TestKronApplyMatchesPerBitReference: both directions of apply are bit for
// bit the per-bit sweep, from n = 1 (no tile) through n = 17 (two bits past
// blockBits, so the cache-blocked passes and the full-length ones both run),
// on the recovery-block shape with the exchange family or pair terms, and on
// random operators mixing every factor shape, pair terms and fixups.
func TestKronApplyMatchesPerBitReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for nbits := 1; nbits <= 17; nbits++ {
		type named struct {
			name string
			op   *KronOp
		}
		ops := []named{{"random", randomKron(rng, nbits)}}
		for _, exchange := range []bool{true, false} {
			op := NewKronOp(nbits)
			for b := 0; b < nbits; b++ {
				mu := rng.Float64() + 0.5
				op.AddSite(b, -mu, mu, 0, 0)
			}
			if exchange {
				op.AddExchange(0.3)
				ops = append(ops, named{"exchange", op})
				continue
			}
			if nbits > 1 {
				var k [16]float64
				k[4], k[5], k[15] = 0.7, -0.7, -0.2
				op.AddPair(0, nbits-1, k)
			}
			op.AddFixup(op.Dim()-1, op.Dim()-1, -1)
			ops = append(ops, named{"pairs", op})
		}
		for _, c := range ops {
			name, op := c.name, c.op
			x := make([]float64, op.Dim())
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			got, want := make([]float64, op.Dim()), make([]float64, op.Dim())
			for _, trans := range []bool{false, true} {
				// A dirty destination proves apply needs no zero fill.
				for i := range got {
					got[i] = math.NaN()
				}
				op.apply(got, x, trans)
				refApply(op, want, x, trans)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d %s trans=%v: element %d = %v, per-bit reference %v", nbits, name, trans, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// recoveryBlockKron is the recovery-block operator shape at n bits: raising
// site factors, the interaction family (the exchange family, or one
// lowering factor per pair at a random rate) and the all-ones fixups.
func recoveryBlockKron(rng *rand.Rand, nbits int, exchange bool) *KronOp {
	op := NewKronOp(nbits)
	ones := op.Dim() - 1
	for b := 0; b < nbits; b++ {
		mu := rng.Float64() + 0.5
		op.AddSite(b, -mu, mu, 0, 0)
		op.AddFixup(ones&^(1<<b), ones, -mu)
	}
	if exchange {
		op.AddExchange(0.3)
	} else {
		for i := 0; i < nbits; i++ {
			for j := i + 1; j < nbits; j++ {
				lam := 0.1 + rng.Float64()
				var k [16]float64
				for _, r := range []int{1, 2, 3} {
					k[r*4], k[r*4+r] = lam, -lam
				}
				op.AddPair(i, j, k)
			}
		}
	}
	op.AddFixup(ones, ones, -1)
	return op
}

// TestKronApplyIsCoreCountInvariant: past shardDim both directions of the
// operator split their passes between two goroutines at GOMAXPROCS 2, and
// every element must come out bit for bit as on one.
func TestKronApplyIsCoreCountInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(23))
	for _, nbits := range []int{16, 17} {
		for _, exchange := range []bool{true, false} {
			op := recoveryBlockKron(rng, nbits, exchange)
			x := make([]float64, op.Dim())
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			one, two := make([]float64, op.Dim()), make([]float64, op.Dim())
			for _, c := range []struct {
				name  string
				apply func(dst, x []float64)
			}{{"MulVecInto", op.MulVecInto}, {"MulVecTransInto", op.MulVecTransInto}} {
				runtime.GOMAXPROCS(1)
				c.apply(one, x)
				runtime.GOMAXPROCS(2)
				c.apply(two, x)
				for i := range one {
					if math.Float64bits(one[i]) != math.Float64bits(two[i]) {
						t.Fatalf("n=%d exchange=%v %s: element %d = %v on two cores, %v on one", nbits, exchange, c.name, i, two[i], one[i])
					}
				}
			}
		}
	}
}
