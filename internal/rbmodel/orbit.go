package rbmodel

import "recoveryblocks/internal/markov"

// Orbit lumping generalizes SymmetricModel from fully-exchangeable processes
// to partially-exchangeable ones: partition the processes into classes of
// identical RP rate, and if the interaction rate between two processes
// depends only on their classes (λ_ij = L[class(i)][class(j)]), the full
// 2^n-vertex dynamics are strongly lumpable onto per-class marked counts
// (the paper's Section 2.2 lumping, rules R1′–R4′, with one count per
// class). A cell is a count vector (c_1, …, c_K) with c_k ∈ [0, C_k]; the
// all-full cell is the entry (it behaves exactly like the all-ones vertex:
// rule R4 plus the R2 interactions), and raising into the all-full cell
// absorbs. The cell count Π(C_k+1) is often dozens where 2^n is millions.
// The moment pair comes from the count form of the renewal recursion
// (countMoments), and the count form of the Laplace transform answers the
// deadline miss and the quantiles; the count operator (countOp), the lumped
// generator applied on the fly, steps the transient grids and their
// uniformization alternate.

// classes is the class partition of a lumpable rate structure, its cells
// indexed in mixed radix: cell s has digit c_k = (s / stride[k]) mod
// (size[k]+1).
type classes struct {
	size   []int       // class → process count C_k
	mu     []float64   // class → RP rate μ_k
	lam    [][]float64 // class block interaction rates L[a][b]
	stride []int       // mixed-radix strides over the (C_k+1) digits
	cells  int         // Π(C_k+1), the all-full cell (= entry) included
}

// lumpClasses derives the class partition from the μ values of validated
// Params and checks that λ is constant on every class block. It returns
// nil when the rates do not lump: no two processes share a μ, or some pair
// rate differs within a class block.
func lumpClasses(p Params) *classes {
	n := p.N()
	c := &classes{}
	class := make([]int, n)
	for i, mu := range p.Mu {
		found := -1
		for a, muA := range c.mu {
			if muA == mu {
				found = a
				break
			}
		}
		if found < 0 {
			found = len(c.mu)
			c.mu = append(c.mu, mu)
			c.size = append(c.size, 0)
		}
		class[i] = found
		c.size[found]++
	}
	k := len(c.mu)
	if k == n {
		return nil
	}
	c.lam = make([][]float64, k)
	for a := range c.lam {
		c.lam[a] = make([]float64, k)
		for b := range c.lam[a] {
			c.lam[a][b] = -1 // unseen
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := class[i], class[j]
			rate := p.Lambda[i][j]
			if c.lam[a][b] < 0 {
				c.lam[a][b] = rate
				c.lam[b][a] = rate
			} else if c.lam[a][b] != rate {
				return nil
			}
		}
	}
	for a := range c.lam {
		for b := range c.lam[a] {
			if c.lam[a][b] < 0 {
				c.lam[a][b] = 0 // class pair with no cross pairs (both singletons a==b)
			}
		}
	}
	c.setStrides()
	return c
}

// oneClass is the partition of n identical processes: the paper's symmetric
// model.
func oneClass(n int, mu, lambda float64) *classes {
	c := &classes{size: []int{n}, mu: []float64{mu}, lam: [][]float64{{lambda}}}
	c.setStrides()
	return c
}

// advance steps the mixed-radix odometer digit to the next cell and returns
// the digit it raised: the lowest nonzero one, every digit below it having
// wrapped to 0.
func (c *classes) advance(digit []int) int {
	j := 0
	for digit[j] == c.size[j] {
		digit[j] = 0
		j++
	}
	digit[j]++
	return j
}

func (c *classes) setStrides() {
	c.stride = make([]int, len(c.size))
	c.cells = 1
	for a, sz := range c.size {
		c.stride[a] = c.cells
		c.cells *= sz + 1
	}
}

// countOp is the transient generator of the lumped chain, rules R1′–R4′
// applied per class on the fly over the cells in mixed-radix order: it
// stores no matrix. The all-full cell is the entry, and raising into it
// absorbs (the absorbing state is implicit, as on the cube).
type countOp struct {
	c *classes
	// sumMu is Σ C_a·μ_a, the entry's R4 rate.
	sumMu float64
}

// newCountEngine wraps the count operator of c in the absorption engine
// the grids and the uniformization rung step, from the entry cell at γ =
// gamma, which must dominate every cell's out-rate. Its absorption vector
// is in closed form: the K cells one recovery point short of full in one
// class, at that class's μ, and the entry, at Σ C_a·μ_a.
func newCountEngine(c *classes, gamma float64) *markov.MatrixFree {
	k := len(c.size)
	entry := c.cells - 1
	op := newCountOp(c)
	absIdx := make([]int, 0, k+1)
	absRate := make([]float64, 0, k+1)
	for a, mu := range c.mu {
		absIdx = append(absIdx, entry-c.stride[a])
		absRate = append(absRate, mu)
	}
	absIdx = append(absIdx, entry)
	absRate = append(absRate, op.sumMu)
	return markov.NewMatrixFree(markov.MatrixFreeSpec{
		Op:         op,
		Gamma:      gamma,
		Start:      entry,
		AbsorbIdx:  absIdx,
		AbsorbRate: absRate,
	})
}

func newCountOp(c *classes) *countOp {
	o := &countOp{c: c}
	for a, mu := range c.mu {
		o.sumMu += float64(c.size[a]) * mu
	}
	return o
}

func (o *countOp) Dim() int { return o.c.cells }

// MulVecInto computes dst = Q̂·x.
func (o *countOp) MulVecInto(dst, x []float64) { o.apply(dst, x, false) }

// MulVecTransInto computes dst = Q̂ᵀ·x, the distribution-evolution
// direction.
func (o *countOp) MulVecTransInto(dst, x []float64) { o.apply(dst, x, true) }

// apply visits every cell's transitions once, decoding the counts with the
// mixed-radix odometer: it gathers Σ_t Q̂[s,t]·x_t into dst_s, or, for the
// transpose, scatters x_s·Q̂[s,t] into dst_t. The counts live on the stack
// (K < n ≤ MaxExactProcesses, or K = 1), so an application allocates
// nothing and the operator is safe for concurrent use.
func (o *countOp) apply(dst, x []float64, trans bool) {
	c := o.c
	if len(dst) != c.cells || len(x) != c.cells {
		panic("rbmodel: count operator dimension mismatch")
	}
	var buf [MaxExactProcesses]int
	counts := buf[:len(c.size)]
	entry := c.cells - 1
	if trans {
		clear(dst)
	}
	for s := range c.cells {
		if s > 0 {
			c.advance(counts)
		}
		xs := x[s]
		var out, in float64
		edge := func(t int, rate float64) {
			out += rate
			if trans {
				dst[t] += rate * xs
			} else {
				in += rate * x[t]
			}
		}
		for a, ca := range counts {
			// R1: an unmarked process of class a establishes a recovery
			// point; raising into the all-full cell completes the line.
			if free := c.size[a] - ca; free > 0 {
				rate := float64(free) * c.mu[a]
				if t := s + c.stride[a]; t == entry {
					out += rate
				} else {
					edge(t, rate)
				}
			}
			if ca == 0 {
				continue
			}
			lam := c.lam[a]
			// R2: an interaction between two marked processes clears both
			// marks, within class a and across to every class b > a.
			if ca >= 2 && lam[a] > 0 {
				edge(s-2*c.stride[a], float64(ca*(ca-1)/2)*lam[a])
			}
			// R3: a marked process of class a interacts with an unmarked
			// one of any class, one aggregated transition per class.
			r3 := 0.0
			for b, cb := range counts {
				r3 += float64(c.size[b]-cb) * lam[b]
				if b > a && cb > 0 && lam[b] > 0 {
					edge(s-c.stride[a]-c.stride[b], float64(ca*cb)*lam[b])
				}
			}
			if r3 > 0 {
				edge(s-c.stride[a], float64(ca)*r3)
			}
		}
		if s == entry {
			out += o.sumMu // R4: out of the entry, any recovery point forms the line
		}
		if trans {
			dst[s] -= out * xs
		} else {
			dst[s] = in - out*xs
		}
	}
}
