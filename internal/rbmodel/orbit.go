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
// deadline miss and the quantiles; the lumped chain serves the transient
// grids and their uniformization alternate.

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

// chain builds the lumped chain: the cells in mixed-radix order, the
// all-full cell (cells−1) the entry, and state cells the absorbing one.
func (c *classes) chain() *markov.CTMC {
	k := len(c.size)
	ch := markov.NewCTMC(c.cells + 1)
	ch.ReserveDegree(k + k*(k+1)/2 + 1)
	ch.SetAbsorbing(c.cells)
	counts := make([]int, k)
	for s := 0; s < c.cells; s++ {
		c.buildCell(ch, s, counts)
	}
	return ch
}

// buildCell installs the transitions out of one count cell. counts is scratch
// for the decoded digits.
func (c *classes) buildCell(ch *markov.CTMC, s int, counts []int) {
	k := len(c.size)
	absorbing, entry := c.cells, c.cells-1
	rem := s
	for a := 0; a < k; a++ {
		counts[a] = rem % (c.size[a] + 1)
		rem /= c.size[a] + 1
	}
	// R1: an unmarked process of class a establishes a recovery point.
	// Raising into the all-full cell completes the recovery line.
	for a := 0; a < k; a++ {
		if counts[a] == c.size[a] {
			continue
		}
		rate := float64(c.size[a]-counts[a]) * c.mu[a]
		if next := s + c.stride[a]; next == entry {
			ch.AddRate(s, absorbing, rate)
		} else {
			ch.AddRate(s, next, rate)
		}
	}
	// R4: out of the entry, any process's next RP forms the line.
	if s == entry {
		total := 0.0
		for a := 0; a < k; a++ {
			total += float64(c.size[a]) * c.mu[a]
		}
		ch.AddRate(s, absorbing, total)
	}
	// R2: an interaction between two marked processes clears both marks.
	for a := 0; a < k; a++ {
		if counts[a] >= 2 {
			if rate := float64(counts[a]*(counts[a]-1)/2) * c.lam[a][a]; rate > 0 {
				ch.AddRate(s, s-2*c.stride[a], rate)
			}
		}
		for b := a + 1; b < k; b++ {
			if counts[a] >= 1 && counts[b] >= 1 {
				if rate := float64(counts[a]*counts[b]) * c.lam[a][b]; rate > 0 {
					ch.AddRate(s, s-c.stride[a]-c.stride[b], rate)
				}
			}
		}
	}
	// R3: a marked process of class a interacts with any unmarked process —
	// one aggregated transition per class losing a mark.
	for a := 0; a < k; a++ {
		if counts[a] == 0 {
			continue
		}
		rate := 0.0
		for b := 0; b < k; b++ {
			rate += float64(c.size[b]-counts[b]) * c.lam[a][b]
		}
		if rate *= float64(counts[a]); rate > 0 {
			ch.AddRate(s, s-c.stride[a], rate)
		}
	}
}
