package main

import (
	"recoveryblocks/internal/linalg"
	"recoveryblocks/internal/markov"
	"recoveryblocks/internal/rbmodel"
)

// refChain is the benchmark's own assembly of the asynchronous model's
// transient generator, used only to check the program's answers. It follows
// the paper's rules R1–R4 directly, with process i on bit n−1−i (the reverse
// of the program's layout), one lowering factor per pair, and a plain Jacobi
// preconditioner, so it shares with the program neither the state layout,
// the factor build nor the preconditioner.
func refChain(p rbmodel.Params) *markov.MatrixFree {
	n := p.N()
	ones := 1<<n - 1
	bit := func(i int) int { return n - 1 - i }
	op := linalg.NewKronOp(n)
	sumMu := 0.0
	for i, mu := range p.Mu {
		op.AddSite(bit(i), -mu, mu, 0, 0) // R1: x_i 0→1
		sumMu += mu
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			lam := p.Lambda[i][j]
			if lam == 0 {
				continue
			}
			// R2/R3: (1,1), (1,0) and (0,1) all drop to (0,0) at λ_ij.
			var k [16]float64
			for _, r := range []int{1, 2, 3} {
				k[r*4] = lam
				k[r*4+r] = -lam
			}
			lo, hi := bit(j), bit(i)
			op.AddPair(lo, hi, k)
		}
	}
	absIdx := make([]int, 0, n+1)
	absRate := make([]float64, 0, n+1)
	for i, mu := range p.Mu {
		short := ones &^ (1 << bit(i))
		op.AddFixup(short, ones, -mu) // completing the line absorbs
		absIdx = append(absIdx, short)
		absRate = append(absRate, mu)
	}
	op.AddFixup(ones, ones, -sumMu) // R4 out of the entry state
	absIdx = append(absIdx, ones)
	absRate = append(absRate, sumMu)

	diag := make([]float64, op.Dim())
	op.DiagInto(diag)
	jacobi := func(dst, src []float64) {
		for i, d := range diag {
			dst[i] = src[i] / d
		}
	}
	return markov.NewMatrixFree(markov.MatrixFreeSpec{
		Op: op, Gamma: p.TotalEventRate(), Start: ones,
		AbsorbIdx: absIdx, AbsorbRate: absRate,
		Precond: jacobi, PrecondT: jacobi,
	})
}
