package mc

import (
	"context"
	"sync/atomic"
	"testing"

	"recoveryblocks/internal/dist"
	"recoveryblocks/internal/stats"
)

func TestPlanCoversEveryReplicationOnce(t *testing.T) {
	for _, tc := range []struct{ total, block int }{
		{1, 4}, {4, 4}, {5, 4}, {1000, 128}, {1023, 1024}, {1025, 1024}, {7, 0},
	} {
		blocks := Plan(tc.total, tc.block)
		covered := 0
		for i, b := range blocks {
			if b.Index != i {
				t.Fatalf("block %d has Index %d", i, b.Index)
			}
			if b.Lo != covered {
				t.Fatalf("plan(%d,%d): gap at block %d", tc.total, tc.block, i)
			}
			if b.N() <= 0 {
				t.Fatalf("empty block %d", i)
			}
			covered = b.Hi
		}
		if covered != tc.total {
			t.Fatalf("plan(%d,%d) covers %d", tc.total, tc.block, covered)
		}
	}
	if Plan(0, 4) != nil || Plan(-3, 4) != nil {
		t.Fatal("non-positive totals must plan nothing")
	}
}

func TestPlanIgnoresWorkerCount(t *testing.T) {
	// The decomposition is a pure function of (total, blockSize): there is
	// no workers parameter to Plan at all, and Run must not re-chunk. Verify
	// Run hands identical blocks to the run function at 1 and 8 workers.
	collect := func(workers int) []Block {
		out := make([]Block, 0)
		ch := make(chan Block, 64)
		done := make(chan struct{})
		go func() {
			for b := range ch {
				out = append(out, b)
			}
			close(done)
		}()
		Run(100, 16, workers, func(b Block) int { ch <- b; return 0 })
		close(ch)
		<-done
		return out
	}
	a, b := collect(1), collect(8)
	if len(a) != len(b) {
		t.Fatalf("block counts differ: %d vs %d", len(a), len(b))
	}
	seen := map[int]Block{}
	for _, blk := range a {
		seen[blk.Index] = blk
	}
	for _, blk := range b {
		if seen[blk.Index] != blk {
			t.Fatalf("block %d differs across worker counts", blk.Index)
		}
	}
}

func TestRunResultsInBlockOrder(t *testing.T) {
	res := Run(50, 7, 4, func(b Block) int { return b.Lo })
	want := 0
	for i, v := range res {
		if v != want {
			t.Fatalf("result %d = %d, want %d", i, v, want)
		}
		want += 7
	}
}

func TestRunExecutesEveryBlockExactlyOnce(t *testing.T) {
	var calls atomic.Int64
	res := Run(10000, 64, 8, func(b Block) int {
		calls.Add(1)
		return b.N()
	})
	total := 0
	for _, n := range res {
		total += n
	}
	if total != 10000 {
		t.Fatalf("blocks cover %d replications, want 10000", total)
	}
	if int(calls.Load()) != len(res) {
		t.Fatalf("%d calls for %d blocks", calls.Load(), len(res))
	}
}

func TestRunBitIdenticalAcrossWorkerCounts(t *testing.T) {
	// The canonical use: per-block substreams, Welford merge in block order.
	sample := func(workers int) stats.Welford {
		blocks := Run(30000, 0, workers, func(b Block) stats.Welford {
			rng := dist.Substream(1983, b.Index)
			var w stats.Welford
			for i := 0; i < b.N(); i++ {
				w.Add(rng.Exp(1))
			}
			return w
		})
		var w stats.Welford
		for _, b := range blocks {
			w.Merge(b)
		}
		return w
	}
	base := sample(1)
	for _, workers := range []int{2, 3, 8, 0} {
		got := sample(workers)
		if got.Mean() != base.Mean() || got.Variance() != base.Variance() || got.N() != base.N() {
			t.Fatalf("workers=%d: (%v, %v, %d) != workers=1 (%v, %v, %d)",
				workers, got.Mean(), got.Variance(), got.N(), base.Mean(), base.Variance(), base.N())
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit worker count not honored")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Fatal("defaulted worker count must be >= 1")
	}
}

func TestMapOrderAndWorkerInvariance(t *testing.T) {
	items := make([]int, 137)
	for i := range items {
		items[i] = 10 + i
	}
	base := mustMap(t, items, 1, func(i, item int) [2]int { return [2]int{i, item * item} })
	if len(base) != len(items) {
		t.Fatalf("len = %d, want %d", len(base), len(items))
	}
	for i, r := range base {
		if r[0] != i || r[1] != items[i]*items[i] {
			t.Fatalf("result %d = %v out of order", i, r)
		}
	}
	for _, workers := range []int{2, 7, 0} {
		got := mustMap(t, items, workers, func(i, item int) [2]int { return [2]int{i, item * item} })
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: result %d differs", workers, i)
			}
		}
	}
	if r := mustMap(t, nil, 4, func(i int, item struct{}) int { return i }); r != nil {
		t.Fatalf("empty MapCtx = %v, want nil", r)
	}
}

// mustMap runs MapCtx under a background context, failing the test on error.
func mustMap[T, R any](t *testing.T, items []T, workers int, fn func(i int, item T) R) []R {
	t.Helper()
	res, err := MapCtx(context.Background(), items, workers, fn)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
