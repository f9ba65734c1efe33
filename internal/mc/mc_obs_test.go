package mc

import (
	"testing"

	"recoveryblocks/internal/obs"
)

// The tests below exercise the engine's edges (empty input, single item,
// workers exceeding blocks) with observability enabled, pinning both the
// results and the counters. They install the global registry, so none of
// them may call t.Parallel().

func withRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.Enable()
	t.Cleanup(obs.Disable)
	return reg
}

func TestMapEmptyGrid(t *testing.T) {
	reg := withRegistry(t)
	called := 0
	res := mustMap(t, nil, 8, func(i int, item struct{}) int {
		called++
		return i
	})
	if res != nil {
		t.Errorf("MapCtx(nil) = %v, want nil", res)
	}
	if called != 0 {
		t.Errorf("fn called %d times on empty grid", called)
	}
	for _, name := range []string{"mc_runs_total", "mc_blocks_total", "mc_map_items_total"} {
		if v := reg.Counter(name).Value(); v != 0 {
			t.Errorf("%s = %d after empty MapCtx, want 0", name, v)
		}
	}
}

func TestMapSingleItem(t *testing.T) {
	reg := withRegistry(t)
	res := mustMap(t, []int{41}, 8, func(i int, item int) int { return item + 1 + i })
	if len(res) != 1 || res[0] != 42 {
		t.Fatalf("MapCtx single item = %v, want [42]", res)
	}
	if v := reg.Counter("mc_runs_total").Value(); v != 1 {
		t.Errorf("mc_runs_total = %d, want 1", v)
	}
	if v := reg.Counter("mc_blocks_total").Value(); v != 1 {
		t.Errorf("mc_blocks_total = %d, want 1", v)
	}
	if v := reg.Counter("mc_map_items_total").Value(); v != 1 {
		t.Errorf("mc_map_items_total = %d, want 1", v)
	}
	// One block clamps the pool to one worker: the sequential path.
	if w := reg.Gauge("mc_workers").Value(); w != 1 {
		t.Errorf("mc_workers = %g, want 1", w)
	}
}

func TestRunWorkersExceedBlocks(t *testing.T) {
	reg := withRegistry(t)
	const total, blockSize = 3, 1
	res := Run(total, blockSize, 64, func(b Block) int { return b.Index })
	if len(res) != total {
		t.Fatalf("got %d results, want %d", len(res), total)
	}
	for i, v := range res {
		if v != i {
			t.Errorf("results out of block order: res[%d] = %d", i, v)
		}
	}
	if v := reg.Counter("mc_runs_total").Value(); v != 1 {
		t.Errorf("mc_runs_total = %d, want 1", v)
	}
	if v := reg.Counter("mc_blocks_total").Value(); v != int64(total) {
		t.Errorf("mc_blocks_total = %d, want %d", v, total)
	}
	// The pool must clamp to the block count, not spin up 64 goroutines.
	if w := reg.Gauge("mc_workers").Value(); w != total {
		t.Errorf("mc_workers = %g, want %d (clamped to block count)", w, total)
	}
}

func TestRunCountersAccumulateAcrossRuns(t *testing.T) {
	reg := withRegistry(t)
	// 10 replications in blocks of 3 -> 4 blocks; run twice.
	for range [2]struct{}{} {
		Run(10, 3, 2, func(b Block) int { return b.N() })
	}
	if v := reg.Counter("mc_runs_total").Value(); v != 2 {
		t.Errorf("mc_runs_total = %d, want 2", v)
	}
	if v := reg.Counter("mc_blocks_total").Value(); v != 8 {
		t.Errorf("mc_blocks_total = %d, want 8", v)
	}
	// Per-worker block counts land in the runtime histogram: two runs with
	// two workers each is four observations covering all eight blocks.
	h := reg.Histogram("mc_worker_blocks").Snapshot()
	if h.Count != 4 || h.Sum != 8 {
		t.Errorf("mc_worker_blocks: n=%d sum=%g, want n=4 sum=8", h.Count, h.Sum)
	}
}
