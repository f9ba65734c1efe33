package sim

import (
	"testing"

	"recoveryblocks/internal/dist"
	"recoveryblocks/internal/rbmodel"
)

// These tests pin the PR-4 performance contract: once a block's scratch
// buffers exist, the steady-state inner loops of all three simulators run
// without a single heap allocation. A regression here (a closure capture, an
// interface conversion, an append into an unsized buffer) silently multiplies
// GC pressure by the event count, so it fails loudly instead.

func TestAsyncBlockZeroAlloc(t *testing.T) {
	p := rbmodel.Uniform(4, 1, 1)
	cats, err := newEventCats(p)
	if err != nil {
		t.Fatal(err)
	}
	opt := AsyncOptions{Intervals: 1}
	rng := dist.NewStream(1983)
	blk := newAsyncBlock(&cats, nil, 64, opt)
	allocs := testing.AllocsPerRun(200, func() {
		blk.run(&cats, 8, rng)
	})
	if allocs != 0 {
		t.Fatalf("single-table block loop allocates %v per run, want 0", allocs)
	}
	// The two-lane kernel, odd interval counts (lane B one short) and a
	// lone lane A included.
	tab := getJumpTables(&cats)
	defer putJumpTables(cats.n, tab)
	blk = newAsyncBlock(&cats, tab, 64, opt)
	for _, intervals := range []int{8, 7, 1} {
		allocs = testing.AllocsPerRun(200, func() {
			blk.runJump(tab, intervals, rng)
		})
		if allocs != 0 {
			t.Fatalf("two-lane block loop allocates %v per %d-interval run, want 0", allocs, intervals)
		}
	}
}

// TestJumpTablesRebuildZeroAlloc pins the table build's allocation
// contract: rebuilding cached tables for new rates of the same process
// count reuses every buffer.
func TestJumpTablesRebuildZeroAlloc(t *testing.T) {
	a, err := newEventCats(rbmodel.Uniform(8, 1, 2.0/7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := newEventCats(rbmodel.Uniform(8, 1.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	tab := &jumpTables{}
	tab.build(&a)
	flip := false
	allocs := testing.AllocsPerRun(20, func() {
		if flip = !flip; flip {
			tab.build(&b)
		} else {
			tab.build(&a)
		}
	})
	if allocs != 0 {
		t.Fatalf("rebuilding n = 8 tables allocates %v per build, want 0", allocs)
	}
}

func TestSyncCyclesZeroAlloc(t *testing.T) {
	mu := []float64{1.5, 1.0, 0.5}
	sumMu := 3.0
	rng := dist.NewStream(1983)
	for _, strat := range []SyncStrategy{SyncConstantInterval, SyncElapsedSinceLine, SyncStatesSaved} {
		opt := SyncOptions{Strategy: strat, Threshold: 3}
		res := &SyncResult{}
		allocs := testing.AllocsPerRun(200, func() {
			res.runCycles(mu, sumMu, opt, 16, rng)
		})
		if allocs != 0 {
			t.Fatalf("%v cycle loop allocates %v per run, want 0", strat, allocs)
		}
	}
}

func TestPRPBlockZeroAlloc(t *testing.T) {
	p := rbmodel.Uniform(4, 1, 1)
	cats, err := newEventCats(p, p.SumMu()/float64(p.N()))
	if err != nil {
		t.Fatal(err)
	}
	opt := PRPOptions{Probes: 1, Warmup: 0, PLocal: 0.5}
	blk := &prpBlock{lastRP: make([]float64, p.N())}
	rng := dist.NewStream(1983)
	allocs := testing.AllocsPerRun(200, func() {
		blk.run(&cats, 8, opt, rng)
	})
	if allocs != 0 {
		t.Fatalf("PRP probe loop allocates %v per run, want 0", allocs)
	}
}
