package mc

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"recoveryblocks/internal/guard"
	"recoveryblocks/internal/obs"
)

// RunCtx is Run with the recovery-block discipline applied to the pool
// itself: per-block panic isolation and context-based cancellation. A
// panicking block becomes a guard.ErrPanic-classified error of the whole run
// instead of crashing the process, and an expired context stops dispatching
// further blocks and returns a guard.ErrBudget-classified error wrapping the
// context's cause — one poisoned replication or a cancelled request never
// kills the pool.
//
// On a nil error the result slice is complete and bit-identical to Run's for
// every worker count. On error the slice is partial (unexecuted slots hold
// zero values) and callers must treat the run as failed; the first failure
// wins and later blocks already in flight are drained, not interrupted.
func RunCtx[T any](ctx context.Context, total, blockSize, workers int, run func(b Block) T) ([]T, error) {
	blocks := Plan(total, blockSize)
	if len(blocks) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, cancelErr(err)
	}
	reg := obs.Current()
	var runStart time.Time
	if reg != nil {
		reg.Counter("mc_runs_total").Inc()
		reg.Counter("mc_blocks_total").Add(int64(len(blocks)))
		runStart = time.Now()
	}
	results := make([]T, len(blocks))

	var (
		stop     atomic.Bool
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		stop.Store(true)
	}
	// exec runs one block with panic capture: the panic value is folded into
	// a typed error and the pool keeps draining instead of unwinding.
	exec := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				obs.C("mc_block_panics_total").Inc()
				fail(fmt.Errorf("mc: block %d panicked: %w: %v", i, guard.ErrPanic, r))
			}
		}()
		results[i] = run(blocks[i])
	}

	w := Workers(workers)
	if w > len(blocks) {
		w = len(blocks)
	}
	if w <= 1 {
		var done int64
		for i := range blocks {
			if err := ctx.Err(); err != nil {
				fail(cancelErr(err))
			}
			if stop.Load() {
				break
			}
			exec(i)
			done++
		}
		if reg != nil {
			finishRun(reg, runStart, []int64{done}, nil)
		}
		return results, firstErr
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	perWorker := make([]int64, w)
	busy := make([]time.Duration, w)
	for g := 0; g < w; g++ {
		go func(g int) {
			defer wg.Done()
			var done int64
			var spent time.Duration
			for {
				if err := ctx.Err(); err != nil {
					fail(cancelErr(err))
				}
				if stop.Load() {
					break
				}
				i := int(next.Add(1)) - 1
				if i >= len(blocks) {
					break
				}
				if reg != nil {
					t0 := time.Now()
					exec(i)
					spent += time.Since(t0)
				} else {
					exec(i)
				}
				done++
			}
			perWorker[g] = done
			busy[g] = spent
		}(g)
	}
	wg.Wait()
	if reg != nil {
		finishRun(reg, runStart, perWorker, busy)
	}
	return results, firstErr
}

func cancelErr(err error) error {
	return fmt.Errorf("mc: run cancelled: %w: %w", guard.ErrBudget, err)
}

// MapCtx runs fn once per item on the worker pool and returns the results in
// item order — the grid-level counterpart of RunCtx: where RunCtx shards the
// replications *inside* one estimator, MapCtx fans *independent* work items
// (xval scenarios, scenario-batch cells, chaos draws) across the same pool.
// fn must be deterministic in (i, item) and must not touch shared mutable
// state; under that discipline the result slice is identical for every
// worker count, so reports built by folding it in order inherit the
// engine's bit-reproducibility. RunCtx's panic isolation and cancellation
// carry over: a Ctrl-C or -timeout stops a long corpus at the next item
// boundary and a poisoned cell surfaces as a typed error instead of a
// crash.
func MapCtx[T, R any](ctx context.Context, items []T, workers int, fn func(i int, item T) R) ([]R, error) {
	obs.C("mc_map_items_total").Add(int64(len(items)))
	return RunCtx(ctx, len(items), 1, workers, func(b Block) R {
		return fn(b.Lo, items[b.Lo])
	})
}
