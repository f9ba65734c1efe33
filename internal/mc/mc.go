// Package mc is the sharded, deterministic Monte Carlo engine behind every
// simulator and experiment driver in this repository. It partitions a
// replication budget into fixed-size blocks, fans the blocks out across a
// pool of worker goroutines, and hands the per-block results back in block
// order for merging.
//
// The determinism contract: the block decomposition depends only on the
// total replication count (never on the worker count), each block draws its
// randomness from dist.Substream(baseSeed, blockIndex), and callers merge
// block results in ascending block index. Under that discipline the final
// statistics are bit-identical for Workers = 1 and Workers = N — the worker
// pool changes wall-clock time and nothing else. Tests in this package and
// in internal/sim pin the property down.
package mc

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"recoveryblocks/internal/obs"
)

// DefaultBlockSize is the replication-block granularity used when a caller
// passes blockSize <= 0. It is a fixed constant on purpose: deriving the
// block size from the worker count would change the block decomposition —
// and hence the RNG substreams — with the degree of parallelism, breaking
// bit-identical results across worker counts. 1024 replications per block
// keeps scheduling overhead (one atomic increment per block) far below the
// cost of simulating the block while still giving a 4–64-core pool hundreds
// of blocks to balance across workers at production sizes.
const DefaultBlockSize = 1024

// Workers resolves a worker-count knob: n > 0 means exactly n workers,
// anything else means runtime.NumCPU(). The resolved count never affects
// results, only how many goroutines execute blocks concurrently.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// Block is one contiguous chunk of the replication budget.
type Block struct {
	Index int // 0-based block number; feeds dist.Substream(seed, Index)
	Lo    int // first replication index covered (inclusive)
	Hi    int // one past the last replication index covered
}

// N returns the number of replications in the block.
func (b Block) N() int { return b.Hi - b.Lo }

// Plan splits total replications into ceil(total/blockSize) blocks of at
// most blockSize each. blockSize <= 0 selects DefaultBlockSize. The plan is
// a pure function of (total, blockSize) — worker count plays no part.
func Plan(total, blockSize int) []Block {
	if total <= 0 {
		return nil
	}
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	blocks := make([]Block, 0, (total+blockSize-1)/blockSize)
	for lo := 0; lo < total; lo += blockSize {
		hi := lo + blockSize
		if hi > total {
			hi = total
		}
		blocks = append(blocks, Block{Index: len(blocks), Lo: lo, Hi: hi})
	}
	return blocks
}

// Run executes run once per block of the (total, blockSize) plan on a pool
// of Workers(workers) goroutines and returns the per-block results in block
// order. run must derive all randomness from its block's index (typically
// dist.Substream(seed, b.Index)) and must not touch shared mutable state;
// the engine guarantees nothing about which worker executes which block or
// in what temporal order.
//
// Callers fold the returned slice front to back (Welford.Merge,
// Histogram.Merge, append). Because the plan and the substreams ignore the
// worker count, that fold is bit-identical for every workers value.
func Run[T any](total, blockSize, workers int, run func(b Block) T) []T {
	blocks := Plan(total, blockSize)
	if len(blocks) == 0 {
		return nil
	}
	// Observability is block-granular on purpose: one registry access per
	// run and per worker, never per replication, so the instrumented engine
	// is indistinguishable from the bare one when obs is off and within
	// noise when it is on. Block and run counts are deterministic (the plan
	// ignores the worker count); everything clock- or scheduling-shaped —
	// run wall time, per-worker block counts, busy time, imbalance — is
	// runtime-section material (see internal/obs).
	reg := obs.Current()
	var runStart time.Time
	if reg != nil {
		reg.Counter("mc_runs_total").Inc()
		reg.Counter("mc_blocks_total").Add(int64(len(blocks)))
		runStart = time.Now()
	}
	results := make([]T, len(blocks))
	w := Workers(workers)
	if w > len(blocks) {
		w = len(blocks)
	}
	if w <= 1 {
		for i, b := range blocks {
			results[i] = run(b)
		}
		if reg != nil {
			finishRun(reg, runStart, []int64{int64(len(blocks))}, nil)
		}
		return results
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
				i := int(next.Add(1)) - 1
				if i >= len(blocks) {
					break
				}
				if reg != nil {
					t0 := time.Now()
					results[i] = run(blocks[i])
					spent += time.Since(t0)
				} else {
					results[i] = run(blocks[i])
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
	return results
}

// finishRun folds one engine run's scheduling telemetry into the registry:
// per-worker block counts and busy time, the max−min block imbalance, and
// the run's wall time.
func finishRun(reg *obs.Registry, start time.Time, perWorker []int64, busy []time.Duration) {
	reg.Gauge("mc_workers").Set(float64(len(perWorker)))
	minB, maxB := perWorker[0], perWorker[0]
	for _, n := range perWorker {
		if n < minB {
			minB = n
		}
		if n > maxB {
			maxB = n
		}
		reg.Histogram("mc_worker_blocks").Observe(float64(n))
	}
	reg.Gauge("mc_imbalance_blocks").SetMax(float64(maxB - minB))
	for _, d := range busy {
		reg.Histogram("mc_worker_busy_seconds").Observe(d.Seconds())
	}
	reg.Histogram("mc_run_seconds").Observe(time.Since(start).Seconds())
}
