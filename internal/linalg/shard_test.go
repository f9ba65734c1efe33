package linalg

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// countJob counts the runs of each index and panics at index panicAt. Its
// upper half waits (up to a second) for the lower half to start, so the
// lower half runs on the helper rather than being taken back.
type countJob struct {
	runs    []int
	panicAt int
	started atomic.Bool
}

func (j *countJob) RunRange(lo, hi int) {
	if lo == 0 {
		j.started.Store(true)
	} else {
		for t0 := time.Now(); !j.started.Load() && time.Since(t0) < time.Second; {
			runtime.Gosched()
		}
	}
	for i := lo; i < hi; i++ {
		if i == j.panicAt {
			panic("index reached")
		}
		j.runs[i]++
	}
}

// TestShardRunsEachIndexOnceAndRaisesPanics: a sharded call runs every
// index exactly once, a panic in either half reaches the caller, and the
// helper is free again afterwards.
func TestShardRunsEachIndexOnceAndRaisesPanics(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 1000
	for _, at := range []int{-1, 3, n - 3} { // no panic, lower half, upper half
		for range 20 {
			j := &countJob{runs: make([]int, n), panicAt: at}
			p := func() (p any) {
				defer func() { p = recover() }()
				Shard(j, shardDim, n)
				return nil
			}()
			if (p != nil) != (at >= 0) {
				t.Fatalf("panic at %d: Shard raised %v", at, p)
			}
			if helper.busy.Load() {
				t.Fatalf("panic at %d: the helper is still held", at)
			}
			if at >= 0 {
				continue
			}
			for i, r := range j.runs {
				if r != 1 {
					t.Fatalf("index %d ran %d times", i, r)
				}
			}
		}
	}
}
