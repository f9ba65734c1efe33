package linalg

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Ranger is a kernel over a half-open index range [lo, hi) that Shard can
// split between two goroutines. Each index must write its own elements
// only, unless the kernel orders the halves itself (see Shard).
type Ranger interface {
	RunRange(lo, hi int)
}

// shardDim is the least work, in elements, that Shard splits: two
// blockBits cache blocks' worth, so each goroutine streams at least one
// block of its own. Below it a hand-off costs about as much as the half it
// moves.
const shardDim = 2 << blockBits

// helper is the one goroutine that runs the lower half of a sharded kernel.
// It is started on first use and lives as long as the process. busy is held
// by the goroutine that posted the current half, from the post until the
// half is done, so one half at most is ever posted and its done state
// always belongs to the goroutine waiting for it. state walks
//
//	idle → posted → running → done → idle   (the helper ran the half)
//	idle → posted → idle                    (the poster took it back)
//	idle → parked → posted → …              (the helper slept; the poster wakes it)
//
// The helper polls for a post for helperSpin after each half and then
// parks on wake, where it costs nothing. Waking a parked
// thread takes 0.1–0.2 ms on a virtualized host, longer than a half
// kernel, which is why the helper polls between the passes of a solve and
// why a poster that finishes its own half first takes the posted one back.
var helper struct {
	start    sync.Once
	busy     atomic.Bool
	state    atomic.Int32
	half     half
	panicked any // the value of a panic from the helper's last half
	wake     chan struct{}
}

const (
	helperIdle = iota
	helperParked
	helperPosted
	helperRunning
	helperDone
)

// helperSpin is how long the helper polls for the next half before it
// parks: longer than the serial vector work between two Krylov passes.
const helperSpin = 2 * time.Millisecond

type half struct {
	job    Ranger
	lo, hi int
}

// Shard runs job over [0, n) and returns once the whole range is done.
// work is the job's size in elements: the vector length of a pass over a
// state space, or nodes × cells for a batch of transform passes. For
// work ≥ shardDim, with GOMAXPROCS ≥ 2 and the helper free, it posts
// [0, n/2) to the helper and runs [n/2, n) itself; if the helper has not
// started the posted half by then, the caller runs it too. Otherwise the
// caller runs job.RunRange(0, n): when GOMAXPROCS is 1, or when another
// goroutine holds the helper (two solves on the mc pool at once), so there
// is never more than one extra goroutine. A post stores the job and its
// range in the helper's slot and allocates nothing.
//
// Its callers: the KronOp passes (by vector range), and in rbmodel the
// Krylov preconditioner's passes and top-bit sweep, the renewal
// recursion's subset pass (cubeMoments and single cube transform passes,
// pipelined across the top bit) and pairRates, and the Talbot contour
// batches (by node).
//
// The upper half always runs on the calling goroutine, first or alongside
// the lower one, so a lower half that waits on the upper half's progress
// (the top-bit pipelines) only ever waits on a goroutine that is running;
// such a job must release that wait if its upper half panics. Run inline,
// the kernel sees the whole range and orders it itself.
//
// A panic in either half is raised again on the calling goroutine once
// both halves have stopped, so a guard block's recover sees it as it would
// on one goroutine, and the helper is free for the next call.
func Shard(job Ranger, work, n int) {
	if work < shardDim || runtime.GOMAXPROCS(0) < 2 || !helper.busy.CompareAndSwap(false, true) {
		job.RunRange(0, n)
		return
	}
	helper.start.Do(startHelper)
	mid := n / 2
	helper.half = half{job: job, lo: 0, hi: mid}
	if helper.state.Swap(helperPosted) == helperParked {
		helper.wake <- struct{}{}
	}
	p := try(job, mid, n)
	if helper.state.CompareAndSwap(helperPosted, helperIdle) {
		if p == nil {
			p = try(job, 0, mid)
		}
	} else {
		for helper.state.Load() != helperDone {
			runtime.Gosched()
		}
		helper.state.Store(helperIdle)
		if p == nil {
			p = helper.panicked
		}
	}
	// Hold no job past its run.
	helper.half, helper.panicked = half{}, nil
	helper.busy.Store(false)
	if p != nil {
		panic(p)
	}
}

// try runs job over [lo, hi) and returns the value of a panic from it.
func try(job Ranger, lo, hi int) (p any) {
	defer func() { p = recover() }()
	job.RunRange(lo, hi)
	return nil
}

func startHelper() {
	helper.wake = make(chan struct{}, 1)
	go runHelper()
}

func runHelper() {
	last := time.Now()
	for spins := 0; ; spins++ {
		if helper.state.Load() == helperPosted && helper.state.CompareAndSwap(helperPosted, helperRunning) {
			h := helper.half
			helper.panicked = try(h.job, h.lo, h.hi)
			helper.state.Store(helperDone)
			last, spins = time.Now(), 0
			continue
		}
		if spins%64 != 63 {
			continue
		}
		runtime.Gosched()
		if time.Since(last) > helperSpin && helper.state.CompareAndSwap(helperIdle, helperParked) {
			<-helper.wake
			last = time.Now()
		}
	}
}
