package mc

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"recoveryblocks/internal/guard"
)

func TestRunCtxMatchesRun(t *testing.T) {
	square := func(b Block) int { return b.Index * b.Index }
	want := Run(100, 7, 4, square)
	got, err := RunCtx(context.Background(), 100, 7, 4, square)
	if err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("block %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRunCtxPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := RunCtx(context.Background(), 64, 4, workers, func(b Block) int {
			if b.Index == 7 {
				panic("poisoned replication")
			}
			return b.Index
		})
		if !errors.Is(err, guard.ErrPanic) {
			t.Fatalf("workers=%d: err = %v, want guard.ErrPanic", workers, err)
		}
	}
}

func TestRunCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := RunCtx(ctx, 1<<20, 1, 2, func(b Block) int {
		if ran.Add(1) == 8 {
			cancel()
		}
		return b.Index
	})
	if !errors.Is(err, guard.ErrBudget) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrBudget wrapping context.Canceled", err)
	}
	// The pool must have stopped long before draining the million-block plan.
	if n := ran.Load(); n > 1<<12 {
		t.Fatalf("ran %d blocks after cancellation, want an early stop", n)
	}
}

func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCtx(ctx, 10, 1, 1, func(b Block) int { return b.Index })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMapCtxMatchesSerialLoop(t *testing.T) {
	items := []int{3, 1, 4, 1, 5, 9, 2, 6}
	double := func(i, item int) int { return 2*item + i }
	want := make([]int, len(items))
	for i, item := range items {
		want[i] = double(i, item)
	}
	got, err := MapCtx(context.Background(), items, 3, double)
	if err != nil {
		t.Fatalf("MapCtx: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("item %d = %d, want %d", i, got[i], want[i])
		}
	}
}
