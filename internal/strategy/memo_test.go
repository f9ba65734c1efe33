package strategy

import (
	"context"
	"errors"
	"testing"

	"recoveryblocks/internal/guard"
)

// fallbackBlock runs a guard block whose primary fails, so its answer comes
// from the alternate and records one fallback event on the context.
func fallbackBlock(ctx context.Context) (float64, error) {
	res, err := guard.Block[float64]{
		Name:       "test/fallback",
		Primary:    guard.Attempt[float64]{Name: "primary", Run: func(context.Context) (float64, error) { return 0, guard.Numericalf("broken") }},
		Alternates: []guard.Attempt[float64]{{Name: "alternate", Run: func(context.Context) (float64, error) { return 2, nil }}},
	}.Do(ctx)
	return res.Value, err
}

// TestMemoStoresOnlyCleanAnswers pins the memo's two safety rules: an answer
// whose computation recorded a guard fallback is passed on (its event
// reaching the caller's recorder) but not stored, and a context carrying a
// guard.FaultSpec neither reads nor writes the memo. A failed computation
// is not stored either.
func TestMemoStoresOnlyCleanAnswers(t *testing.T) {
	memo := &Memo{}
	rec := &guard.Recorder{}
	ctx := guard.WithRecorder(WithMemo(context.Background(), memo), rec)
	key := func() string { return "k" }
	calls := 0
	counted := func(f func(context.Context) (float64, error)) func(context.Context) (float64, error) {
		return func(ctx context.Context) (float64, error) {
			calls++
			return f(ctx)
		}
	}

	for i := 0; i < 2; i++ {
		v, err := memoized(ctx, key, counted(fallbackBlock))
		if err != nil || v != 2 {
			t.Fatalf("fallback compute returned %v, %v", v, err)
		}
	}
	if calls != 2 || rec.Len() != 2 || len(memo.answers) != 0 {
		t.Fatalf("after two fallback answers: %d computes, %d events, %d stored; want 2, 2, 0", calls, rec.Len(), len(memo.answers))
	}

	failed := errors.New("no answer")
	if _, err := memoized(ctx, key, counted(func(context.Context) (float64, error) { return 0, failed })); !errors.Is(err, failed) {
		t.Fatalf("failed compute returned %v", err)
	}
	if len(memo.answers) != 0 {
		t.Fatal("a failed computation was stored")
	}

	faulted := guard.WithFaults(ctx, guard.FaultSpec{Depth: 1})
	if v, _ := memoized(faulted, key, counted(func(context.Context) (float64, error) { return 3, nil })); v != 3 || len(memo.answers) != 0 {
		t.Fatalf("fault-injected compute returned %v and stored %d answers; want 3 and none", v, len(memo.answers))
	}

	calls = 0
	for i := 0; i < 2; i++ {
		if v, _ := memoized(ctx, key, counted(func(context.Context) (float64, error) { return 5, nil })); v != 5 {
			t.Fatalf("clean compute returned %v, want 5", v)
		}
	}
	if calls != 1 {
		t.Fatalf("clean answer computed %d times, want once", calls)
	}
	if v, _ := memoized(faulted, key, counted(func(context.Context) (float64, error) { return 7, nil })); v != 7 {
		t.Fatalf("fault-injected compute read the memo: got %v, want 7", v)
	}
	if v, _ := memoized(context.Background(), key, counted(func(context.Context) (float64, error) { return 9, nil })); v != 9 {
		t.Fatalf("a context without the memo read it: got %v, want 9", v)
	}
}

// TestMemoKeysSeparateTheirInputs: n, k and d = 0 against d > 0 each give
// distinct keys, and so do λ matrices of different shape holding the same
// values in the same order.
func TestMemoKeysSeparateTheirInputs(t *testing.T) {
	w := testWorkload()
	noDeadline := w
	noDeadline.Deadline = 0
	negDeadline := w
	negDeadline.Deadline = -1
	more := w
	more.Mu = append(append([]float64(nil), w.Mu...), w.Mu[0])
	more.Lambda = uniformMatrix(4, 1)
	reshaped := w
	reshaped.Lambda = [][]float64{{0, 1, 1, 1}, {0, 1, 1}, {1, 1, 0}}

	if asyncKey(w) == asyncKey(noDeadline) {
		t.Error("d > 0 and d = 0 share a key")
	}
	if asyncKey(noDeadline) != asyncKey(negDeadline) {
		t.Error("d = 0 and d < 0 (both: no deadline) have different keys")
	}
	if asyncKey(w) == asyncKey(more) {
		t.Error("n = 3 and n = 4 share a key")
	}
	if asyncKey(w) == asyncKey(reshaped) {
		t.Error("λ matrices of different shape share a key")
	}
	if everyKKey(2, w.Mu) == everyKKey(3, w.Mu) {
		t.Error("k = 2 and k = 3 share a key")
	}
	if everyKKey(2, w.Mu) == everyKKey(2, more.Mu) {
		t.Error("n = 3 and n = 4 share an every-k key")
	}
}
