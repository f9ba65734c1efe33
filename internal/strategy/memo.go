package strategy

import (
	"context"
	"encoding/binary"
	"math"
	"sync"

	"recoveryblocks/internal/guard"
)

// Memo caches the rate-determined answers of pricings that share their
// rates. The Section 2 chain's E[X], E[X²] and P(X > d) depend only on μ, λ
// and d, and the every-k commit phase E[Z_k] only on k and μ, so a run of
// advisements that varies θ, t_r or τ around one workload — the chaos
// sweep's error-spike and cost-inflate draws — needs each of them solved
// once. Keys are the exact bits of their inputs, and every cached value is a
// pure function of its key, so a hit returns the bits a solve would.
//
// A Memo rides the context (WithMemo), like guard.FaultSpec and
// guard.Recorder. Two rules keep a hit indistinguishable from a solve:
//
//   - a context carrying a guard.FaultSpec bypasses the memo entirely — it
//     neither reads nor writes it;
//   - only answers whose computation recorded no guard fallback event are
//     stored, so a hit never hides a fallback from the advisor's Confidence
//     and FallbackRoutes.
//
// The zero value is ready to use and safe for concurrent use.
type Memo struct {
	mu      sync.Mutex
	answers map[string]any // keyed by asyncKey or everyKKey
}

// asyncAnswer is the Section 2 chain's rate-determined output; Miss is
// P(X > d), meaningful only when the key's d is positive.
type asyncAnswer struct {
	M1, M2, Miss float64
}

type memoKey struct{}

// WithMemo returns a context whose pricings share m.
func WithMemo(ctx context.Context, m *Memo) context.Context {
	return context.WithValue(ctx, memoKey{}, m)
}

// memoFrom returns the context's memo, or nil when it carries none or
// carries a fault policy.
func memoFrom(ctx context.Context) *Memo {
	m, _ := ctx.Value(memoKey{}).(*Memo)
	if m == nil {
		return nil
	}
	if _, faulted := guard.FaultsFrom(ctx); faulted {
		return nil
	}
	return m
}

// memoized returns the answer stored under key on a hit, else runs compute
// and stores its answer unless it failed or recorded a guard fallback event.
// Without a memo on the context it is compute(ctx).
func memoized[T any](ctx context.Context, key func() string, compute func(context.Context) (T, error)) (T, error) {
	m := memoFrom(ctx)
	if m == nil {
		return compute(ctx)
	}
	k := key()
	m.mu.Lock()
	v, ok := m.answers[k]
	m.mu.Unlock()
	if ok {
		return v.(T), nil
	}
	rec := guard.RecorderFrom(ctx)
	if rec == nil {
		rec = &guard.Recorder{}
		ctx = guard.WithRecorder(ctx, rec)
	}
	before := rec.Len()
	a, err := compute(ctx)
	if err == nil && rec.Len() == before {
		m.mu.Lock()
		if m.answers == nil {
			m.answers = make(map[string]any)
		}
		m.answers[k] = a
		m.mu.Unlock()
	}
	return a, err
}

// asyncKey encodes (n, d, μ, λ) — every input of the chain's answers — with
// each λ row's length, so no two shapes share a key. d ≤ 0 (no deadline)
// encodes as 0, apart from every positive d.
func asyncKey(w Workload) string {
	d := max(w.Deadline, 0)
	b := make([]byte, 0, 1+8*(2+len(w.Mu)+len(w.Lambda)*(1+len(w.Mu))))
	b = append(b, 'a')
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(d))
	b = appendFloats(b, w.Mu)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(w.Lambda)))
	for _, row := range w.Lambda {
		b = appendFloats(b, row)
	}
	return string(b)
}

// everyKKey encodes (k, μ), the inputs of E[Z_k].
func everyKKey(k int, mu []float64) string {
	b := make([]byte, 0, 1+8*(2+len(mu)))
	b = append(b, 'k')
	b = binary.LittleEndian.AppendUint64(b, uint64(k))
	b = appendFloats(b, mu)
	return string(b)
}

// appendFloats appends the length and then the exact bits of v.
func appendFloats(b []byte, v []float64) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(v)))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}
