package strategy

import (
	"context"
	"fmt"
	"math"
	"testing"

	"recoveryblocks/internal/dist"
)

// Property-based monotonicity suite: for EVERY registered discipline, over
// randomized workloads, the exact price must respect the economics the paper's
// models encode —
//
//   - the total overhead rate is non-decreasing in the system error rate θ
//     (more errors can never make recovery cheaper),
//   - the total overhead rate is non-decreasing under uniform scaling of the
//     interaction matrix λ (more coupling can never shrink rollback or
//     checkpoint structure costs),
//   - the deadline-miss probability is non-increasing in the deadline T
//     (more time can never increase the miss risk).
//
// The suite is registry-driven: a discipline registered tomorrow is swept
// automatically, and a pricing model that violates any of these orderings
// fails here long before a corpus sweep would notice the symptom.

// propTol absorbs the numeric noise of the chain solves and quadratures; the
// orderings themselves are exact, so violations beyond this are model bugs.
const propTol = 1e-9

// drawPropertyWorkload draws one randomized valid workload from the stream.
// Fields every discipline prices are always set; EveryK stays within its
// bound; the error rate and deadline are overwritten by the sweeps.
func drawPropertyWorkload(rng *dist.Stream) Workload {
	n := 2 + rng.Intn(3) // 2..4 processes
	mu := make([]float64, n)
	for i := range mu {
		mu[i] = 0.5 + 2*rng.Float64()
	}
	lambda := uniformMatrix(n, 0.2+1.5*rng.Float64())
	return Workload{
		Name:           "prop",
		Mu:             mu,
		Lambda:         lambda,
		SyncInterval:   0.5 + 1.5*rng.Float64(),
		EveryK:         1 + rng.Intn(4),
		CheckpointCost: 0.01 + 0.1*rng.Float64(),
		Deadline:       1 + 4*rng.Float64(),
		ErrorRate:      0.01 + 0.3*rng.Float64(),
		PLocal:         rng.Float64(),
		Reps:           4000,
		Seed:           1983,
		Workers:        1,
	}
}

// scaleLambda returns the workload with every interaction rate multiplied by
// the factor.
func scaleLambda(w Workload, f float64) Workload {
	out := w
	out.Lambda = make([][]float64, len(w.Lambda))
	for i := range w.Lambda {
		out.Lambda[i] = append([]float64(nil), w.Lambda[i]...)
		for j := range out.Lambda[i] {
			out.Lambda[i][j] *= f
		}
	}
	return out
}

// priceAll evaluates one strategy along a workload sequence and returns the
// metrics, failing the test on any pricing error (every drawn workload is
// valid by construction).
func priceAll(t *testing.T, st Strategy, ws []Workload) []Metrics {
	t.Helper()
	out := make([]Metrics, len(ws))
	for i, w := range ws {
		if err := st.Validate(w); err != nil {
			t.Fatalf("%s rejected a drawn workload: %v", st.Name(), err)
		}
		m, err := st.Price(w)
		if err != nil {
			t.Fatalf("%s failed to price %s: %v", st.Name(), describeWorkload(w), err)
		}
		out[i] = m
	}
	return out
}

func describeWorkload(w Workload) string {
	return fmt.Sprintf("n=%d mu=%v lambda00=%v tau=%v k=%d tr=%v theta=%v T=%v",
		w.N(), w.Mu, w.Lambda[0][1], w.SyncInterval, w.EveryK, w.CheckpointCost, w.ErrorRate, w.Deadline)
}

func TestPriceOverheadNonDecreasingInErrorRate(t *testing.T) {
	thetas := []float64{0, 0.01, 0.05, 0.1, 0.2, 0.5, 1}
	for _, name := range Names() {
		st, _ := Lookup(name)
		t.Run(string(name), func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				base := drawPropertyWorkload(dist.Substream(1983, trial))
				ws := make([]Workload, len(thetas))
				for i, theta := range thetas {
					ws[i] = base
					ws[i].ErrorRate = theta
				}
				ms := priceAll(t, st, ws)
				for i := 1; i < len(ms); i++ {
					if ms[i].OverheadRate < ms[i-1].OverheadRate-propTol {
						t.Fatalf("trial %d: overhead fell from %.12g to %.12g as theta rose %v -> %v (%s)",
							trial, ms[i-1].OverheadRate, ms[i].OverheadRate, thetas[i-1], thetas[i], describeWorkload(base))
					}
				}
			}
		})
	}
}

func TestPriceOverheadNonDecreasingInInteractionScale(t *testing.T) {
	scales := []float64{0, 0.25, 0.5, 1, 2, 4}
	for _, name := range Names() {
		st, _ := Lookup(name)
		t.Run(string(name), func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				base := drawPropertyWorkload(dist.Substream(2024, trial))
				ws := make([]Workload, len(scales))
				for i, f := range scales {
					ws[i] = scaleLambda(base, f)
				}
				ms := priceAll(t, st, ws)
				for i := 1; i < len(ms); i++ {
					if ms[i].OverheadRate < ms[i-1].OverheadRate-propTol {
						t.Fatalf("trial %d: overhead fell from %.12g to %.12g as lambda scale rose %v -> %v (%s)",
							trial, ms[i-1].OverheadRate, ms[i].OverheadRate, scales[i-1], scales[i], describeWorkload(base))
					}
				}
			}
		})
	}
}

func TestPriceDeadlineMissNonIncreasingInDeadline(t *testing.T) {
	deadlines := []float64{0.5, 1, 2, 4, 8, 16}
	for _, name := range Names() {
		st, _ := Lookup(name)
		t.Run(string(name), func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				base := drawPropertyWorkload(dist.Substream(777, trial))
				ws := make([]Workload, len(deadlines))
				for i, d := range deadlines {
					ws[i] = base
					ws[i].Deadline = d
				}
				ms := priceAll(t, st, ws)
				for i, m := range ms {
					if m.DeadlineMissProb < -propTol || m.DeadlineMissProb > 1+propTol {
						t.Fatalf("trial %d: miss probability %v outside [0, 1] at deadline %v", trial, m.DeadlineMissProb, deadlines[i])
					}
				}
				for i := 1; i < len(ms); i++ {
					if ms[i].DeadlineMissProb > ms[i-1].DeadlineMissProb+propTol {
						t.Fatalf("trial %d: miss probability rose from %.12g to %.12g as deadline rose %v -> %v (%s)",
							trial, ms[i-1].DeadlineMissProb, ms[i].DeadlineMissProb, deadlines[i-1], deadlines[i], describeWorkload(base))
					}
				}
			}
		})
	}
}

// TestPriceNoDeadlineUsesSentinel pins the -1 sentinel across the whole
// catalog: a workload without a deadline prices with DeadlineMissProb = -1,
// never a stale probability.
func TestPriceNoDeadlineUsesSentinel(t *testing.T) {
	for _, name := range Names() {
		st, _ := Lookup(name)
		w := drawPropertyWorkload(dist.Substream(55, 0))
		w.Deadline = 0
		m, err := st.Price(w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.DeadlineMissProb != -1 {
			t.Errorf("%s: DeadlineMissProb = %v without a deadline, want the -1 sentinel", name, m.DeadlineMissProb)
		}
	}
}

// TestPriceOverheadDecomposes pins the Metrics contract the advisor ranks on:
// the total is exactly the sum of its three components, and each component is
// a nonnegative finite rate.
func TestPriceOverheadDecomposes(t *testing.T) {
	for _, name := range Names() {
		st, _ := Lookup(name)
		for trial := 0; trial < 10; trial++ {
			w := drawPropertyWorkload(dist.Substream(4242, trial))
			m, err := st.Price(w)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, c := range []struct {
				label string
				v     float64
			}{
				{"checkpoint", m.CheckpointRate},
				{"sync-loss", m.SyncLossRate},
				{"rollback", m.RollbackRate},
			} {
				if c.v < 0 || math.IsNaN(c.v) || math.IsInf(c.v, 0) {
					t.Fatalf("%s trial %d: %s rate %v not a nonnegative finite rate (%s)",
						name, trial, c.label, c.v, describeWorkload(w))
				}
			}
			sum := m.CheckpointRate + m.SyncLossRate + m.RollbackRate
			if math.Abs(m.OverheadRate-sum) > propTol*math.Max(1, sum) {
				t.Fatalf("%s trial %d: OverheadRate %v != components sum %v", name, trial, m.OverheadRate, sum)
			}
		}
	}
}

// TestPriceWithMemoIsBitIdentical: for every registered discipline over 200
// randomized workloads, pricing through one shared Memo must equal pricing
// without it in every Metrics field, bit for bit. Each workload is priced
// without a deadline, with it, with θ, t_r and τ moved, with it again and
// with the next k: the deadline step must miss the d = 0 entry, the next two
// hit the async and every-k answers, and the last hits async's while
// sync-every-k's next k must miss.
func TestPriceWithMemoIsBitIdentical(t *testing.T) {
	for _, name := range Names() {
		st, _ := Lookup(name)
		t.Run(string(name), func(t *testing.T) {
			memo := &Memo{}
			for trial := 0; trial < 200; trial++ {
				w := drawPropertyWorkload(dist.Substream(8128, trial))
				noDeadline, moved, nextK := w, w, w
				noDeadline.Deadline = 0
				moved.ErrorRate *= 1.5
				moved.CheckpointCost *= 1.25
				moved.SyncInterval *= 0.75
				moved.OptimalSync = trial%2 == 0
				nextK.EveryK++
				for step, v := range []Workload{noDeadline, w, moved, w, nextK} {
					want, err := st.Price(v)
					if err != nil {
						t.Fatal(err)
					}
					v.Ctx = WithMemo(context.Background(), memo)
					got, err := st.Price(v)
					if err != nil {
						t.Fatal(err)
					}
					if !sameMetricsBits(got, want) {
						t.Fatalf("trial %d step %d: with the memo %+v, without %+v (%s)", trial, step, got, want, describeWorkload(v))
					}
				}
			}
		})
	}
}

// sameMetricsBits compares every Metrics field, floats by their bits.
func sameMetricsBits(a, b Metrics) bool {
	fa := []float64{a.OverheadRate, a.CheckpointRate, a.SyncLossRate, a.RollbackRate, a.MeanRollback, a.DeadlineMissProb, a.SyncInterval}
	fb := []float64{b.OverheadRate, b.CheckpointRate, b.SyncLossRate, b.RollbackRate, b.MeanRollback, b.DeadlineMissProb, b.SyncInterval}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Strategy == b.Strategy && a.EveryK == b.EveryK
}
