package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"text/tabwriter"

	"recoveryblocks/internal/strategy"
)

// CheckKind labels how a cross-check is judged. The kinds are defined by the
// strategy layer (they are part of each discipline's estimator contract);
// this package applies the batch-wide judging policy.
type CheckKind = strategy.CheckKind

const (
	// KindBinomZ is a score test for a Bernoulli proportion: the standard
	// error comes from the model probability, √(p(1−p)/n), not from the
	// sample. Essential for rare events — a generous deadline can make
	// every simulated indicator zero, which leaves a plain z-test with no
	// sample spread to divide by even though the estimate is exactly what
	// the model predicts.
	KindBinomZ = strategy.KindBinomZ
	// KindBatchT is a one-sample t-test over independent replicate (batch)
	// means — used where within-run samples are autocorrelated.
	KindBatchT = strategy.KindBatchT
)

// judgeMeasurement converts a raw strategy-layer measurement into a reported
// Check at the given critical value.
func judgeMeasurement(m strategy.Measurement, crit float64) Check {
	c := Check{
		Scenario: m.Scenario,
		Name:     m.Name,
		Kind:     m.Kind,
		Ref:      m.Ref,
		Est:      m.W.Mean(),
		SE:       m.W.StdErr(),
		N:        m.W.N(),
		DOF:      m.DOF,
		Crit:     crit,
	}
	if m.Kind == KindBinomZ {
		// Score test: H0's own variance, so an all-zero indicator sample
		// against a tiny-but-positive model probability scores ~0 instead
		// of failing as degenerate.
		c.SE = math.Sqrt(m.Ref * (1 - m.Ref) / float64(m.W.N()))
		c.CIHalf = crit * c.SE
		if c.SE == 0 {
			// ref is exactly 0 or 1: under H0 the estimate must match it.
			c.Stat = -1
			c.Pass = c.Est == c.Ref
			return c
		}
		c.Stat = math.Abs((c.Est - m.Ref) / c.SE)
		c.Pass = c.Stat <= crit
		return c
	}
	c.CIHalf = crit * c.SE
	w := m.W
	z, err := w.ZScoreAgainst(m.Ref)
	if err != nil {
		// Degenerate sample (no spread to test against): only an exact
		// match passes; the sentinel keeps the report JSON-encodable.
		c.Stat = -1
		c.Pass = c.Est == c.Ref
		return c
	}
	c.Stat = math.Abs(z)
	c.Pass = c.Stat <= crit
	return c
}

// Check is one judged model↔simulator comparison.
type Check struct {
	Scenario string    `json:"scenario"`
	Name     string    `json:"name"`
	Kind     CheckKind `json:"kind"`
	Ref      float64   `json:"ref"`     // exact model value
	Est      float64   `json:"est"`     // simulator estimate
	SE       float64   `json:"se"`      // estimator standard error
	CIHalf   float64   `json:"ci_half"` // crit × SE: the derived tolerance
	Stat     float64   `json:"stat"`    // |z| or |t|; -1 = degenerate sample
	Crit     float64   `json:"crit"`    // critical value applied
	N        int       `json:"n"`       // sample size (batch count for batch-t)
	DOF      int       `json:"dof"`     // batch-means degrees of freedom (batch-t)
	Pass     bool      `json:"pass"`
}

// Summary echoes one scenario's resolved parameters into the report, so a
// report is interpretable without the spec file that produced it.
type Summary struct {
	Name           string    `json:"name"`
	N              int       `json:"n"`
	Mu             []float64 `json:"mu"`
	Rho            float64   `json:"rho"`
	SyncInterval   float64   `json:"sync_interval"` // resolved τ
	OptimalSync    bool      `json:"optimal_sync,omitempty"`
	EveryK         int       `json:"sync_every_k,omitempty"` // resolved k (sync-every-k requested)
	CheckpointCost float64   `json:"checkpoint_cost"`
	Deadline       float64   `json:"deadline,omitempty"`
	ErrorRate      float64   `json:"error_rate"`
	PLocal         float64   `json:"p_local"`
	Reps           int       `json:"reps"`
	Seed           int64     `json:"seed"`
}

// Result is one scenario's full outcome: parameters, advice, cross-checks.
// A quarantined scenario — one whose evaluation failed even after every
// recovery-block alternate — carries only the spec echo and Error.
type Result struct {
	Summary  Summary `json:"summary"`
	Advice   Advice  `json:"advice"`
	Checks   []Check `json:"checks"`
	Failures int     `json:"failures"`
	// Error is the quarantine reason; empty for evaluated scenarios.
	Error string `json:"error,omitempty"`
}

// Quarantined reports whether the scenario failed evaluation and was kept in
// the report as a stub.
func (r Result) Quarantined() bool { return r.Error != "" }

// Report is the outcome of a batch run — the machine-readable artifact
// `rbrepro scenario -json` emits and the golden files pin.
type Report struct {
	Alpha       float64  `json:"alpha"` // family-wise error rate requested
	Crit        float64  `json:"crit"`  // Bonferroni critical value applied to every z
	K           int      `json:"statistical_comparisons"`
	Failures    int      `json:"failures"`
	Quarantined int      `json:"quarantined,omitempty"` // scenarios kept as error stubs
	Scenarios   []Result `json:"scenarios"`
}

// Degraded counts the scenarios whose outcome is weaker than a clean exact
// evaluation: quarantined, or advised with non-exact confidence. The CLI maps
// a positive count to its degraded exit code.
func (r *Report) Degraded() int {
	n := r.Quarantined
	for _, res := range r.Scenarios {
		if !res.Quarantined() && res.Advice.Confidence != ConfidenceExact {
			n++
		}
	}
	return n
}

// Failed returns the checks that did not pass, across all scenarios.
func (r *Report) Failed() []Check {
	var out []Check
	for _, res := range r.Scenarios {
		for _, c := range res.Checks {
			if !c.Pass {
				out = append(out, c)
			}
		}
	}
	return out
}

// JSON renders the machine-readable report.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Format renders the human-readable report: per scenario, the advisor's
// ranking with the overhead decomposition, then the cross-check rows tying
// the priced model values to simulated behavior.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario engine: %d scenario(s), %d cross-check(s)\n", len(r.Scenarios), r.K)
	fmt.Fprintf(&b, "family-wise alpha = %g  =>  |z| critical value %.3f (Bonferroni over %d)\n",
		r.Alpha, r.Crit, r.K)
	for _, res := range r.Scenarios {
		s := res.Summary
		fmt.Fprintf(&b, "\n--- %s ---\n", s.Name)
		if res.Quarantined() {
			fmt.Fprintf(&b, "QUARANTINED: %s\n", res.Error)
			continue
		}
		fmt.Fprintf(&b, "n=%d  mu=%s  rho=%.4g  tau=%.4g%s", s.N, fvec(s.Mu), s.Rho, s.SyncInterval, optMark(s.OptimalSync))
		if s.EveryK > 0 {
			fmt.Fprintf(&b, "  k=%d", s.EveryK)
		}
		fmt.Fprintf(&b, "  t_r=%.4g  theta=%.4g", s.CheckpointCost, s.ErrorRate)
		if s.Deadline > 0 {
			fmt.Fprintf(&b, "  deadline=%.4g", s.Deadline)
		}
		fmt.Fprintf(&b, "  reps=%d\n", s.Reps)

		w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
		fmt.Fprintln(w, "strategy\toverhead/t\tckpt\tsync\trollback\tE[rollback]\tP(miss)")
		for _, m := range res.Advice.Ranking {
			miss := "-"
			if m.DeadlineMissProb >= 0 {
				miss = fmt.Sprintf("%.6f", m.DeadlineMissProb)
			}
			fmt.Fprintf(w, "%s\t%.6f\t%.6f\t%.6f\t%.6f\t%.4f\t%s\n",
				m.Strategy, m.OverheadRate, m.CheckpointRate, m.SyncLossRate, m.RollbackRate, m.MeanRollback, miss)
		}
		w.Flush()
		fmt.Fprintf(&b, "winner: %s (margin %.6f/t; runner-up costs %.1f%% more)\n",
			res.Advice.Winner, res.Advice.Margin, 100*res.Advice.MarginRel)
		if res.Advice.Confidence != ConfidenceExact {
			fmt.Fprintf(&b, "confidence: %s — fallback routes: %s\n",
				res.Advice.Confidence, strings.Join(res.Advice.FallbackRoutes, ", "))
		}

		w = tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
		fmt.Fprintln(w, "check\tmodel\tsimulated\t±tol\tstat\tverdict")
		for _, c := range res.Checks {
			stat := fmt.Sprintf("z=%.2f", c.Stat)
			switch {
			case c.Stat < 0:
				stat = "degenerate"
			case c.Kind == KindBatchT:
				stat = fmt.Sprintf("t=%.2f", c.Stat)
			}
			verdict := "ok"
			if !c.Pass {
				verdict = "FAIL"
			}
			fmt.Fprintf(w, "%s\t%.6f\t%.6f\t%.2e\t%s\t%s\n", c.Name, c.Ref, c.Est, c.CIHalf, stat, verdict)
		}
		w.Flush()
	}
	if r.Failures == 0 {
		b.WriteString("\nall scenarios cross-check clean: every advised number agrees with its simulator\n")
	} else {
		fmt.Fprintf(&b, "\n%d CROSS-CHECK DISAGREEMENT(S) — do not trust the advice; see rows marked FAIL\n", r.Failures)
	}
	if r.Quarantined > 0 {
		fmt.Fprintf(&b, "%d SCENARIO(S) QUARANTINED — evaluation failed on every route; their advice is missing\n", r.Quarantined)
	}
	return b.String()
}

// fvec renders a rate vector compactly: (1, 1.5, 0.5).
func fvec(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func optMark(optimal bool) string {
	if optimal {
		return " (optimal)"
	}
	return ""
}
