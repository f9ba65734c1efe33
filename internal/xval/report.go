package xval

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"text/tabwriter"

	"recoveryblocks/internal/stats"
	"recoveryblocks/internal/strategy"
)

// CheckKind labels how a comparison is judged. The kinds are defined by the
// strategy layer (each discipline's XValChecks declares which test its
// estimators support); this package applies the grid-wide judging policy.
type CheckKind = strategy.CheckKind

const (
	// KindTwoSampleZ compares two independent Monte Carlo means (both sides
	// carry sampling error).
	KindTwoSampleZ = strategy.KindTwoSampleZ
	// KindBatchT is a one-sample t-test over independent replicate (batch)
	// means — used where within-run samples are autocorrelated, so the
	// standard error must come from iid batches and the small batch count
	// calls for a Student-t critical value.
	KindBatchT = strategy.KindBatchT
	// KindBinomZ is a score test for a Bernoulli proportion: the standard
	// error comes from the model probability, √(p(1−p)/n), so rare events
	// with an all-zero indicator sample are judged against H0's own
	// variance instead of failing as degenerate.
	KindBinomZ = strategy.KindBinomZ
	// KindNumeric compares two exact solver routes to the same quantity with
	// a relative round-off tolerance.
	KindNumeric = strategy.KindNumeric
)

// judgeMeasurement converts a raw strategy-layer measurement (the registry's
// XValChecks output) into a reported Check at the given critical value
// (statistical kinds) or relative tolerance (numeric kind). It judges every
// kind of the strategy.Measurement contract.
func judgeMeasurement(m strategy.Measurement, crit, relTol float64) Check {
	c := Check{
		Scenario: m.Scenario,
		Name:     m.Name,
		Kind:     m.Kind,
		Ref:      m.Ref,
		DOF:      m.DOF,
	}
	if m.Kind == KindNumeric {
		c.Est = m.Est
		c.Crit = relTol
		c.Stat = relDiff(m.Ref, m.Est)
		c.Pass = c.Stat <= relTol
		c.Overlap = c.Pass
		return c
	}
	w := m.W
	c.Est = w.Mean()
	c.N = w.N()
	c.Crit = crit
	if m.Kind == KindBinomZ {
		// Score test under H0's own variance (see the kind comment).
		c.SE = math.Sqrt(m.Ref * (1 - m.Ref) / float64(w.N()))
		c.CIHalf = crit * c.SE
		if c.SE == 0 {
			// Ref is exactly 0 or 1: under H0 the estimate must match it.
			c.Stat = -1
			c.Pass = c.Est == c.Ref
			c.Overlap = c.Pass
			return c
		}
		c.Stat = math.Abs((c.Est - m.Ref) / c.SE)
		c.Pass = c.Stat <= crit
		c.Overlap = c.Pass
		return c
	}
	var z float64
	var zerr error
	var refHalf float64
	if m.Kind == KindTwoSampleZ {
		c.Ref = m.RefW.Mean()
		refHalf = m.RefW.CIHalf(crit)
		refSE := m.RefW.StdErr()
		estSE := w.StdErr()
		c.SE = math.Sqrt(refSE*refSE + estSE*estSE)
		z, zerr = stats.TwoSampleZ(&w, m.RefW)
	} else {
		c.SE = w.StdErr()
		z, zerr = w.ZScoreAgainst(m.Ref)
	}
	c.CIHalf = crit * c.SE
	if zerr != nil {
		// Degenerate sample (stats.ErrDegenerate: no spread to test
		// against): only an exact match passes; the sentinel keeps the
		// report JSON-encodable (no ±Inf).
		c.Stat = -1
		c.Pass = c.Est == c.Ref
		c.Overlap = c.Pass
		return c
	}
	c.Stat = math.Abs(z)
	c.Pass = c.Stat <= crit
	c.Overlap = stats.IntervalsOverlap(c.Ref, refHalf, c.Est, w.CIHalf(crit))
	return c
}

// relDiff returns |a−b| / max(|a|, |b|, 1) — a relative difference that
// degrades gracefully to absolute near zero.
func relDiff(a, b float64) float64 {
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return math.Abs(a-b) / scale
}

// Check is one judged comparison of the report.
type Check struct {
	Scenario string    `json:"scenario"`
	Name     string    `json:"name"`
	Kind     CheckKind `json:"kind"`
	Ref      float64   `json:"ref"`     // model / reference value
	Est      float64   `json:"est"`     // estimate under test
	SE       float64   `json:"se"`      // combined standard error (statistical kinds)
	CIHalf   float64   `json:"ci_half"` // crit × SE: the derived tolerance
	Stat     float64   `json:"stat"`    // |z| or |t| score, or relative difference (numeric); -1 = degenerate
	Crit     float64   `json:"crit"`    // critical value (or relative tolerance)
	N        int       `json:"n"`       // estimator sample size (batch count for batch-t)
	DOF      int       `json:"dof"`     // batch-means degrees of freedom (batch-t only)
	Pass     bool      `json:"pass"`
	Overlap  bool      `json:"overlap"` // CI-overlap equivalence (coarser than the z-test)
}

// Report is the outcome of a grid run.
type Report struct {
	Alpha    float64 `json:"alpha"`   // family-wise error rate requested
	Crit     float64 `json:"crit"`    // Bonferroni critical value applied to every z
	RelTol   float64 `json:"rel_tol"` // exact-vs-exact relative tolerance
	K        int     `json:"statistical_comparisons"`
	Failures int     `json:"failures"`
	Checks   []Check `json:"checks"`
}

// Failed returns the checks that did not pass.
func (r *Report) Failed() []Check {
	var out []Check
	for _, c := range r.Checks {
		if !c.Pass {
			out = append(out, c)
		}
	}
	return out
}

// JSON renders the machine-readable report.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Format renders the human-readable report: one row per comparison with the
// derived tolerance next to the observed discrepancy.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-validation: model vs simulator, %d checks (%d statistical)\n", len(r.Checks), r.K)
	fmt.Fprintf(&b, "family-wise alpha = %g  =>  |z| critical value %.3f (Bonferroni over %d);  exact-route rel tol %g\n\n",
		r.Alpha, r.Crit, r.K, r.RelTol)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "scenario\tcheck\tmodel\testimate\t±tol\tstat\tverdict")
	for _, c := range r.Checks {
		tol := fmt.Sprintf("%.2e", c.CIHalf)
		stat := fmt.Sprintf("z=%.2f", c.Stat)
		switch {
		case c.Kind == KindNumeric:
			tol = fmt.Sprintf("rel %.0e", c.Crit)
			stat = fmt.Sprintf("rel=%.1e", c.Stat)
		case c.Stat < 0:
			stat = "degenerate"
		case c.Kind == KindBatchT:
			stat = fmt.Sprintf("t=%.2f", c.Stat)
		}
		verdict := "ok"
		if !c.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "%s\t%s\t%.6f\t%.6f\t%s\t%s\t%s\n",
			c.Scenario, c.Name, c.Ref, c.Est, tol, stat, verdict)
	}
	w.Flush()
	if r.Failures == 0 {
		b.WriteString("\nall model/simulator pairs agree within derived confidence intervals\n")
	} else {
		fmt.Fprintf(&b, "\n%d DISAGREEMENT(S) — model and simulator have diverged; see rows marked FAIL\n", r.Failures)
	}
	return b.String()
}
