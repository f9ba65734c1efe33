package strategy

import (
	"math"
	"strings"
	"testing"
)

// FuzzParseStrategy pins the -strategy CLI flag's parsing seam: whatever
// string a user passes, Parse must never panic, must accept exactly the
// registered catalog, and must return a self-diagnosing error for everything
// else. (cmd/rbrepro routes both `xval -strategy` and `scenario -strategy`
// through this function.)
func FuzzParseStrategy(f *testing.F) {
	for _, n := range Names() {
		f.Add(string(n))
	}
	f.Add("")
	f.Add("ASYNC")
	f.Add("sync-every-")
	f.Add("sync every k")
	f.Add(strings.Repeat("x", 1<<10))
	f.Fuzz(func(t *testing.T, s string) {
		name, err := Parse(s)
		if _, registered := Lookup(Name(s)); registered {
			if err != nil || string(name) != s {
				t.Fatalf("registered name %q rejected: %v", s, err)
			}
			return
		}
		if err == nil {
			t.Fatalf("unregistered name %q accepted as %q", s, name)
		}
		if !strings.Contains(err.Error(), "registered:") {
			t.Fatalf("error for %q does not list the catalog: %v", s, err)
		}
	})
}

// FuzzMeanMaxErlang holds the every-k commit-phase integral E[max_i
// Erlang(k, μ_i)] to the inclusion–exclusion closed form for n ≤ 6 and
// k ≤ 16, with rates folded into [0.1, 4.1). The tolerance is relative
// above a mean of 1, where the per-panel roundoff floor 50·ε·|K15| of the
// quadrature grows with the integral.
func FuzzMeanMaxErlang(f *testing.F) {
	f.Add(uint8(3), uint8(1), 1.5, 1.0, 0.5, 0.0, 0.0, 0.0)
	f.Add(uint8(6), uint8(16), 0.1, 4.0, 2.2, 0.7, 3.3, 1.9)
	f.Add(uint8(1), uint8(8), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, nb, kb uint8, r0, r1, r2, r3, r4, r5 float64) {
		n, k := 1+int(nb)%6, 1+int(kb)%16
		mu := make([]float64, n)
		for i, r := range []float64{r0, r1, r2, r3, r4, r5}[:n] {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				t.Skip("non-finite rate seed")
			}
			mu[i] = 0.1 + 4*(math.Abs(r)-math.Floor(math.Abs(r)))
		}
		got, err := meanMaxErlang(k, mu)
		if err != nil {
			t.Fatalf("k=%d μ=%v: %v", k, mu, err)
		}
		want := exactMeanMaxErlang(k, mu)
		if math.Abs(got-want) > meanMaxErlangTol(k)*math.Max(1, want) {
			t.Fatalf("k=%d μ=%v: integral %v vs closed form %v (error %.3g)", k, mu, got, want, math.Abs(got-want))
		}
	})
}
