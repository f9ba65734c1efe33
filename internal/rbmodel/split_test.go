package rbmodel

import (
	"math"
	"testing"
)

func TestSplitChainMeanLMatchesWald(t *testing.T) {
	// The paper's Y_d visit counting and the optional-stopping identity are
	// two derivations of the same quantity; they must agree to solver
	// precision on every Table 1 case and every process.
	for _, c := range Table1Cases() {
		m := mustAsync(t, c.Params)
		wald, err := m.MeanLWald()
		if err != nil {
			t.Fatal(err)
		}
		for target := 0; target < 3; target++ {
			sc, err := NewSplitChain(c.Params, target)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sc.MeanL()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-wald[target]) > 1e-8*(1+wald[target]) {
				t.Errorf("%s P%d: split %v vs Wald %v", c.Name, target+1, got, wald[target])
			}
		}
	}
}

func TestSplitChainEpochsEqualGTimesEX(t *testing.T) {
	// Expected Y_d epochs before absorption = G·E[X].
	for _, c := range Table1Cases()[:3] {
		m := mustAsync(t, c.Params)
		ex, err := m.MeanX()
		if err != nil {
			t.Fatal(err)
		}
		sc, err := NewSplitChain(c.Params, 0)
		if err != nil {
			t.Fatal(err)
		}
		visits, err := sc.Chain().ExpectedVisits(0) // the entry is state 0
		if err != nil {
			t.Fatal(err)
		}
		epochs := 0.0
		for _, v := range visits {
			epochs += v
		}
		want := c.Params.TotalEventRate() * ex
		if math.Abs(epochs-want) > 1e-7*(1+want) {
			t.Errorf("%s: epochs %v, want G·E[X] = %v", c.Name, epochs, want)
		}
	}
}

func TestSplitChainRowsSumToOne(t *testing.T) {
	sc, err := NewSplitChain(Table1Cases()[1].Params, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := sc.Chain()
	for u := 0; u < sc.NumStates(); u++ {
		if d.IsAbsorbing(u) {
			continue
		}
		sum := 0.0
		for _, e := range d.Transitions(u) {
			sum += e.Rate
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("state %d: row sums to %v", u, sum)
		}
	}
}

func TestSplitChainStateCount(t *testing.T) {
	// n = 3, target t: intermediate masks = 2^3−1 = 7, of which those with
	// x_t=1 (4 masks, minus the all-ones which is not intermediate → 3) are
	// doubled; plus entry and two absorbing: 1 + (7−3) + 2·3 + 2 = 13.
	sc, err := NewSplitChain(Uniform(3, 1, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if sc.NumStates() != 13 {
		t.Fatalf("split state count = %d, want 13", sc.NumStates())
	}
}

func TestSplitChainSymmetricTargetsEqual(t *testing.T) {
	// Uniform rates: E[L_t] must be identical for every target.
	p := Uniform(3, 1.3, 0.8)
	var first float64
	for target := 0; target < 3; target++ {
		sc, err := NewSplitChain(p, target)
		if err != nil {
			t.Fatal(err)
		}
		l, err := sc.MeanL()
		if err != nil {
			t.Fatal(err)
		}
		if target == 0 {
			first = l
			continue
		}
		if math.Abs(l-first) > 1e-9 {
			t.Fatalf("target %d: E[L] = %v differs from %v", target, l, first)
		}
	}
}

func TestSplitChainInvalidTarget(t *testing.T) {
	if _, err := NewSplitChain(Uniform(3, 1, 1), 3); err == nil {
		t.Fatal("accepted out-of-range target")
	}
	if _, err := NewSplitChain(Uniform(3, 1, 1), -1); err == nil {
		t.Fatal("accepted negative target")
	}
}

func TestSplitChainDOT(t *testing.T) {
	sc, err := NewSplitChain(Uniform(3, 1, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	d := sc.DOT()
	if len(d) < 100 || d[:7] != "digraph" {
		t.Fatal("bad DOT")
	}
}

func TestTable1ShapeCriteria(t *testing.T) {
	// The qualitative findings the paper draws from Table 1, checked against
	// our exact solutions:
	// (a) E(X) and ΣE(L_i) are minimized when μ is balanced (cases 1, 3);
	// (b) the interaction distribution has little effect on E(X) compared
	//     with μ imbalance;
	// (c) E(L_i) ordering follows μ_i.
	cases := Table1Cases()
	ex := make([]float64, len(cases))
	sumL := make([]float64, len(cases))
	for i, c := range cases {
		m := mustAsync(t, c.Params)
		v, err := m.MeanX()
		if err != nil {
			t.Fatal(err)
		}
		ex[i] = v
		ls, err := m.MeanLWald()
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range ls {
			sumL[i] += l
		}
	}
	for _, balanced := range []int{0, 2} {
		for _, skewed := range []int{1, 3, 4} {
			if ex[balanced] >= ex[skewed] {
				t.Errorf("E[X]: balanced case %d (%v) not below skewed case %d (%v)",
					balanced+1, ex[balanced], skewed+1, ex[skewed])
			}
			if sumL[balanced] >= sumL[skewed] {
				t.Errorf("ΣE[L]: balanced case %d (%v) not below skewed case %d (%v)",
					balanced+1, sumL[balanced], skewed+1, sumL[skewed])
			}
		}
	}
	// (b): cases 1 vs 3 differ only in λ distribution; gap must be small
	// relative to the μ-imbalance gap (case 1 vs 2).
	lambdaGap := math.Abs(ex[0] - ex[2])
	muGap := math.Abs(ex[1] - ex[0])
	if lambdaGap > 0.5*muGap {
		t.Errorf("λ-distribution gap %v not small vs μ-imbalance gap %v", lambdaGap, muGap)
	}
}
