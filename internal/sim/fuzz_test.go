package sim

import (
	"math"
	"testing"

	"recoveryblocks/internal/dist"
	"recoveryblocks/internal/rbmodel"
)

// FuzzStateTables checks the per-state jump tables over random rates, zero
// interaction rates included, at n ≤ 6:
//
//   - each state's realized category probabilities equal its thinned
//     weights (interactions of two unmarked processes zeroed) within 2^-48
//     per column;
//   - no interaction of two unmarked processes is reachable;
//   - every stored destination row is that of (s | or) &^ and for the
//     stored category;
//   - every stored rate class is the destination's, and its rate is the
//     destination's thinned total g_eff.
func FuzzStateTables(f *testing.F) {
	f.Add(uint8(3), int64(1))
	f.Add(uint8(1), int64(7))
	f.Add(uint8(6), int64(1983))
	f.Add(uint8(5), int64(-4))
	f.Fuzz(func(t *testing.T, nIn uint8, seed int64) {
		n := 1 + int(nIn%6)
		rng := dist.NewStream(seed)
		p := rbmodel.Uniform(n, 1, 0)
		for i := range p.Mu {
			p.Mu[i] = 0.01 + 3*rng.Float64()
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				l := 0.0
				if rng.Float64() < 0.7 {
					l = 5 * rng.Float64()
				}
				p.Lambda[i][j], p.Lambda[j][i] = l, l
			}
		}
		cats, err := newEventCats(p)
		if err != nil {
			t.Fatal(err)
		}
		// Build over tables left by a wider call first, as the cache does.
		wide, err := newEventCats(rbmodel.Uniform(6, 1, 1))
		if err != nil {
			t.Fatal(err)
		}
		tab := &jumpTables{}
		tab.build(&wide)
		tab.build(&cats)
		checkStateTables(t, &cats, tab)
	})
}

func checkStateTables(t *testing.T, cats *eventCats, tab *jumpTables) {
	t.Helper()
	k := len(cats.upd)
	k2 := tab.k
	unmarkedPair := func(s, c int) bool { u := cats.upd[c]; return u.and != 0 && s&u.and == 0 }
	geff := func(s int) float64 {
		g := 0.0
		for c, w := range cats.rates {
			if !unmarkedPair(s, c) {
				g += w
			}
		}
		return g
	}
	// checkJump validates one packed outcome of state s and returns its
	// category.
	checkJump := func(s int, o uint32) int {
		c := int(o >> jumpCatShift & jumpCatMask)
		if c >= k {
			t.Fatalf("state %b: category %d out of range", s, c)
		}
		row := int(o & (1<<jumpCatShift - 1))
		dest := row / k
		if dest*k != row {
			t.Fatalf("state %b, category %d: row offset %d is not a row start", s, c, row)
		}
		if u := cats.upd[c]; dest != (s|u.or)&^u.and {
			t.Fatalf("state %b, category %d: destination %b, want %b", s, c, dest, (s|u.or)&^u.and)
		}
		cls := int(o >> jumpClassShift)
		if cls != int(tab.classOf[dest]) {
			t.Fatalf("state %b, category %d: class %d, destination's is %d", s, c, cls, tab.classOf[dest])
		}
		if g := geff(dest); math.Abs(tab.rate[cls]-g) > 1e-12*g {
			t.Fatalf("destination %b: class rate %v, g_eff %v", dest, tab.rate[cls], g)
		}
		return c
	}
	if g := geff(len(tab.geff) - 1); tab.rate[tab.lineClass] != g {
		t.Fatalf("line class rate %v, want %v", tab.rate[tab.lineClass], g)
	}
	prob := make([]float64, k)
	for s := range len(tab.geff) {
		clear(prob)
		for _, col := range tab.cols[s*k2:][:k2] {
			acc := float64(col.thresh) / (1 << 48)
			if col.thresh > 0 {
				c := checkJump(s, col.acc)
				if unmarkedPair(s, c) {
					t.Fatalf("state %b: unmarked-pair category %d reachable on accept", s, c)
				}
				prob[c] += acc / float64(k2)
			}
			if col.thresh < 1<<48 {
				c := checkJump(s, col.red)
				if unmarkedPair(s, c) {
					t.Fatalf("state %b: unmarked-pair category %d reachable on redirect", s, c)
				}
				prob[c] += (1 - acc) / float64(k2)
			}
		}
		g := geff(s)
		for c, w := range cats.rates {
			if unmarkedPair(s, c) {
				w = 0
			}
			if d := math.Abs(prob[c] - w/g); d > float64(k2)/(1<<48) {
				t.Fatalf("state %b, category %d: realized probability %v, thinned weight %v (off by %.3g)", s, c, prob[c], w/g, d)
			}
		}
	}
}
