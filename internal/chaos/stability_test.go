package chaos

import (
	"encoding/json"
	"strings"
	"testing"

	"recoveryblocks/internal/obs"
	"recoveryblocks/internal/scenario"
)

// stableScenario is a hand-built workload with a wide clean margin (async
// wins by ~110% relative) that no default-magnitude perturbation flips.
func stableScenario() scenario.Scenario {
	return scenario.Scenario{
		Name:           "chaos-test/stable",
		Mu:             []float64{1, 1},
		Lambda:         [][]float64{{0, 0.05}, {0.05, 0}},
		SyncInterval:   1,
		EveryK:         1,
		CheckpointCost: 0.01,
		ErrorRate:      0.02,
		PLocal:         0.5,
		Strategies: []scenario.Strategy{
			scenario.StrategyAsync, scenario.StrategySync,
			scenario.StrategyPRP, scenario.StrategySyncEveryK,
		},
		Reps: 4000,
		Seed: 1983,
	}
}

// knifeEdgeScenario is a hand-built near-tie: at checkpoint cost 0.048 the
// top two strategies price within ~0.2% of each other, so default-magnitude
// perturbations flip the winner in almost every draw.
func knifeEdgeScenario() scenario.Scenario {
	sc := baseScenario()
	sc.Name = "chaos-test/knife-edge"
	sc.Mu = []float64{1, 1, 1}
	sc.Lambda = [][]float64{{0, 0.5, 0.5}, {0.5, 0, 0.5}, {0.5, 0.5, 0}}
	sc.Deadline = 0
	sc.CheckpointCost = 0.048
	return sc
}

func TestRunStableScenarioIsCleanAtDefaults(t *testing.T) {
	rep, err := Run([]scenario.Scenario{stableScenario()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unstable != 0 || rep.KnifeEdge != 0 {
		t.Fatalf("stable scenario judged unstable=%d knife-edge=%d", rep.Unstable, rep.KnifeEdge)
	}
	if rep.Cells != len(DefaultStacks()) {
		t.Fatalf("Cells = %d, want one per default stack (%d)", rep.Cells, len(DefaultStacks()))
	}
	for _, c := range rep.Scenarios[0].Cells {
		if c.Flips != 0 {
			t.Errorf("stack %s flipped %d/%d draws on a 110%%-margin winner", c.Stack, c.Flips, c.Draws)
		}
	}
}

// TestRunGateFiresOnNearTie pins the gate mechanism end to end: with zero
// flip tolerance and the knife-edge boundary disabled, a near-tie scenario
// must come back unstable — the same verdict path the CI corpus gate and the
// CLI's non-zero exit ride on.
func TestRunGateFiresOnNearTie(t *testing.T) {
	rep, err := Run([]scenario.Scenario{knifeEdgeScenario()}, Options{
		FlipThreshold: -1, // zero tolerance: any flip is significant
		MarginFloor:   -1, // boundary disabled: near-ties gate too
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unstable == 0 {
		t.Fatal("near-tie scenario with zero tolerance and no margin floor judged stable")
	}
	var sawDegenerate bool
	for _, c := range rep.Scenarios[0].Cells {
		if c.Flips > 0 {
			if c.Stat != -1 {
				t.Errorf("stack %s: zero-threshold cell Stat = %v, want the -1 degenerate sentinel", c.Stack, c.Stat)
			}
			if !c.Significant || c.KnifeEdge || !c.Unstable {
				t.Errorf("stack %s: flips=%d but significant=%v knifeEdge=%v unstable=%v",
					c.Stack, c.Flips, c.Significant, c.KnifeEdge, c.Unstable)
			}
			sawDegenerate = true
		}
	}
	if !sawDegenerate {
		t.Fatal("no cell flipped on a 0.2%-margin near-tie")
	}
}

// TestRunNearTieIsKnifeEdgeAtDefaults pins the adaptive boundary: the same
// near-tie that gates with the boundary disabled is forgiven at defaults,
// because a 25%-magnitude perturbation flipping a 0.2%-margin winner is the
// expected geometry of a near-tie, not a pricing pathology.
func TestRunNearTieIsKnifeEdgeAtDefaults(t *testing.T) {
	rep, err := Run([]scenario.Scenario{knifeEdgeScenario()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unstable != 0 {
		t.Fatalf("near-tie gated at defaults (unstable=%d), want knife-edge verdicts", rep.Unstable)
	}
	if rep.KnifeEdge == 0 {
		t.Fatal("near-tie produced no knife-edge verdict at defaults")
	}
	for _, c := range rep.Scenarios[0].Cells {
		if c.Floor != DefaultMagnitude {
			t.Errorf("stack %s: floor = %v, want the stack magnitude %v", c.Stack, c.Floor, DefaultMagnitude)
		}
	}
}

// TestRunIsWorkerCountInvariant pins the determinism contract at the package
// level: the full report is bit-identical for every worker count.
func TestRunIsWorkerCountInvariant(t *testing.T) {
	scs, err := Corpus(6, 1983)
	if err != nil {
		t.Fatal(err)
	}
	var ref []byte
	for _, workers := range []int{1, 4, 16} {
		rep, err := Run(scs, Options{Workers: workers, Draws: 8})
		if err != nil {
			t.Fatal(err)
		}
		got, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			continue
		}
		if string(got) != string(ref) {
			t.Fatalf("report differs between workers=1 and workers=%d", workers)
		}
	}
}

// TestRunSolvesEachRateStructureOnce pins the work the per-scenario memo
// saves. Under the default stacks, error-spike and cost-inflate draws leave
// μ, λ and d as they were, so only the clean advisement and the burst and
// straggler draws solve the asynchronous model: one pass through the moment
// ladder each, 1 + 2·Draws per scenario. The sweep runs twice: a memo that leaked across
// scenarios or runs would solve fewer; one that missed would solve all
// 1 + 4·Draws.
func TestRunSolvesEachRateStructureOnce(t *testing.T) {
	scs, err := Corpus(12, 1983)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 2; run++ {
		reg := obs.Enable()
		if _, err := Run(scs, Options{Workers: 4}); err != nil {
			t.Fatal(err)
		}
		obs.Disable()
		want := int64(len(scs) * (1 + 2*DefaultDraws))
		if got := reg.Counter("markov_solve_kron_total").Value(); got != want {
			t.Errorf("run %d: markov_solve_kron_total = %d, want %d (12 × 65)", run, got, want)
		}
		if got, want := reg.Counter("scenario_advise_total").Value(), int64(len(scs)*(1+4*DefaultDraws)); got != want {
			t.Errorf("run %d: scenario_advise_total = %d, want %d", run, got, want)
		}
	}
}

func TestRunRejects(t *testing.T) {
	valid := []scenario.Scenario{stableScenario()}
	invalid := stableScenario()
	invalid.Mu = nil

	cases := map[string]struct {
		scs []scenario.Scenario
		opt Options
	}{
		"empty batch":       {nil, Options{}},
		"invalid scenario":  {[]scenario.Scenario{invalid}, Options{}},
		"one draw":          {valid, Options{Draws: 1}},
		"alpha too big":     {valid, Options{Alpha: 1}},
		"alpha negative":    {valid, Options{Alpha: -0.5}},
		"threshold >= 1":    {valid, Options{FlipThreshold: 1}},
		"empty stack":       {valid, Options{Stacks: []Stack{{}}}},
		"magnitude too big": {valid, Options{Stacks: []Stack{{{Perturbation: mustLookup("burst"), Magnitude: MaxMagnitude + 1}}}}},
	}
	for name, c := range cases {
		if _, err := Run(c.scs, c.opt); err == nil {
			t.Errorf("%s: Run accepted", name)
		}
	}
}

func mustLookup(name string) Perturbation {
	p, ok := Lookup(name)
	if !ok {
		panic(name)
	}
	return p
}

func TestReportJSONRoundTripsAndFormatMentionsVerdicts(t *testing.T) {
	scs := []scenario.Scenario{stableScenario(), knifeEdgeScenario()}
	rep, err := Run(scs, Options{Draws: 8})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.Cells != rep.Cells || back.Unstable != rep.Unstable || len(back.Scenarios) != len(rep.Scenarios) {
		t.Fatal("round-tripped report lost fields")
	}

	text := rep.Format()
	for _, want := range []string{
		"chaos-test/stable", "chaos-test/knife-edge",
		"error-spike:0.25", "straggler:0.25",
		"flip threshold", "all rankings stable",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Format() missing %q", want)
		}
	}
}

// TestRunSensitivityTracksTargetedStrategy sanity-checks the per-strategy
// decomposition: cost-inflate moves checkpoint-bearing overheads, and the
// deltas it reports are nonnegative by construction.
func TestRunSensitivityTracksTargetedStrategy(t *testing.T) {
	stacks, err := ParseStacks("cost-inflate:1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run([]scenario.Scenario{stableScenario()}, Options{Stacks: stacks, Draws: 8})
	if err != nil {
		t.Fatal(err)
	}
	cell := rep.Scenarios[0].Cells[0]
	if len(cell.Sensitivity) != 4 {
		t.Fatalf("sensitivity rows = %d, want one per strategy", len(cell.Sensitivity))
	}
	var moved bool
	for _, s := range cell.Sensitivity {
		if s.MeanAbsDelta < 0 || s.MaxRelDelta < 0 {
			t.Errorf("%s: negative sensitivity %v/%v", s.Strategy, s.MeanAbsDelta, s.MaxRelDelta)
		}
		if s.MeanAbsDelta > 0 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("cost-inflate:1 moved no strategy's overhead")
	}
}
