package scenario

import (
	"encoding/json"
	"strings"
	"testing"

	"recoveryblocks/internal/strategy"
)

// testBatch is a small two-scenario batch covering every check family.
func testBatch() []Scenario {
	web := Scenario{
		Name:           "web",
		Mu:             []float64{1, 1, 1},
		Lambda:         uniformLambda(3, 1),
		SyncInterval:   1,
		CheckpointCost: 0.05,
		Deadline:       3,
		ErrorRate:      0.05,
		PLocal:         0.5,
		Strategies:     AllStrategies(),
		Reps:           4000,
		Seed:           1983,
	}
	asym := Scenario{
		Name:           "asym",
		Mu:             []float64{1.5, 1.0, 0.5},
		Lambda:         uniformLambda(3, 1),
		SyncInterval:   2,
		CheckpointCost: 0.02,
		ErrorRate:      0.1,
		PLocal:         0.5,
		Strategies:     AllStrategies(),
		Reps:           4000,
		Seed:           2083,
	}
	return []Scenario{web, asym}
}

func TestRunBatchPassesAndAdvises(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Monte Carlo cross-checks")
	}
	rep, err := Run(testBatch(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 0 {
		for _, c := range rep.Failed() {
			t.Errorf("FAIL %s/%s: ref %v est %v stat %v crit %v", c.Scenario, c.Name, c.Ref, c.Est, c.Stat, c.Crit)
		}
		t.Fatalf("%d cross-check failures", rep.Failures)
	}
	if len(rep.Scenarios) != 2 {
		t.Fatalf("%d scenario results", len(rep.Scenarios))
	}
	// web has a deadline: async gets meanX + deadlineMiss; asym does not.
	if got := len(rep.Scenarios[0].Checks); got != 7 {
		t.Fatalf("web has %d checks, want 7 (2 async + 3 sync + 2 prp)", got)
	}
	if got := len(rep.Scenarios[1].Checks); got != 6 {
		t.Fatalf("asym has %d checks, want 6", got)
	}
	if rep.K != 13 {
		t.Fatalf("K = %d, want 13", rep.K)
	}
	for _, res := range rep.Scenarios {
		if res.Advice.Winner == "" {
			t.Fatalf("scenario %s has no advised winner", res.Summary.Name)
		}
		if len(res.Advice.Ranking) != 3 {
			t.Fatalf("scenario %s ranking incomplete", res.Summary.Name)
		}
	}
}

func TestRunIsWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Monte Carlo cross-checks twice")
	}
	a, err := Run(testBatch(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testBatch(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatal("report differs between Workers=1 and Workers=4")
	}
}

func TestRunReportJSONRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Monte Carlo cross-checks")
	}
	batch := testBatch()[:1]
	batch[0].Reps = 2000
	rep, err := Run(batch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.K != rep.K || len(back.Scenarios) != len(rep.Scenarios) {
		t.Fatal("round-tripped report lost fields")
	}
	if back.Scenarios[0].Advice.Winner == "" {
		t.Fatal("round-tripped report lost the advised winner")
	}
}

func TestRunStrategySubsetLimitsChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Monte Carlo cross-checks")
	}
	sc := testBatch()[0]
	sc.Strategies = []Strategy{StrategySync}
	sc.Reps = 2000
	rep, err := Run([]Scenario{sc}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Scenarios[0].Checks); got != 3 {
		t.Fatalf("sync-only scenario has %d checks, want 3", got)
	}
	for _, c := range rep.Scenarios[0].Checks {
		if c.Kind != strategy.KindZ {
			t.Fatalf("sync-only check %s has kind %s", c.Name, c.Kind)
		}
	}
}

// TestRunAcceptsEverythingValidateAccepts pins the Validate/Run contract on
// its trickiest corner: "optimal" sync interval with θ = 0 is valid as long
// as the sync strategy is not requested, and the runner must not try to
// resolve the (undefined) optimum for the report summary.
func TestRunAcceptsEverythingValidateAccepts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Monte Carlo cross-checks")
	}
	scs, err := Load([]byte(`{"version":1,"scenarios":[{
	  "name":"x","n":2,"lambda":1,"sync_interval":"optimal",
	  "strategies":["async"],"reps":1000}]}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(scs, Options{})
	if err != nil {
		t.Fatalf("Run rejected a scenario Validate accepted: %v", err)
	}
	if rep.Failures != 0 {
		t.Fatalf("%d failures", rep.Failures)
	}
}

// TestRunGenerousDeadlineIsNotAFalseAlarm: a deadline far in the tail makes
// every simulated indicator zero while the model probability stays positive;
// the binomial score test must pass that, not flag it as degenerate.
func TestRunGenerousDeadlineIsNotAFalseAlarm(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Monte Carlo cross-checks")
	}
	sc := testBatch()[0]
	sc.Deadline = 100
	sc.Reps = 1000
	sc.Strategies = []Strategy{StrategyAsync}
	rep, err := Run([]Scenario{sc}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var miss *Check
	for i, c := range rep.Scenarios[0].Checks {
		if c.Name == "async.deadlineMiss" {
			miss = &rep.Scenarios[0].Checks[i]
		}
	}
	if miss == nil {
		t.Fatal("no deadline check emitted")
	}
	if miss.Kind != KindBinomZ {
		t.Fatalf("deadline check kind %s, want binom-z", miss.Kind)
	}
	if miss.Est != 0 {
		t.Fatalf("expected an all-zero indicator sample at d=100, got %v", miss.Est)
	}
	if !miss.Pass {
		t.Fatalf("generous deadline raised a false alarm: %+v", *miss)
	}
	if rep.Failures != 0 {
		t.Fatalf("%d failures", rep.Failures)
	}
}

func TestRunRejects(t *testing.T) {
	if _, err := Run(nil, Options{}); err == nil {
		t.Fatal("empty batch accepted")
	}
	bad := testBatch()
	bad[1].Mu = nil
	if _, err := Run(bad, Options{}); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

func TestRunFormatMentionsEveryScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Monte Carlo cross-checks")
	}
	batch := testBatch()
	rep, err := Run(batch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Format()
	for _, sc := range batch {
		if !strings.Contains(out, sc.Name) {
			t.Fatalf("Format() missing scenario %q", sc.Name)
		}
	}
	if !strings.Contains(out, "winner:") || !strings.Contains(out, "cross-check clean") {
		t.Fatal("Format() missing advisor verdict or clean banner")
	}
}
