package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runOK executes Run and fails the test on error, returning stdout.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := Run(args, &out); err != nil {
		t.Fatalf("rbrepro %s: %v\noutput:\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

// TestRunEveryExperimentSubcommand smoke-tests each subcommand end to end at
// quick sizes, asserting the output carries its artifact's banner.
func TestRunEveryExperimentSubcommand(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests run full experiment drivers")
	}
	cases := []struct {
		args []string
		want []string
	}{
		{[]string{"table1", "-quick"}, []string{"Table 1", "case 5"}},
		{[]string{"fig5", "-quick", "-maxn", "4", "-exact", "4", "-rhos", "2"}, []string{"Figure 5", "rho"}},
		{[]string{"fig6", "-quick", "-points", "9"}, []string{"Figure 6", "KS(sim vs analytic)"}},
		{[]string{"sync", "-quick"}, []string{"Section 3", "CL simulated"}},
		{[]string{"prp", "-quick"}, []string{"Section 4", "sim propagated"}},
		{[]string{"domino", "-quick"}, []string{"Figure 1", "recoveries:"}},
		{[]string{"trace", "-scheme", "sync"}, []string{"Figure 7"}},
		{[]string{"trace", "-scheme", "prp"}, []string{"Figure 8"}},
		{[]string{"graph", "-model", "full"}, []string{"digraph"}},
		{[]string{"graph", "-model", "symmetric"}, []string{"digraph"}},
		{[]string{"graph", "-model", "split"}, []string{"digraph"}},
		{[]string{"plan"}, []string{"Design aids", "Deadline risk"}},
		{[]string{"xval", "-quick"}, []string{"Cross-validation", "all model/simulator pairs agree"}},
		{[]string{"scenario", "-family", "uniform", "-quick"},
			[]string{"Scenario engine", "winner:", "cross-check clean"}},
		{[]string{"scenario", "-spec", "../../testdata/scenarios/quickstart.json"},
			[]string{"staged-pipeline", "winner:", "cross-check clean"}},
		{[]string{"strategies"},
			[]string{"Registered recovery strategies", "async", "sync-every-k", "Section 3 generalized"}},
		{[]string{"strategies", "-table", "-k", "1,4"},
			[]string{"Strategy comparison", "sync-every-k (k=1)", "sync-every-k (k=4)", "overhead/t"}},
		{[]string{"xval", "-strategy", "sync-every-k"},
			[]string{"everyk.meanZ.k1", "everyk-n5-k4", "all model/simulator pairs agree"}},
		{[]string{"xval", "-quick", "-strategy", "async"},
			[]string{"async.meanX", "all model/simulator pairs agree"}},
		{[]string{"scenario", "-family", "sync-every-k", "-quick"},
			[]string{"sync-every-k/n3/k1", "sync-every-k/n3/k4", "winner:", "cross-check clean"}},
		{[]string{"scenario", "-family", "deadline-sweep", "-quick", "-strategy", "prp"},
			[]string{"winner: prp", "prp.propagated", "cross-check clean"}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.args[0]+"_"+strings.Join(c.args[1:], "_"), func(t *testing.T) {
			t.Parallel()
			out := runOK(t, c.args...)
			for _, want := range c.want {
				if !strings.Contains(out, want) {
					t.Errorf("rbrepro %v output missing %q", c.args, want)
				}
			}
		})
	}
}

// TestPlanGolden pins the `plan` report byte for byte: the deadline-miss and
// quantile columns are exact answers, so any change to the transient solves
// that moves a printed digit shows here. Refresh it intentionally with
//
//	go run ./cmd/rbrepro plan > cmd/rbrepro/testdata/plan.golden
func TestPlanGolden(t *testing.T) { checkGolden(t, "plan.golden", "plan") }

// TestRuntimeGoldens pins the runtime history diagrams of Figures 1, 7 and
// 8 byte for byte. The runtime steps its processes in a fixed round-robin
// order, so every event, rollback and count repeats exactly. Refresh them
// intentionally with
//
//	go run ./cmd/rbrepro domino -quick > cmd/rbrepro/testdata/domino.golden
//	go run ./cmd/rbrepro trace -scheme sync > cmd/rbrepro/testdata/trace_sync.golden
//	go run ./cmd/rbrepro trace -scheme prp > cmd/rbrepro/testdata/trace_prp.golden
func TestRuntimeGoldens(t *testing.T) {
	checkGolden(t, "domino.golden", "domino", "-quick")
	checkGolden(t, "trace_sync.golden", "trace", "-scheme", "sync")
	checkGolden(t, "trace_prp.golden", "trace", "-scheme", "prp")
}

// checkGolden compares the stdout of `rbrepro args...` with
// testdata/golden byte for byte.
func checkGolden(t *testing.T, golden string, args ...string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	if got := runOK(t, args...); got != string(want) {
		t.Errorf("rbrepro %s drifted from testdata/%s:\n%s", strings.Join(args, " "), golden, got)
	}
}

func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"no-such-command"},
		{"table1", "-no-such-flag"},
		{"scenario"},
		{"scenario", "-spec", "a.json", "-family", "uniform"},
	} {
		var out strings.Builder
		err := Run(args, &out)
		if !errors.Is(err, errUsage) {
			t.Errorf("Run(%v) = %v, want errUsage", args, err)
		}
	}
}

func TestRunRejectsBadOperands(t *testing.T) {
	for _, args := range [][]string{
		{"trace", "-scheme", "bogus"},
		{"graph", "-model", "bogus"},
		{"fig5", "-quick", "-rhos", "one,two"},
		{"scenario", "-family", "bogus"},
		{"scenario", "-spec", "no-such-spec.json"},
		{"scenario", "-family", "uniform", "-quick", "-strategy", "bogus"},
		{"xval", "-quick", "-strategy", "bogus"},
		{"strategies", "-table", "-k", "one"},
		{"strategies", "-table", "-k", "0"},
	} {
		var out strings.Builder
		err := Run(args, &out)
		if err == nil {
			t.Errorf("Run(%v) accepted a bad operand", args)
		}
		if errors.Is(err, errUsage) {
			t.Errorf("Run(%v) = usage error, want a plain command error", args)
		}
	}
}

// TestXValJSONReport checks the machine-readable xval mode: valid JSON, zero
// failures on the short grid, and the derived-tolerance fields present.
func TestXValJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the short cross-validation grid")
	}
	out := runOK(t, "xval", "-quick", "-json")
	var rep struct {
		Crit     float64 `json:"crit"`
		K        int     `json:"statistical_comparisons"`
		Failures int     `json:"failures"`
		Checks   []struct {
			Name   string  `json:"name"`
			CIHalf float64 `json:"ci_half"`
			Pass   bool    `json:"pass"`
		} `json:"checks"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("xval -json did not emit valid JSON: %v", err)
	}
	if rep.Failures != 0 {
		t.Fatalf("short grid reported %d failures", rep.Failures)
	}
	if rep.K == 0 || len(rep.Checks) < rep.K || rep.Crit <= 0 {
		t.Fatalf("report looks empty: K=%d checks=%d crit=%v", rep.K, len(rep.Checks), rep.Crit)
	}
}

// TestXValSeedOffsetIsIndependentReplication: shifting -seed re-runs the
// whole sweep on disjoint substreams and must still pass.
func TestXValSeedOffsetIsIndependentReplication(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the short cross-validation grid twice")
	}
	a := runOK(t, "xval", "-quick")
	b := runOK(t, "xval", "-quick", "-seed", "7")
	if a == b {
		t.Fatal("different -seed produced an identical xval report")
	}
}

// TestScenarioJSONReport checks the machine-readable scenario mode: valid
// JSON, zero cross-check failures, and an advised winner for every scenario.
func TestScenarioJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scenario family")
	}
	out := runOK(t, "scenario", "-family", "deadline-sweep", "-quick", "-json")
	var rep struct {
		Crit      float64 `json:"crit"`
		K         int     `json:"statistical_comparisons"`
		Failures  int     `json:"failures"`
		Scenarios []struct {
			Summary struct {
				Name string `json:"name"`
			} `json:"summary"`
			Advice struct {
				Winner  string `json:"winner"`
				Ranking []struct {
					Strategy     string  `json:"strategy"`
					OverheadRate float64 `json:"overhead_rate"`
				} `json:"ranking"`
			} `json:"advice"`
		} `json:"scenarios"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("scenario -json did not emit valid JSON: %v", err)
	}
	if rep.Failures != 0 {
		t.Fatalf("deadline-sweep family reported %d cross-check failures", rep.Failures)
	}
	if rep.K == 0 || rep.Crit <= 0 || len(rep.Scenarios) == 0 {
		t.Fatalf("report looks empty: K=%d crit=%v scenarios=%d", rep.K, rep.Crit, len(rep.Scenarios))
	}
	for _, sc := range rep.Scenarios {
		if sc.Advice.Winner == "" || len(sc.Advice.Ranking) == 0 {
			t.Fatalf("scenario %q has no advised winner", sc.Summary.Name)
		}
	}
}

// TestScenarioWorkersFlagNeverChangesResults pins the acceptance criterion
// that scenario reports are bit-identical for any -workers value.
func TestScenarioWorkersFlagNeverChangesResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scenario family twice")
	}
	a := runOK(t, "scenario", "-family", "pipeline", "-quick", "-workers", "1")
	b := runOK(t, "scenario", "-family", "pipeline", "-quick", "-workers", "4")
	if a != b {
		t.Fatal("scenario output differs between -workers 1 and -workers 4")
	}
}

// TestWorkersFlagNeverChangesResults pins the CLI end of the mc determinism
// contract on a full experiment command.
func TestWorkersFlagNeverChangesResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Table 1 twice")
	}
	a := runOK(t, "table1", "-quick", "-workers", "1")
	b := runOK(t, "table1", "-quick", "-workers", "4")
	if a != b {
		t.Fatal("table1 output differs between -workers 1 and -workers 4")
	}
}

// TestProfilingFlags smoke-tests -cpuprofile/-memprofile the same way the
// other subcommand flags are: run a real (quick) command end to end and
// assert both profile files exist and are non-empty. The profile contents
// are pprof's concern; the seam under test is that the flags wrap every
// command and the files are flushed before Run returns.
func TestProfilingFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an experiment driver")
	}
	dir := t.TempDir()
	cpu := dir + "/cpu.out"
	mem := dir + "/mem.out"
	runOK(t, "domino", "-quick", "-cpuprofile", cpu, "-memprofile", mem)
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile %s missing: %v", path, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
}

// TestProfilingFlagBadPath: an unwritable profile path must fail the run
// with a plain command error, not be silently ignored.
func TestProfilingFlagBadPath(t *testing.T) {
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		var out strings.Builder
		err := Run([]string{"domino", "-quick", flag, "/no/such/dir/prof.out"}, &out)
		if err == nil {
			t.Fatalf("unwritable %s path was accepted", flag)
		}
		if errors.Is(err, errUsage) {
			t.Fatalf("%s I/O failure reported as a usage error", flag)
		}
	}
}
