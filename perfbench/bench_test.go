package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	rb "recoveryblocks"
	"recoveryblocks/internal/expt"
	"recoveryblocks/internal/scenario"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricDefinitions(t *testing.T) {
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Fatalf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Fatalf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	largest := 0.0
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-] or is too long", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if !(d.Bound > 0 && d.Bound <= 0.25) {
			t.Errorf("end-to-end %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		largest = math.Max(largest, d.Bound)
	}
	setup := endToEnd[0]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" || setup.Bound != largest {
		t.Errorf("setup_s must be in seconds, lower is better, with the largest bound: %+v", setup)
	}
	for _, d := range perLayer {
		if d.Moves == "" {
			t.Errorf("per-layer %q names no end-to-end metric it moves", d.Name)
		}
	}
	for m, c := range counterMetrics {
		if !seen[m] || !strings.HasSuffix(c, "_total") {
			t.Errorf("counter metric %q -> %q", m, c)
		}
	}
	for m := range spanMetrics {
		if !seen[m] {
			t.Errorf("span metric %q is not a per-layer metric", m)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why %q), driver %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the driver %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v, driver %+v", i, m, d)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the driver %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: %+v, driver %+v", i, m, d)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", f.RunSeconds)
	}
	if strings.Join(f.Paths, ",") != "perfbench" || strings.Join(f.Command, " ") != "bash perfbench/run.sh" {
		t.Errorf("paths %v, command %v", f.Paths, f.Command)
	}
}

// passCounts runs one traced pass of a workload and returns its
// deterministic counter deltas.
func passCounts(t *testing.T, setup func(int64, int, *tracer) (func(*tracer) error, error), seed int64, workers int) map[string]int64 {
	t.Helper()
	tr := newTracer()
	defer tr.finish()
	pass, err := setup(seed, workers, tr)
	if err != nil {
		t.Fatal(err)
	}
	id := tr.begin(spanPass)
	err = pass(tr)
	tr.end(id)
	if err != nil {
		t.Fatal(err)
	}
	return tr.spans[id].Counts
}

// passOnly adapts a workload's set-up to passCounts.
func passOnly[R any](setup setupFunc[R]) func(int64, int, *tracer) (func(*tracer) error, error) {
	return func(seed int64, workers int, tr *tracer) (func(*tracer) error, error) {
		r, err := setup(seed, workers, tr)
		if err != nil {
			return nil, err
		}
		return func(tr *tracer) error { _, err := r.pass(tr); return err }, nil
	}
}

var countedWorkloads = []struct {
	name  string
	setup func(int64, int, *tracer) (func(*tracer) error, error)
	heavy bool
}{
	{"paper-repro", passOnly(setupPaperRepro), false},
	{"advisor-corpus", passOnly(setupAdvisorCorpus), false},
	{"exact-wall", passOnly(setupExactWall), true},
}

// TestDeterministicCounters pins the per-pass counter deltas the traced run
// reports: identical on a rerun and with one worker instead of nproc.
func TestDeterministicCounters(t *testing.T) {
	for _, w := range countedWorkloads {
		t.Run(w.name, func(t *testing.T) {
			if w.heavy && testing.Short() {
				t.Skip("heavy workload")
			}
			a := passCounts(t, w.setup, 1, runtime.NumCPU())
			if len(a) == 0 {
				t.Fatal("no counters moved")
			}
			for _, c := range []struct {
				what    string
				workers int
			}{{"rerun", runtime.NumCPU()}, {"one worker", 1}} {
				b := passCounts(t, w.setup, 1, c.workers)
				if !maps.Equal(a, b) {
					t.Errorf("%s: counters %v, first run %v", c.what, b, a)
				}
			}
		})
	}
}

// TestSecondSeed runs every workload end to end on a second seed: it must
// stay correct, and its per-pass work may differ from seed 1's by no more
// than the wall_s bound, so a seed cannot change a run's cost by orders of
// magnitude.
func TestSecondSeed(t *testing.T) {
	bound := endToEnd[1].Bound // wall_s
	for _, w := range countedWorkloads {
		t.Run(w.name, func(t *testing.T) {
			if w.heavy && testing.Short() {
				t.Skip("heavy workload")
			}
			var stdout, stderr bytes.Buffer
			if code := run([]string{"--workload", w.name, "--seed", "2", "--seconds", "0.001"}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Metrics["ok_frac"].Value != 1 {
				t.Fatalf("seed 2: %+v\n%s", res, stderr.String())
			}
			a := passCounts(t, w.setup, 1, runtime.NumCPU())
			b := passCounts(t, w.setup, 2, runtime.NumCPU())
			for _, c := range counterMetrics {
				if math.Abs(float64(b[c]-a[c])) > bound*float64(a[c]) {
					t.Errorf("%s: seed 2 does %d, seed 1 %d", c, b[c], a[c])
				}
			}
		})
	}
}

// smallWall is exact-wall's pass and check at sizes a unit test affords.
func smallWall(t *testing.T) (*exactWall, wallAnswers) {
	t.Helper()
	rng := newRNG(3)
	w := &exactWall{}
	for _, b := range []struct {
		q   question
		dst **rb.AsyncModel
	}{{question{n: 7, rho: 1}, &w.below}, {question{n: 8, rho: 1}, &w.past}, {question{n: 6, rho: midChain.rho}, &w.mid}} {
		m, err := rb.NewAsyncModel(b.q.params(rng))
		if err != nil {
			t.Fatal(err)
		}
		*b.dst = m
	}
	a, err := w.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	return w, a
}

func TestExactWallCheckCatchesWrongReference(t *testing.T) {
	w, a := smallWall(t)
	if n, fails := w.check(a, nil); n != 4 || len(fails) != 0 {
		t.Fatalf("healthy answers: %d judged, failures %v", n, fails)
	}
	ref, err := wallReference(w.below.P, w.past.P, w.mid.P, a.quantile)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what  string
		wrong func(*wallRef)
	}{
		{"first moment below the wall", func(r *wallRef) { r.below[0] *= 1 + 10*momentTol }},
		{"second moment past the wall", func(r *wallRef) { r.past[1] *= 1 - 10*momentTol }},
		{"deadline miss", func(r *wallRef) { r.miss *= 1 + 10*missTol }},
		{"quantile", func(r *wallRef) { r.cdfAtQ += 10 * cdfTol }},
	} {
		bad := ref
		c.wrong(&bad)
		if fails := bad.judge(a); len(fails) != 1 {
			t.Errorf("%s: wrong reference gave failures %v", c.what, fails)
		}
	}
	changed := a
	changed.quantile *= 1 + 1e-15
	if _, fails := w.check(changed, &a); len(fails) != 1 {
		t.Errorf("a pass differing from the first: failures %v", fails)
	}
}

func TestPaperReproCheckCatchesWrongReference(t *testing.T) {
	r, err := setupPaperRepro(1, runtime.NumCPU(), nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	n, fails := r.check(a, nil)
	if n < 100 || len(fails) != 0 {
		t.Fatalf("healthy pass: %d judged, failures %v", n, fails)
	}
	if _, fails := r.check(a, &a); len(fails) != 0 {
		t.Fatalf("a pass judged against itself as the first: %v", fails)
	}
	for _, c := range []struct {
		what  string
		wrong func(*paperAnswers)
	}{
		{"paper's published E(L1), case 2", func(a *paperAnswers) { a.t1.Rows[1].PaperEL[0] += 0.01 }},
		{"exact E(X) under the table 1 simulation", func(a *paperAnswers) { a.t1.Rows[0].ExactEX *= 1.2 }},
		{"exact CL under the section 3 simulation", func(a *paperAnswers) { a.s3.Rows[0].CLExact *= 1.2 }},
		{"plan quantile", func(a *paperAnswers) { a.quantile[2] *= 1.01 }},
	} {
		bad := clonePaper(a)
		c.wrong(&bad)
		if _, fails := r.check(bad, nil); len(fails) == 0 {
			t.Errorf("%s: a wrong reference passed", c.what)
		}
		if _, fails := r.check(bad, &a); len(fails) < 2 {
			t.Errorf("%s: a pass differing from the first gave failures %v", c.what, fails)
		}
	}
}

// clonePaper copies the parts of a pass the wrong-reference cases edit.
func clonePaper(a paperAnswers) paperAnswers {
	t1 := *a.t1
	t1.Rows = append([]expt.Table1Row(nil), a.t1.Rows...)
	s3 := *a.s3
	s3.Rows = append(s3.Rows[:0:0], a.s3.Rows...)
	a.t1, a.s3 = &t1, &s3
	a.quantile = append([]float64(nil), a.quantile...)
	return a
}

func TestAdvisorCheckCatchesWrongReference(t *testing.T) {
	scs, err := rb.ChaosCorpus(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := &advisorCorpus{scs: scs, opt: rb.ChaosOptions{Workers: runtime.NumCPU()}}
	a, err := c.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	n, fails := c.check(a, nil)
	if want := len(scs) * (1 + len(a.rep.Scenarios[0].Cells)*a.rep.Draws); n != want || len(fails) != 0 {
		t.Fatalf("healthy sweep: %d judged (want %d), failures %v", n, want, fails)
	}

	// A real fault: solver-fault perturbations price every draw on a
	// fallback route.
	stacks, err := rb.ParseChaosStacks("solver-fault")
	if err != nil {
		t.Fatal(err)
	}
	faulty := &advisorCorpus{scs: scs, opt: rb.ChaosOptions{Workers: runtime.NumCPU(), Stacks: stacks}}
	fa, err := faulty.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, fails := faulty.check(fa, nil); len(fails) == 0 {
		t.Error("fallback-priced draws passed the check")
	}

	for _, cs := range []struct {
		what  string
		wrong func(*rb.ChaosReport)
	}{
		{"unstable cell", func(r *rb.ChaosReport) { r.Scenarios[0].Cells[0].Unstable = true }},
		{"clean advice off its primary route", func(r *rb.ChaosReport) { r.Scenarios[1].Confidence = scenario.ConfidenceFallback }},
	} {
		rep, err := rb.RunChaos(scs, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		cs.wrong(rep)
		if _, fails := c.check(advisorAnswers{rep: rep, digest: a.digest}, nil); len(fails) == 0 {
			t.Errorf("%s passed the check", cs.what)
		}
	}
	other := a
	other.digest[0] ^= 1
	if _, fails := c.check(other, &a); len(fails) != 1 {
		t.Errorf("a report differing from the first: failures %v", fails)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seed", "1"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, StartMS: 0, DurMS: 10},
		{ID: 1, Parent: 0, StartMS: 1, DurMS: 3},
		{ID: 2, Parent: 0, StartMS: 2, DurMS: 4}, // overlaps its sibling by 2
		{ID: 3, Parent: 2, StartMS: 2, DurMS: 1},
	}}
	tr.finish()
	for id, want := range []float64{5, 3, 3, 1} {
		if got := tr.spans[id].SelfMS; got != want {
			t.Errorf("span %d: self time %v, want %v", id, got, want)
		}
	}
}
