// Command perfbench is the repository's benchmark: one process that drives
// the recoveryblocks facade and the exported functions of the internal/*
// layers through three named workloads, checks every answer, and prints one
// JSON result line. Run it from the repository root through run.sh, which
// builds it first:
//
//	bash perfbench/run.sh --workload exact-wall --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// metrics and writes the run's spans to .bench_build/perfbench/. See
// README.md in this directory for the layer map and the workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int // the mc pool size: nproc
}

// traceDir is where a traced run writes its spans, relative to the
// repository root the benchmark runs from.
var traceDir = filepath.Join(".bench_build", "perfbench")

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "seconds of timed passes to measure")
	fs.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	if !(o.seconds > 0) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	o.workers = runtime.NumCPU()
	w, ok := lookupWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	h := hostInfo()
	// Marshal cannot fail on a map of strings, numbers and a plain struct.
	info, _ := json.Marshal(map[string]any{"workload": o.workload, "seed": o.seed, "trace": trace,
		"seconds": o.seconds, "workers": o.workers, "host": h})
	fmt.Fprintln(stdout, string(info))

	out, err := w.run(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, f := range out.failures {
		fmt.Fprintln(stderr, "perfbench: FAIL", f)
	}
	if out.samples != nil {
		b, _ := json.Marshal(out.samples)
		fmt.Fprintln(stderr, "perfbench: samples", string(b))
	}
	res := result{
		Correct:   len(out.failures) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue),
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
		path, err := out.tracer.write(traceDir, o.workload, o.seed, h, out.metrics)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: writing trace:", err)
			return 1
		}
		fmt.Fprintln(stderr, "perfbench: spans written to", path)
	}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", d.Name)
			return 1
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// workload is one named benchmark workload; BENCHMARK.json and README.md
// say why each was chosen.
type workload struct {
	name string
	run  func(o options) (*outcome, error)
}

var workloads = []workload{
	{name: "exact-wall", run: driveWorkload(setupExactWall)},
	{name: "paper-repro", run: driveWorkload(setupPaperRepro)},
	{name: "advisor-corpus", run: driveWorkload(setupAdvisorCorpus)},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runner is one set-up workload instance. R is what one pass answers.
type runner[R any] interface {
	// pass runs one unit of the timed phase. tr is nil in untraced runs.
	pass(tr *tracer) (R, error)
	// check judges a pass's answers; first is the first pass's answers of
	// the run (nil for the first pass itself). It returns how many answers
	// were judged and a description of each one that failed.
	check(r R, first *R) (answers int, failures []string)
	// probe runs the direct single-layer measurements of the traced run,
	// after the timed passes, and adds their metrics to layer.
	probe(tr *tracer, first R, layer map[string]float64) error
}

// setupFunc generates a workload's inputs from the seed and builds every
// model or spec its passes query. tr is nil in untraced runs.
type setupFunc[R any] func(seed int64, workers int, tr *tracer) (runner[R], error)

// outcome is everything one run measured.
type outcome struct {
	attempted, failed int
	failures          []string
	metrics           map[string]float64
	samples           map[string][]float64 // the raw timings behind the medians
	tracer            *tracer
}

func (o *outcome) fail(msgs ...string) {
	o.attempted += len(msgs)
	o.failed += len(msgs)
	o.failures = append(o.failures, msgs...)
}

// The repeated set-up whose median is setup_s runs at least minSetupReps
// times, and more while the set-ups fit in setupBudget, up to maxSetupReps.
const (
	minSetupReps = 5
	maxSetupReps = 200
	setupBudget  = time.Second
)

// driveWorkload adapts a typed set-up function to the untyped workload table.
func driveWorkload[R any](setup setupFunc[R]) func(options) (*outcome, error) {
	return func(o options) (*outcome, error) {
		if o.trace {
			return drivenTraced(setup, o)
		}
		return drivenPlain(setup, o)
	}
}

// drivenPlain is the untraced run: repeated set-up, then timed passes for
// o.seconds, every pass checked.
func drivenPlain[R any](setup setupFunc[R], o options) (*outcome, error) {
	var setups []float64
	var r runner[R]
	var spent time.Duration
	for len(setups) < minSetupReps || (len(setups) < maxSetupReps && spent < setupBudget) {
		r = nil
		runtime.GC() // earlier repetitions' models must not inflate this one
		t0 := time.Now()
		var err error
		r, err = setup(o.seed, o.workers, nil)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		spent += d
		setups = append(setups, d.Seconds())
	}
	out := &outcome{metrics: make(map[string]float64)}
	walls, answers, _ := timedPasses(r, o.seconds, nil, nil, out)
	if len(walls) == 0 {
		return nil, errors.New("no pass completed")
	}
	out.samples = map[string][]float64{"setup_s": setups, "pass_s": walls}
	wall := median(walls)
	out.metrics["setup_s"] = median(setups)
	out.metrics["wall_s"] = wall
	out.metrics["answers_per_s"] = float64(answers) / wall
	out.metrics["peak_rss_mib"] = peakRSSMiB()
	out.metrics["ok_frac"] = 1 - float64(out.failed)/float64(max(out.attempted, 1))
	return out, nil
}

// timedPasses runs passes until their summed wall time reaches seconds and
// checks each one. It returns the pass wall times in seconds, the answers
// judged in one pass, and the first pass's answers; first carries the
// answers of an earlier phase of the run, if any.
func timedPasses[R any](r runner[R], seconds float64, tr *tracer, first *R, out *outcome) ([]float64, int, *R) {
	var walls []float64
	answers := 0
	for sum := 0.0; sum < seconds; {
		var w float64
		var n int
		w, n, first = onePass(r, tr, first, out)
		walls = append(walls, w)
		sum += w
		if answers == 0 {
			answers = n
		}
	}
	return walls, answers, first
}

// onePass runs one pass (a root span in a traced run), then checks it
// outside the timed interval. It returns the pass's wall time in seconds,
// the answers judged, and the run's first answers.
func onePass[R any](r runner[R], tr *tracer, first *R, out *outcome) (float64, int, *R) {
	id := tr.begin(spanPass)
	t0 := time.Now()
	res, err := r.pass(tr)
	w := time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		out.fail(fmt.Sprintf("pass: %v", err))
		return w, 0, first
	}
	n, fails := r.check(res, first)
	out.attempted += n
	out.failed += len(fails)
	out.failures = append(out.failures, fails...)
	if first == nil {
		first = &res
	}
	return w, n, first
}

// drivenTraced is the traced run. Half the window runs untraced passes on
// one set-up, half runs traced passes on a fresh set-up built under an
// enabled internal/obs registry; the ratio of their median pass times is
// the tracing overhead. Probes of single layers follow the traced passes.
func drivenTraced[R any](setup setupFunc[R], o options) (*outcome, error) {
	out := &outcome{metrics: make(map[string]float64)}
	r, err := setup(o.seed, o.workers, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	plain, _, first := timedPasses(r, o.seconds/2, nil, nil, out)
	r = nil
	runtime.GC()

	tr := newTracer()
	out.tracer = tr
	id := tr.begin(spanSetup)
	r, err = setup(o.seed, o.workers, tr)
	tr.end(id)
	if err != nil {
		tr.finish()
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	busy := tr.reg.Histogram("mc_worker_busy_seconds")
	var busyPerPass []float64
	var traced []float64
	for sum := 0.0; sum < o.seconds/2; {
		b0 := busy.Sum()
		var w float64
		w, _, first = onePass(r, tr, first, out)
		busyPerPass = append(busyPerPass, busy.Sum()-b0)
		traced = append(traced, w)
		sum += w
	}
	if first == nil {
		tr.finish()
		return nil, errors.New("no pass completed")
	}
	if err := r.probe(tr, *first, out.metrics); err != nil {
		out.fail("probe: " + err.Error())
	}
	tr.finish()
	layerMetrics(tr, o.workers, traced, busyPerPass, out)
	out.metrics["obs.trace_overhead_frac"] = median(traced)/median(plain) - 1
	return out, nil
}

// layerMetrics derives the per-layer metrics from the recorded spans. Count
// metrics are per-pass counter deltas, which must repeat exactly from pass
// to pass; time metrics are medians over the traced passes.
func layerMetrics(tr *tracer, workers int, walls, busy []float64, out *outcome) {
	m := out.metrics
	passes := tr.roots(spanPass)
	var counts map[string]int64
	for i, p := range passes {
		c := tr.spans[p].Counts
		if i == 0 {
			counts = c
		} else if !maps.Equal(c, counts) {
			out.fail(fmt.Sprintf("deterministic counters differ between traced passes 1 and %d", i+1))
		}
	}
	for metric, counter := range counterMetrics {
		m[metric] = float64(counts[counter])
	}
	if b := counts["guard_blocks_total"]; b > 0 {
		m["guard.primary_ratio"] = float64(b-counts["guard_fallbacks_total"]) / float64(b)
	} else {
		m["guard.primary_ratio"] = 1
	}
	for metric, names := range spanMetrics {
		var per []float64
		for _, p := range passes {
			sum := 0.0
			for _, s := range tr.descendants(p) {
				if slices.Contains(names, s.Name) {
					sum += s.DurMS / 1e3
				}
			}
			per = append(per, sum)
		}
		m[metric] = median(per)
	}
	build := 0.0
	for _, s := range tr.spans {
		if s.Name == spanBuild {
			build += s.DurMS / 1e3
		}
	}
	m["rbmodel.build_s"] = build
	var qmv, qcalls int64
	for _, s := range tr.descendants(passes[0]) {
		if s.Name == spanQuantile {
			qmv += s.Counts["markov_uniformization_matvecs_total"]
			qcalls++
		}
	}
	m["rbmodel.quantile_matvecs"] = float64(qmv) / float64(max(qcalls, 1))
	m["mc.busy_s"] = median(busy)
	if counts["mc_blocks_total"] > 0 {
		wait := make([]float64, len(walls))
		for i := range walls {
			wait[i] = 1 - busy[i]/(float64(workers)*walls[i])
		}
		m["mc.wait_frac"] = median(wait)
	}
	m["mc.imbalance_blocks"] = tr.reg.Gauge("mc_imbalance_blocks").Value()
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0 // a layer this workload never calls
		}
	}
}

// median of a non-empty sample.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of a non-empty sample by linear
// interpolation between order statistics.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
