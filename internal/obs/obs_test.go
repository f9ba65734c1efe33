package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestDisabledPathIsNilSafe pins the zero-overhead-when-off contract: every
// accessor returns nil with no registry installed, and every method of the
// nil handles is a no-op rather than a panic.
func TestDisabledPathIsNilSafe(t *testing.T) {
	Disable()
	if Enabled() || Current() != nil {
		t.Fatal("registry installed at test start")
	}
	if C("x") != nil || Current().Gauge("x") != nil || Current().Histogram("x") != nil || StartSpan("a/b") != nil {
		t.Fatal("disabled accessors must return nil")
	}
	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(1)
	g.SetMax(2)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	var h *Histogram
	h.Observe(1)
	if h.N() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram value")
	}
	if err := h.Merge(NewHistogram(nil)); err != nil {
		t.Fatal(err)
	}
	var s *Span
	s.End()
	if got := h.Snapshot(); got.Count != 0 {
		t.Fatal("nil histogram snapshot")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil || r.Report() != nil {
		t.Fatal("nil registry accessors must return nil")
	}
}

// TestCountersAndGauges exercises the basic semantics plus handle identity
// (the same name resolves to the same metric).
func TestCountersAndGauges(t *testing.T) {
	Enable()
	defer Disable()
	C("mc_blocks_total").Add(3)
	C("mc_blocks_total").Inc()
	if got := C("mc_blocks_total").Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	Current().Gauge("mc_workers").Set(8)
	Current().Gauge("mc_workers").SetMax(4) // lower: ignored
	if got := Current().Gauge("mc_workers").Value(); got != 8 {
		t.Fatalf("gauge = %v, want 8", got)
	}
	Current().Gauge("mc_workers").SetMax(16)
	if got := Current().Gauge("mc_workers").Value(); got != 16 {
		t.Fatalf("gauge after SetMax = %v, want 16", got)
	}
}

// TestConcurrentCountsAreExact: atomic adds from many goroutines must sum
// exactly — the property that makes deterministic counters worker-invariant.
func TestConcurrentCountsAreExact(t *testing.T) {
	Enable()
	defer Disable()
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				C("sim_async_events_total").Inc()
				Current().Histogram("linalg_csr_nnz").Observe(64)
				StartSpan("pipeline/stage/shard").End()
			}
		}()
	}
	wg.Wait()
	if got := C("sim_async_events_total").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := Current().Histogram("linalg_csr_nnz").N(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
	rep := Current().Report()
	if len(rep.Runtime.Spans) != 1 || rep.Runtime.Spans[0].Name != "pipeline" {
		t.Fatalf("span tree roots = %+v", rep.Runtime.Spans)
	}
	shard := rep.Runtime.Spans[0].Children[0].Children[0]
	if shard.Name != "shard" || shard.Count != workers*per {
		t.Fatalf("shard span = %+v, want count %d", shard, workers*per)
	}
}

// TestHistogramBucketsAndMerge checks le-convention bucketing and the
// stats.Histogram-style exact merge.
func TestHistogramBucketsAndMerge(t *testing.T) {
	a := NewHistogram([]float64{1, 4, 16})
	for _, v := range []float64{0.5, 1, 2, 4, 100} {
		a.Observe(v)
	}
	s := a.Snapshot()
	if s.Count != 5 || s.Sum != 107.5 || s.Min != 0.5 || s.Max != 100 {
		t.Fatalf("snapshot = %+v", s)
	}
	// le=1 gets {0.5, 1}; le=4 gets {2, 4}; le=16 empty (elided); +Inf gets {100}.
	want := []BucketCount{{1, 2}, {4, 2}, {math.Inf(1), 1}}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, want)
	}
	for i, b := range s.Buckets {
		if b != want[i] {
			t.Fatalf("bucket[%d] = %+v, want %+v", i, b, want[i])
		}
	}
	b := NewHistogram([]float64{1, 4, 16})
	b.Observe(3)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got := a.Snapshot(); got.Count != 6 || got.Sum != 110.5 {
		t.Fatalf("merged = %+v", got)
	}
	mismatched := NewHistogram([]float64{1})
	mismatched.Observe(0.5)
	if err := a.Merge(mismatched); err == nil {
		t.Fatal("shape-mismatched merge must fail")
	}
}

// TestReportSectionSplit pins the determinism quarantine: cataloged
// deterministic metrics land in the deterministic section, runtime-flagged
// and unknown names in the runtime section.
func TestReportSectionSplit(t *testing.T) {
	Enable()
	defer Disable()
	C("mc_blocks_total").Add(7)                         // cataloged deterministic
	C("strategy_crosschecks_total_async").Inc()         // '*'-family, deterministic
	Current().Gauge("mc_workers").Set(4)                // cataloged runtime
	C("totally_unknown_metric").Inc()                   // uncataloged → runtime
	Current().Histogram("linalg_csr_nnz").Observe(128)  // deterministic histogram
	Current().Histogram("mc_run_seconds").Observe(0.25) // runtime histogram
	rep := Current().Report()
	det, rt := rep.Deterministic, rep.Runtime
	if det.Counters["mc_blocks_total"] != 7 {
		t.Fatalf("deterministic counters = %+v", det.Counters)
	}
	if det.Counters["strategy_crosschecks_total_async"] != 1 {
		t.Fatal("family metric must inherit its prefix entry's section")
	}
	if _, leaked := det.Counters["totally_unknown_metric"]; leaked {
		t.Fatal("unknown metric leaked into the deterministic section")
	}
	if rt.Counters["totally_unknown_metric"] != 1 || rt.Gauges["mc_workers"] != 4 {
		t.Fatalf("runtime section = %+v", rt.Section)
	}
	if det.Histograms["linalg_csr_nnz"].Count != 1 || rt.Histograms["mc_run_seconds"].Count != 1 {
		t.Fatal("histogram section placement wrong")
	}
	if rt.GoVersion == "" || rt.NumCPU <= 0 || rt.WallSeconds < 0 {
		t.Fatalf("runtime host facts missing: %+v", rt)
	}
}

// TestJSONReportRoundTrips: the report must be valid JSON including the
// "+Inf" overflow bucket rendering.
func TestJSONReportRoundTrips(t *testing.T) {
	Enable()
	defer Disable()
	h := Current().Histogram("linalg_csr_nnz")
	h.Observe(3)
	h.Observe(1e9) // overflow bucket
	var buf bytes.Buffer
	if err := Current().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), `"+Inf"`) {
		t.Fatalf("overflow bucket not rendered as \"+Inf\":\n%s", buf.String())
	}
}

// TestSummary smoke-tests the human-readable export.
func TestSummary(t *testing.T) {
	Enable()
	defer Disable()
	C("mc_blocks_total").Add(42)
	StartSpan("cmd/xval").End()
	sum := Current().Summary()
	for _, want := range []string{"mc_blocks_total", "42", "span", "cmd"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

// TestCatalogLookup covers exact, family and missing names, and that every
// catalog name is unique.
func TestCatalogLookup(t *testing.T) {
	if _, ok := LookupDef("mc_blocks_total"); !ok {
		t.Fatal("exact lookup failed")
	}
	d, ok := LookupDef("strategy_crosschecks_total_prp")
	if !ok || d.Name != "strategy_crosschecks_total_*" {
		t.Fatalf("family lookup = %+v, %v", d, ok)
	}
	if _, ok := LookupDef("no_such_metric"); ok {
		t.Fatal("unknown name resolved")
	}
	seen := make(map[string]bool)
	for _, d := range Catalog {
		if seen[d.Name] {
			t.Fatalf("duplicate catalog entry %q", d.Name)
		}
		seen[d.Name] = true
		if d.Help == "" || d.Kind == "" {
			t.Fatalf("catalog entry %q missing help or kind", d.Name)
		}
	}
}
