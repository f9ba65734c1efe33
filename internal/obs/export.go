package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"runtime"
	"slices"
	"strings"
	"time"
)

// Section groups the metrics of one determinism class. Map keys marshal
// sorted (encoding/json), so a section's JSON is stable given stable values.
type Section struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// RuntimeSection is the quarantine for everything scheduling- or
// clock-dependent: timings, per-worker distributions, spans, and the host
// facts that explain them.
type RuntimeSection struct {
	Section
	WallSeconds float64        `json:"wall_seconds"`
	GoVersion   string         `json:"go_version"`
	NumCPU      int            `json:"num_cpu"`
	Spans       []SpanSnapshot `json:"spans,omitempty"`
}

// Report is the structured run report: the deterministic section is
// bit-identical across worker counts and same-seed reruns (the CLI
// regression pins it); the runtime section is honest about varying.
type Report struct {
	SchemaVersion int            `json:"schema_version"`
	Deterministic Section        `json:"deterministic"`
	Runtime       RuntimeSection `json:"runtime"`
}

// Report snapshots the registry. Nil-safe: a nil registry yields nil.
func (r *Registry) Report() *Report {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &Report{SchemaVersion: 1}
	rep.Runtime.WallSeconds = time.Since(r.start).Seconds()
	rep.Runtime.GoVersion = runtime.Version()
	rep.Runtime.NumCPU = runtime.NumCPU()
	rep.Runtime.Spans = snapshotSpans(r.root)
	for name, c := range r.counters {
		sec := &rep.Deterministic
		if isRuntime(name) {
			sec = &rep.Runtime.Section
		}
		if sec.Counters == nil {
			sec.Counters = make(map[string]int64)
		}
		sec.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		sec := &rep.Deterministic
		if isRuntime(name) {
			sec = &rep.Runtime.Section
		}
		if sec.Gauges == nil {
			sec.Gauges = make(map[string]float64)
		}
		sec.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		sec := &rep.Deterministic
		if isRuntime(name) {
			sec = &rep.Runtime.Section
		}
		if sec.Histograms == nil {
			sec.Histograms = make(map[string]HistSnapshot)
		}
		sec.Histograms[name] = h.Snapshot()
	}
	return rep
}

// WriteJSON writes the indented JSON run report.
func (r *Registry) WriteJSON(w io.Writer) error {
	rep := r.Report()
	if rep == nil {
		return fmt.Errorf("obs: no registry installed")
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Summary renders the compact human-readable trailer the CLI prints to
// stderr under -metrics-summary: nonzero deterministic counters, then the
// runtime headline (wall time, workers, top-level spans).
func (r *Registry) Summary() string {
	rep := r.Report()
	if rep == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString("metrics summary (deterministic counters)\n")
	for _, name := range slices.Sorted(maps.Keys(rep.Deterministic.Counters)) {
		if v := rep.Deterministic.Counters[name]; v != 0 {
			fmt.Fprintf(&b, "  %-40s %d\n", name, v)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(rep.Deterministic.Histograms)) {
		h := rep.Deterministic.Histograms[name]
		if h.Count != 0 {
			fmt.Fprintf(&b, "  %-40s n=%d mean=%.1f max=%g\n", name, h.Count, h.Sum/float64(h.Count), h.Max)
		}
	}
	fmt.Fprintf(&b, "runtime: wall %.3fs, %d CPUs", rep.Runtime.WallSeconds, rep.Runtime.NumCPU)
	if w, ok := rep.Runtime.Gauges["mc_workers"]; ok {
		fmt.Fprintf(&b, ", mc workers %g", w)
	}
	b.WriteByte('\n')
	// Walk the span tree printing full paths; intermediate path segments
	// carry no observations of their own (n = 0), so only observed nodes
	// make a line.
	var walk func(prefix string, spans []SpanSnapshot)
	walk = func(prefix string, spans []SpanSnapshot) {
		for _, sp := range spans {
			path := sp.Name
			if prefix != "" {
				path = prefix + "/" + sp.Name
			}
			if sp.Count > 0 {
				fmt.Fprintf(&b, "  span %-30s n=%d total=%.3fs\n", path, sp.Count, sp.TotalSeconds)
			}
			walk(path, sp.Children)
		}
	}
	walk("", rep.Runtime.Spans)
	return b.String()
}
