package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"recoveryblocks/internal/obs"
)

// tracer records the benchmark's own spans around its calls into the
// engine's layers, with the deterministic internal/obs counter deltas each
// span covers. Spans stay in memory until the run writes them out. A nil
// *tracer is the untraced run: every method is a no-op.
type tracer struct {
	reg    *obs.Registry
	t0     time.Time
	names  []string // deterministic counters snapshotted at span boundaries
	spans  []span
	stack  []int
	before [][]int64 // counter snapshot at each open span's start, by span id
}

// span is one recorded interval. Parent is -1 for a root.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"`
	Name    string           `json:"name"`
	StartMS float64          `json:"start_ms"`
	DurMS   float64          `json:"dur_ms"`
	SelfMS  float64          `json:"self_ms"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// newTracer installs a fresh internal/obs registry and starts recording.
// Engine objects resolve their counter handles at construction, so models
// must be built after this call for their work to be counted.
func newTracer() *tracer {
	t := &tracer{reg: obs.Enable(), t0: time.Now()}
	for _, d := range obs.Catalog {
		if d.Kind == obs.KindCounter && !d.Runtime && !strings.HasSuffix(d.Name, "*") {
			t.names = append(t.names, d.Name)
		}
	}
	return t
}

func (t *tracer) snapshot() []int64 {
	out := make([]int64, len(t.names))
	for i, n := range t.names {
		out[i] = t.reg.Counter(n).Value()
	}
	return out
}

// begin opens a span nested in the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.before = append(t.before, t.snapshot())
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		StartMS: ms(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.DurMS = ms(time.Since(t.t0)) - s.StartMS
	after := t.snapshot()
	for i, v := range after {
		if d := v - t.before[id][i]; d != 0 {
			if s.Counts == nil {
				s.Counts = make(map[string]int64)
			}
			s.Counts[t.names[i]] = d
		}
	}
	t.before[id] = nil
	if top := t.stack[len(t.stack)-1]; top != id {
		panic("perfbench: span " + s.Name + " closed out of order")
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func() error) error {
	id := t.begin(name)
	err := fn()
	t.end(id)
	return err
}

// finish disables the registry and fills in every span's self time: its
// duration minus the part of it that its children cover.
func (t *tracer) finish() {
	obs.Disable()
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range t.spans {
		t.spans[i].SelfMS = t.spans[i].DurMS - covered(kids[i])
	}
}

// covered is the length of the union of the children's intervals.
func covered(children []span) float64 {
	sort.Slice(children, func(a, b int) bool { return children[a].StartMS < children[b].StartMS })
	total, end := 0.0, -1.0
	for _, c := range children {
		lo, hi := c.StartMS, c.StartMS+c.DurMS
		if lo < end {
			lo = end
		}
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return total
}

// descendants returns the spans below root (excluding root).
func (t *tracer) descendants(root int) []span {
	in := map[int]bool{root: true}
	var out []span
	for _, s := range t.spans[root+1:] {
		if in[s.Parent] {
			in[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

// roots returns the ids of the root spans with the given name.
func (t *tracer) roots(name string) []int {
	var ids []int
	for _, s := range t.spans {
		if s.Parent < 0 && s.Name == name {
			ids = append(ids, s.ID)
		}
	}
	return ids
}

// traceFile is what a traced run writes when it ends.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Host     host               `json:"host"`
	Layer    map[string]float64 `json:"per_layer"`
	ByName   []nameTotal        `json:"by_name"`
	Spans    []span             `json:"spans"`
}

// nameTotal aggregates the spans of one name.
type nameTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// write stores the spans, per-name totals and per-layer metrics as JSON in
// dir and returns the file's path.
func (t *tracer) write(dir, workload string, seed int64, h host, layer map[string]float64) (string, error) {
	agg := make(map[string]*nameTotal)
	for _, s := range t.spans {
		a := agg[s.Name]
		if a == nil {
			a = &nameTotal{Name: s.Name}
			agg[s.Name] = a
		}
		a.Count++
		a.TotalMS += s.DurMS
		a.SelfMS += s.SelfMS
	}
	f := traceFile{Workload: workload, Seed: seed, Host: h, Layer: layer, Spans: t.spans}
	for _, a := range agg {
		f.ByName = append(f.ByName, *a)
	}
	sort.Slice(f.ByName, func(i, j int) bool { return f.ByName[i].SelfMS > f.ByName[j].SelfMS })
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+"-seed"+itoa(seed)+".json")
	return path, os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
