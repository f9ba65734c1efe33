// Package obs is the observability layer of the repository: atomic counters,
// gauges, mergeable histograms and hierarchical run-spans, collected behind a
// single globally installed Registry and exported as a structured JSON run
// report and a human-readable summary.
//
// The design contract is zero overhead when off. The package-level accessors
// (C, G, H, StartSpan) load one atomic pointer; when no registry is installed
// they return nil, and every method of Counter, Gauge, Histogram and Span is
// nil-receiver-safe, so an instrumentation site is a pointer load, a nil
// check, and nothing else. Hot loops are never instrumented per event:
// the Monte Carlo engine and the simulators count locally per block and fold
// the totals into the registry once per block or once per run, which keeps
// the zero-alloc simulator cores untouched (pinned by BenchmarkObsOverhead).
//
// Determinism: metrics declared deterministic in the Catalog must be
// worker-invariant and rerun-invariant for a fixed seed — integer counts of
// work actually performed (blocks, events, solver sweeps, router decisions),
// never timings. Atomic integer addition is commutative, so concurrent
// workers folding block totals in any order reach the same value. Everything
// scheduling- or clock-dependent (durations, per-worker distributions,
// imbalance) is quarantined in the report's runtime section. The CLI
// regression in cmd/rbrepro pins the split: the deterministic section is
// bit-identical across -workers 1/4/16 and same-seed reruns.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds every metric of one observability session. A fresh registry
// is installed by Enable and read back by Report/WriteJSON/Summary;
// instrumentation sites reach it through the package-level accessors.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	root     *spanNode
	start    time.Time
}

// global is the currently installed registry; nil means observability is off.
var global atomic.Pointer[Registry]

// Enable installs a fresh registry (discarding any previous one) and returns
// it. Until Disable is called, every instrumentation site in the repository
// records into it.
func Enable() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		root:     newSpanNode(),
		start:    time.Now(),
	}
	global.Store(r)
	return r
}

// Disable uninstalls the registry; instrumentation reverts to the free
// disabled path.
func Disable() { global.Store(nil) }

// Current returns the installed registry, or nil when observability is off.
func Current() *Registry { return global.Load() }

// Enabled reports whether a registry is installed.
func Enabled() bool { return global.Load() != nil }

// Counter is a monotonically increasing atomic count. The zero value is
// ready; a nil receiver is a no-op.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically stored float64 level. A nil receiver is a no-op.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// SetMax raises the gauge to v if v exceeds the stored value.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the stored level (0 for a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Counter returns (creating on first use) the named counter. Nil-safe: a nil
// registry returns a nil handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating on first use) the named histogram. Bucket
// boundaries come from the metric's Catalog entry, falling back to size or
// time defaults by name suffix.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram(bucketsFor(name))
		r.hists[name] = h
	}
	return h
}

// C returns the named counter of the current registry, or nil when
// observability is off. The off path is one atomic load.
func C(name string) *Counter { return Current().Counter(name) }
