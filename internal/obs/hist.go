package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
)

// Histogram bins observations into fixed upper-bound buckets (an implicit
// +Inf bucket catches the rest), tracking count, sum, min and max. It follows
// the merge idiom of internal/stats.Histogram: integer bucket counts make a
// merge exact, so histograms accumulated per block and folded in any order
// equal the one a single sequential pass would build — provided the
// observations themselves are order-invariant. Deterministic-section
// histograms therefore observe integer-valued quantities only (sizes, nnz,
// sweep counts), whose float64 sums are exact and commutative; timing
// histograms live in the runtime section where bit-stability is not claimed.
//
// Histograms come from NewHistogram (the Registry resolves bucket bounds via
// the Catalog); a nil receiver is a no-op on every method, preserving the
// package's zero-overhead-when-off contract.
type Histogram struct {
	mu     sync.Mutex
	uppers []float64 // ascending bucket upper bounds (exclusive of +Inf)
	counts []int64   // len(uppers)+1; last is the +Inf bucket
	n      int64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram builds a histogram with the given ascending upper bounds.
// Unsorted input is sorted; duplicate bounds are tolerated (the later bucket
// simply never fills).
func NewHistogram(uppers []float64) *Histogram {
	us := append([]float64(nil), uppers...)
	sort.Float64s(us)
	return &Histogram{
		uppers: us,
		counts: make([]int64, len(us)+1),
	}
}

// Observe records one observation. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	h.counts[h.bucket(v)]++
}

// bucket returns the index of the first bucket whose upper bound is ≥ v
// (observations land in the bucket labeled by their least upper bound, the
// Prometheus le-convention), or the +Inf bucket.
func (h *Histogram) bucket(v float64) int {
	return sort.SearchFloat64s(h.uppers, v)
}

// N returns the observation count.
func (h *Histogram) N() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the observation sum.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// BucketCount is one exported histogram bucket: the count of observations
// that landed in the bucket with upper bound LE (non-cumulative). LE = +Inf marks the overflow bucket and
// is rendered as the string "+Inf" in JSON, where bare Inf is not
// representable.
type BucketCount struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// MarshalJSON renders the bound with strconv (stable across encoders) and
// the +Inf overflow bucket as a string.
func (b BucketCount) MarshalJSON() ([]byte, error) {
	le := `"+Inf"`
	if !math.IsInf(b.LE, 1) {
		le = strconv.FormatFloat(b.LE, 'g', -1, 64)
	}
	return []byte(fmt.Sprintf(`{"le":%s,"count":%d}`, le, b.Count)), nil
}

// HistSnapshot is the exported state of a histogram; empty buckets are
// elided so reports stay readable.
type HistSnapshot struct {
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	Min     float64       `json:"min"`
	Max     float64       `json:"max"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot copies the histogram state out under the lock.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{Count: h.n, Sum: h.sum, Min: h.min, Max: h.max}
	for i, u := range h.uppers {
		if h.counts[i] != 0 {
			s.Buckets = append(s.Buckets, BucketCount{LE: u, Count: h.counts[i]})
		}
	}
	if last := h.counts[len(h.counts)-1]; last != 0 {
		s.Buckets = append(s.Buckets, BucketCount{LE: math.Inf(1), Count: last})
	}
	return s
}
