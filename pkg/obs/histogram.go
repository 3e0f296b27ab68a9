package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram with inclusive upper edges
// (Prometheus `le` semantics): an observation v lands in the first
// bucket whose edge >= v, or in the overflow bucket past the last edge.
// Observe and Snapshot are lock-free and safe for concurrent use.
//
// Snapshot is deliberately not a torn-read-free atomic cut: buckets are
// read one by one while observations continue, so Sum can run ahead of or
// behind the buckets. Count, though, is the sum of the buckets the snapshot
// read — never a separately loaded total — so the cumulative series an
// exporter derives (finite buckets, then +Inf = Count) cannot decrease, the
// guarantee a strict Prometheus scraper checks.
type Histogram struct {
	edges   []float64 // ascending upper edges; immutable after construction
	buckets []atomic.Uint64
	sumBits atomic.Uint64
}

// NewHistogram returns a histogram over the given ascending bucket upper
// edges. It panics on unsorted or empty edges (a construction-time
// programming error).
func NewHistogram(edges []float64) *Histogram {
	if len(edges) == 0 {
		panic("obs: histogram needs at least one bucket edge")
	}
	for i := 1; i < len(edges); i++ {
		if !(edges[i] > edges[i-1]) {
			panic("obs: histogram edges must be strictly ascending")
		}
	}
	cp := make([]float64, len(edges))
	copy(cp, edges)
	return &Histogram{edges: cp, buckets: make([]atomic.Uint64, len(edges)+1)}
}

// ExponentialBuckets returns n upper edges start, start·factor,
// start·factor², …
func ExponentialBuckets(start, factor float64, n int) []float64 {
	edges := make([]float64, n)
	v := start
	for i := range edges {
		edges[i] = v
		v *= factor
	}
	return edges
}

// DefLatencyBuckets spans 1µs to ~16.8s in powers of two — wide enough
// for both the sub-millisecond kernel path and cold mmap opens.
var DefLatencyBuckets = ExponentialBuckets(1e-6, 2, 25)

// DefSizeBuckets spans 1 to 4096 in powers of two, for batch sizes and
// fan-out counts.
var DefSizeBuckets = ExponentialBuckets(1, 2, 13)

// Observe records v. No-op on nil. NaN observations count toward the
// overflow bucket so Count stays consistent with the bucket sum.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// SearchFloat64s finds the first edge >= v for the inclusive-le
	// bucket; the NaN comparison false-everywhere quirk routes NaN to
	// the overflow bucket naturally.
	i := sort.SearchFloat64s(h.edges, v)
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram. The zero
// value is a valid empty snapshot that any snapshot can be merged into.
type HistogramSnapshot struct {
	Edges   []float64 // bucket upper edges, ascending
	Buckets []uint64  // len(Edges)+1; last is the overflow bucket
	Count   uint64
	Sum     float64
}

// Snapshot copies the current bucket counts. An empty snapshot on nil.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Edges:   h.edges,
		Buckets: make([]uint64, len(h.buckets)),
		Sum:     math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	return s
}

// Merge folds o into s. A zero-value s adopts o's shape; otherwise the
// edge sets must match (same registry-wide bucket layout), which is a
// programming error if violated, hence the panic.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	if len(o.Buckets) == 0 {
		return
	}
	if len(s.Buckets) == 0 {
		s.Edges = o.Edges
		s.Buckets = make([]uint64, len(o.Buckets))
		copy(s.Buckets, o.Buckets)
		s.Count = o.Count
		s.Sum = o.Sum
		return
	}
	if len(s.Edges) != len(o.Edges) {
		panic("obs: merging histograms with different bucket layouts")
	}
	for i, e := range s.Edges {
		if e != o.Edges[i] {
			panic("obs: merging histograms with different bucket layouts")
		}
	}
	for i, b := range o.Buckets {
		s.Buckets[i] += b
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Quantile returns the upper edge of the bucket holding the nearest-rank
// sample for q in (0,1] (index ⌈q·n⌉ in 1-based order), so histogram
// percentiles agree with exact-sample nearest-rank percentiles whenever
// the observed values sit on bucket edges. Observations past the last
// edge report the last finite edge (the histogram cannot resolve them
// further). Returns 0 for an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Edges) == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, b := range s.Buckets {
		cum += b
		if cum >= rank {
			if i >= len(s.Edges) {
				return s.Edges[len(s.Edges)-1]
			}
			return s.Edges[i]
		}
	}
	return s.Edges[len(s.Edges)-1]
}

// Mean returns Sum/Count, 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}
