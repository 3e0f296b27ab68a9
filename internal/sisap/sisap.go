// Package sisap reimplements the relevant slice of the SISAP metric-space
// library that the paper's experiments were built on: a database of points
// under an expensive metric, and a family of index structures that answer
// k-nearest-neighbour and range queries while minimising the number of
// metric evaluations.
//
// Implemented indexes:
//
//   - LinearScan: the naive baseline (n distance evaluations per query).
//   - AESA: full pairwise-distance matrix, lower-bound elimination
//     (Vidal 1986) — the Θ(n²) storage extreme the paper motivates against.
//   - LAESA: distances to k pivots only (Micó/Oncina/Vidal 1994) —
//     Θ(kn·64) bits.
//   - PermIndex: the distperm index (Chávez/Figueroa/Navarro 2005) —
//     stores only each point's distance permutation, candidate order by
//     permutation distance (iAESA-style), Θ(n·lg(#perms)) bits. This is
//     the structure whose storage the paper's counting results bound.
//   - VPTree, GHTree: classical metric trees (Uhlmann 1991, Yianilos 1993)
//     for exact search, cited by the paper as the tree-structured
//     alternatives.
//
// Every query reports the number of metric evaluations via Stats, the cost
// model the whole literature (and the paper's §1) uses.
//
// Each kind has exactly one traversal, search(q, *collector): it offers
// every point it measures to the collector and skips what the collector's
// limit excludes. A collector (measure.go) is the k best so far in a bounded
// heap, its limit the k-th distance, or everything within a radius, its
// limit the radius — so KNN and Range are one walk under two collectors,
// written once (searchKNN, searchRange) for every kind; the ShardedIndex
// container walks its members into the same collector. A collector answers
// in a Scope: IDs renamed, and a dead set measured but never collected, so a
// mutated store's walk prunes at its k-th live distance. A MutableIndex walks
// its base that way and lays its delta over the answer (Overlay), the step
// pkg/distperm's engines take after walking their shards (Walk). All
// six pruning kinds skip through slackGap/lowerBound (measure.go) — a raw
// float triangle bound drops points lying exactly on the limit — whose
// rounding argument covers L1, L2 and L∞ only.
package sisap

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"distperm/internal/metric"
)

// DB is an immutable database of points under a metric: neither Points nor
// the vectors in it may be modified once NewDB has returned. Read a point
// through Point and the size through N: a self-contained frozen store
// (frozen.go) under L1, L2 or L∞ has no Points and boxes a view of a point's
// coordinates only when Point asks for it.
type DB struct {
	Metric metric.Metric
	Points []metric.Point // point i by ID; nil in a self-contained frozen store
	// block packs the coordinates of a database whose points are all
	// metric.Vectors of one dimension dim > 0: point i is
	// block[i*dim:(i+1)*dim], and Points[i] is a view of exactly that range,
	// so the coordinates are held once. dim == 0 means "not packed" (any
	// other point type, ragged or empty vectors) and every scan goes through
	// Metric.Distance. The block may be a read-only file mapping.
	block []float64
	dim   int
	n     int
	// order labels the block's rows when they are not in ID order: row j is
	// point order[j], and point id is row rowOf[id]. nil, what NewDB makes, is
	// the identity; a self-contained frozen container opens to the
	// directory's posting list.
	order, rowOf []uint32
}

// NewDB returns a database. The point slice is retained, not copied; when
// every point is a metric.Vector of one dimension the coordinates are
// packed into one contiguous block and the slice's entries are replaced by
// equal-valued views into it (see DB.measure for what that buys).
func NewDB(m metric.Metric, points []metric.Point) *DB {
	if len(points) == 0 {
		panic("sisap: empty database")
	}
	db := &DB{Metric: m, Points: points, n: len(points)}
	first, _ := points[0].(metric.Vector)
	d := len(first)
	for _, p := range points {
		if v, ok := p.(metric.Vector); !ok || len(v) != d || d == 0 {
			return db
		}
	}
	block := make([]float64, 0, len(points)*d)
	for _, p := range points {
		block = append(block, p.(metric.Vector)...)
	}
	for i := range points {
		points[i] = metric.Vector(block[i*d : (i+1)*d : (i+1)*d])
	}
	db.block, db.dim = block, d
	return db
}

// prefix returns the database of the first n points, sharing Points and the
// block with db; a proper prefix of reordered rows is no run of the block and
// is served unpacked.
func (db *DB) prefix(n int) *DB {
	switch {
	case n == db.n:
		return db
	case db.order != nil:
		return &DB{Metric: db.Metric, Points: db.points(0, n), n: n}
	}
	return &DB{Metric: db.Metric, Points: db.Points[:n], block: db.block[:n*db.dim], dim: db.dim, n: n}
}

// row returns point id's coordinates in a packed database.
func (db *DB) row(id int) []float64 {
	if db.rowOf != nil {
		id = int(db.rowOf[id])
	}
	return db.block[id*db.dim : (id+1)*db.dim : (id+1)*db.dim]
}

// Point returns point id: Points[id], or in a store without Points a view
// of its coordinates, boxed on each call.
func (db *DB) Point(id int) metric.Point {
	if db.Points == nil {
		return metric.Vector(db.row(id))
	}
	return db.Points[id]
}

// points returns points lo..hi-1, boxing them where db has no Points.
func (db *DB) points(lo, hi int) []metric.Point {
	if db.Points != nil {
		return db.Points[lo:hi:hi]
	}
	pts := make([]metric.Point, hi-lo)
	for i := range pts {
		pts[i] = db.Point(lo + i)
	}
	return pts
}

// N returns the database size.
func (db *DB) N() int { return db.n }

// Result is one answer to a proximity query: a database point index and its
// distance to the query. The JSON tags are its wire form (pkg/dpserver).
type Result struct {
	ID       int     `json:"id"`
	Distance float64 `json:"distance"`
}

// Stats reports the cost of a query in the metric-evaluation cost model.
type Stats struct {
	// DistanceEvals counts metric evaluations between the query and
	// database points (site/pivot distances included).
	DistanceEvals int
	// PrunedEvals counts the database points an exact query did not measure
	// because a metric bound excluded them (what the bound saved).
	PrunedEvals int
}

// Index answers proximity queries over a DB. Every index of this package
// may be queried from any number of goroutines at once.
type Index interface {
	// Name identifies the index type.
	Name() string
	// KNN returns the k nearest database points to q in increasing
	// distance order (ties broken by lower ID), plus query cost.
	KNN(q metric.Point, k int) ([]Result, Stats)
	// Range returns all database points within radius r of q (inclusive),
	// in increasing distance order, plus query cost.
	Range(q metric.Point, r float64) ([]Result, Stats)
	// IndexBits estimates the index's storage cost in bits, excluding the
	// points themselves — the quantity the paper's analysis is about.
	IndexBits() int64
}

// ApproxStats extends Stats with the probe accounting of an approximate
// query. ProbedBuckets and TotalBuckets report the probe set against the
// directory size, Candidates the points in the probed buckets (the candidate
// fraction is Candidates over the database size); Stats counts the k sites
// plus the candidates measured in DistanceEvals, and the rest, which the
// walk's bounds excluded, in PrunedEvals.
type ApproxStats struct {
	Stats
	ProbedBuckets int
	TotalBuckets  int
	Candidates    int
	// Exact reports that the probe set covered every bucket, so the exact
	// scan answered and the results are byte-identical to KNN.
	Exact bool
}

// ApproxIndex is the approximate-search capability: an index that can
// trade bounded recall for a smaller candidate set, steered by nprobe
// (how many inverted-file buckets to probe; ≤ 0 selects the index's
// default, ≥ the directory size degrades to the exact scan with
// byte-identical answers). Recall must be monotone non-decreasing in
// nprobe. Engines detect this interface on each segment's index.
type ApproxIndex interface {
	Index
	// KNNApprox answers one approximate kNN query.
	KNNApprox(q metric.Point, k, nprobe int) ([]Result, ApproxStats)
	// ApproxBuckets returns the inverted-file directory size nprobe is
	// measured against.
	ApproxBuckets() int
}

// QueryReplica returns x: every index answers concurrent queries. It is kept
// only for perflab, whose ladder still calls it.
func QueryReplica(x Index) Index { return x }

// searcher is an index kind's one traversal: search offers every point it
// measures to c, skips whatever a metric bound proves farther than c.limit()
// (strictly, so equal-distance ties are still seen), and reports the cost.
// What c collects decides whether the walk was a kNN or a range query.
type searcher interface {
	search(q metric.Point, c *collector) Stats
}

// Walks reports whether x's walk sees a Scope's dead set: x is of this package.
func Walks(x Index) bool { _, ok := x.(searcher); return ok }

// searchKNN is Index.KNN over x of n points: a heap collector.
func searchKNN(x Index, n int, q metric.Point, k int) ([]Result, Stats) {
	checkK(k, n)
	return Scope{}.Search(x, q, k, 0)
}

// searchRange is Index.Range over x: a radius collector.
func searchRange(x Index, q metric.Point, r float64) ([]Result, Stats) {
	return Scope{}.Search(x, q, 0, r)
}

// Search is x.KNN(q, k), or x.Range(q, r) when k is 0, in scope sc: a kNN
// answer is shorter than k when fewer than k points are left. It is a Walk
// of the one member x.
func (sc Scope) Search(x Index, q metric.Point, k int, r float64) ([]Result, Stats) {
	w := NewWalk(k, r, sc.Dead)
	st := w.Search(x, sc.Part, q)
	return w.Results(), st
}

// sortResults orders results by (distance, id).
func sortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		return cmp.Or(cmp.Compare(a.Distance, b.Distance), cmp.Compare(a.ID, b.ID))
	})
}

// knnHeap maintains the current k best candidates as a bounded max-heap
// keyed by (distance, id), so the worst retained candidate is inspectable in
// O(1).
type knnHeap struct {
	k  int
	rs []Result
}

func newKNNHeap(k int) *knnHeap { return &knnHeap{k: k} }

func (h *knnHeap) worse(a, b Result) bool { // a sorts after b
	if a.Distance != b.Distance {
		return a.Distance > b.Distance
	}
	return a.ID > b.ID
}

// bound returns the distance beyond which a candidate cannot enter the heap,
// or +Inf while the heap is not yet full.
func (h *knnHeap) bound() float64 {
	if len(h.rs) < h.k {
		return math.Inf(1)
	}
	return h.rs[0].Distance
}

func (h *knnHeap) push(r Result) {
	if len(h.rs) == h.k {
		if !h.worse(h.rs[0], r) {
			return
		}
		h.rs[0] = r
		h.siftDown(0)
		return
	}
	h.rs = append(h.rs, r)
	// Sift up: in a max-heap the worse entry belongs above.
	i := len(h.rs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.worse(h.rs[i], h.rs[parent]) {
			h.rs[i], h.rs[parent] = h.rs[parent], h.rs[i]
			i = parent
		} else {
			break
		}
	}
}

func (h *knnHeap) siftDown(i int) {
	n := len(h.rs)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h.worse(h.rs[l], h.rs[largest]) {
			largest = l
		}
		if r < n && h.worse(h.rs[r], h.rs[largest]) {
			largest = r
		}
		if largest == i {
			return
		}
		h.rs[i], h.rs[largest] = h.rs[largest], h.rs[i]
		i = largest
	}
}

func checkK(k, n int) {
	if k < 1 || k > n {
		panic(fmt.Sprintf("sisap: k=%d out of range 1..%d", k, n))
	}
}
