package sisap

import (
	"sort"

	"distperm/internal/metric"
	"distperm/internal/perm"
)

// LAESA (Linear AESA, Micó/Oncina/Vidal 1994) stores only the distances
// from every database point to m chosen pivots — Θ(mn) floats instead of
// AESA's Θ(n²). A query first measures the distances to the pivots, then
// scans the database in order of increasing pivot-derived lower bound,
// skipping points whose bound proves they cannot qualify. This is the
// structure whose storage the distance-permutation representation compresses
// (O(nm log n) bits → O(n log #perms)), the comparison at the heart of the
// paper's §1.
type LAESA struct {
	db     *DB
	pivots []int       // database indexes of the pivots
	table  [][]float64 // table[p][i] = d(points[pivots[p]], points[i])
}

// NewLAESA builds a LAESA index with the given pivot IDs (database
// indexes). Construction costs m·n metric evaluations.
func NewLAESA(db *DB, pivots []int) *LAESA {
	if len(pivots) == 0 {
		panic("sisap: LAESA requires at least one pivot")
	}
	table := make([][]float64, len(pivots))
	for p, id := range pivots {
		row := make([]float64, db.N())
		pivot := db.Point(id)
		for i := range row {
			row[i] = db.Metric.Distance(pivot, db.Point(i))
		}
		table[p] = row
	}
	return &LAESA{db: db, pivots: append([]int(nil), pivots...), table: table}
}

// NewLAESAMaxSpread builds a LAESA index with m pivots chosen by the
// classical greedy max-min-distance heuristic: the first pivot is point 0,
// each subsequent pivot maximises its minimum distance to the pivots chosen
// so far. Construction cost is O(mn) metric evaluations.
func NewLAESAMaxSpread(db *DB, m int) *LAESA {
	if m < 1 || m > db.N() {
		panic("sisap: pivot count out of range")
	}
	pivots := []int{0}
	minDist := make([]float64, db.N())
	for i := range minDist {
		minDist[i] = db.Metric.Distance(db.Point(0), db.Point(i))
	}
	for len(pivots) < m {
		best, bestD := -1, -1.0
		for i, d := range minDist {
			if d > bestD {
				best, bestD = i, d
			}
		}
		pivots = append(pivots, best)
		for i := range minDist {
			if d := db.Metric.Distance(db.Point(best), db.Point(i)); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	return NewLAESA(db, pivots)
}

// Name implements Index.
func (l *LAESA) Name() string { return "laesa" }

// IndexBits implements Index: m·n distances at 64 bits — the paper's
// O(nk log n) storage figure, with log n standing for the float width.
func (l *LAESA) IndexBits() int64 {
	return int64(len(l.pivots)) * int64(l.db.N()) * 64
}

// Pivots returns the pivot database indexes.
func (l *LAESA) Pivots() []int { return append([]int(nil), l.pivots...) }

// lowerBounds measures the query-to-pivot distances (returned in qd, one
// metric evaluation each) and computes for every database point the best
// pivot-derived lower bound max_p |d(q, pivot_p) − table[p][i]|, each
// shrunk by lowerBound's rounding slack (the raw float bound drops points
// lying exactly on a range query's radius).
func (l *LAESA) lowerBounds(q metric.Point) (lb, qd []float64) {
	qd = make([]float64, len(l.pivots))
	for p, id := range l.pivots {
		qd[p] = l.db.Metric.Distance(q, l.db.Point(id))
	}
	lb = make([]float64, l.db.N())
	for i := range lb {
		for p := range l.pivots {
			if b := lowerBound(qd[p], l.table[p][i]); b > lb[i] {
				lb[i] = b
			}
		}
	}
	return lb, qd
}

// KNN implements Index.
func (l *LAESA) KNN(q metric.Point, k int) ([]Result, Stats) {
	return searchKNN(l, l.db.N(), q, k)
}

// Range implements Index.
func (l *LAESA) Range(q metric.Point, r float64) ([]Result, Stats) {
	return searchRange(l, q, r)
}

// search offers the pivots (already measured), then every other point whose
// lower bound does not exceed c's limit. kNN scans in increasing lower-bound
// order so the limit tightens as early as possible; a range query's limit is
// fixed and the order moot, so it scans in memory order.
func (l *LAESA) search(q metric.Point, c *collector) Stats {
	lb, qd := l.lowerBounds(q)
	evals := len(l.pivots)
	isPivot := make(map[int]bool, len(l.pivots))
	for p, id := range l.pivots {
		if !isPivot[id] {
			isPivot[id] = true
			c.add(id, qd[p])
		}
	}
	order := []int(perm.Identity(len(lb)))
	if c.h != nil {
		order = argsort(lb)
	}
	for _, i := range order {
		if isPivot[i] || lb[i] > c.limit() {
			continue
		}
		c.add(i, l.db.Metric.Distance(q, l.db.Point(i)))
		evals++
	}
	return Stats{DistanceEvals: evals}
}

func argsort(x []float64) []int {
	idx := perm.Identity(len(x))
	sort.SliceStable(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	return idx
}
