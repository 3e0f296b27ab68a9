package sisap

import (
	"math"

	"distperm/internal/metric"
)

// AESA (Approximating and Eliminating Search Algorithm, Vidal 1986) stores
// the complete n×n pairwise-distance matrix. At query time it alternates
// approximation (pick the live candidate with the smallest accumulated
// lower bound, measure its true distance) with elimination (use the
// triangle inequality |d(q,p) − d(p,x)| ≤ d(q,x) to discard candidates).
// Search cost is famously near-constant in distance evaluations, at the
// price of Θ(n²) precomputation and storage — the trade-off the paper's
// §1 explains makes pure AESA impractical, motivating LAESA and distance
// permutations.
type AESA struct {
	db     *DB
	matrix [][]float64 // matrix[i][j] = d(points[i], points[j])
}

// NewAESA builds the full distance matrix: n(n−1)/2 metric evaluations.
func NewAESA(db *DB) *AESA {
	n := db.N()
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := db.Metric.Distance(db.Points[i], db.Points[j])
			m[i][j] = d
			m[j][i] = d
		}
	}
	return &AESA{db: db, matrix: m}
}

// Name implements Index.
func (a *AESA) Name() string { return "aesa" }

// IndexBits implements Index: n² float64 entries (the symmetric half could
// halve this; the classical description stores the full matrix).
func (a *AESA) IndexBits() int64 {
	n := int64(a.db.N())
	return n * n * 64
}

// KNN implements Index.
func (a *AESA) KNN(q metric.Point, k int) ([]Result, Stats) {
	checkK(k, a.db.N())
	h := newKNNHeap(k)
	stats := a.search(q, func(id int, d float64) float64 {
		h.push(Result{ID: id, Distance: d})
		return h.bound()
	}, math.Inf(1))
	return h.results(), stats
}

// Range implements Index.
func (a *AESA) Range(q metric.Point, r float64) ([]Result, Stats) {
	var out []Result
	stats := a.search(q, func(id int, d float64) float64 {
		if d <= r {
			out = append(out, Result{ID: id, Distance: d})
		}
		return r
	}, r)
	sortResults(out)
	return out, stats
}

// search runs the approximate-and-eliminate loop. visit is called with each
// measured point and returns the current pruning radius: candidates whose
// lower bound exceeds it are eliminated. radius0 is the initial pruning
// radius.
func (a *AESA) search(q metric.Point, visit func(id int, d float64) float64, radius0 float64) Stats {
	n := a.db.N()
	lower := make([]float64, n) // accumulated lower bound on d(q, x)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	radius := radius0
	evals := 0
	for remaining := n; remaining > 0; {
		// Approximation step: live candidate with the smallest lower
		// bound (the "most promising" pivot).
		best, bestLB := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if alive[i] && lower[i] < bestLB {
				best, bestLB = i, lower[i]
			}
		}
		if best < 0 {
			break
		}
		alive[best] = false
		remaining--
		if bestLB > radius {
			// Even the most promising candidate is excluded; all
			// remaining candidates are too.
			break
		}
		d := a.db.Metric.Distance(q, a.db.Points[best])
		evals++
		radius = visit(best, d)
		// Elimination step: tighten lower bounds through the new pivot.
		row := a.matrix[best]
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			lb := lowerBound(d, row[i])
			if lb > lower[i] {
				lower[i] = lb
			}
			if lower[i] > radius {
				alive[i] = false
				remaining--
			}
		}
	}
	return Stats{DistanceEvals: evals}
}
