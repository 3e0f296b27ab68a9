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
			d := db.Metric.Distance(db.Point(i), db.Point(j))
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
	return searchKNN(a, a.db.N(), q, k)
}

// Range implements Index.
func (a *AESA) Range(q metric.Point, r float64) ([]Result, Stats) {
	return searchRange(a, q, r)
}

// search approximates by the live candidate with the smallest accumulated
// lower bound (the "most promising" pivot).
func (a *AESA) search(q metric.Point, c *collector) Stats {
	return eliminate(a.db, a.matrix, q, c, func(alive []bool, lower []float64, _ []int, _ []float64) int {
		best, bestLB := -1, math.Inf(1)
		for i, live := range alive {
			if live && lower[i] < bestLB {
				best, bestLB = i, lower[i]
			}
		}
		return best
	})
}

// eliminate is the approximate-and-eliminate loop AESA and iAESA share over
// a full distance matrix. A candidate is alive while its accumulated lower
// bound on d(q, x) does not exceed c's limit. Each round next picks a live
// candidate (-1 when none is left) — it sees who is alive, the lower bounds,
// and the pivots measured so far with their query distances, in measurement
// order — the candidate is measured, offered to c, and becomes a pivot
// through which the triangle inequality tightens the other bounds.
func eliminate(db *DB, matrix [][]float64, q metric.Point, c *collector, next func(alive []bool, lower []float64, pivots []int, qd []float64) int) Stats {
	lower := make([]float64, db.N())
	alive := make([]bool, db.N())
	for i := range alive {
		alive[i] = !(lower[i] > c.limit())
	}
	var pivots []int
	var qd []float64
	for best := next(alive, lower, pivots, qd); best >= 0; best = next(alive, lower, pivots, qd) {
		alive[best] = false
		d := db.Metric.Distance(q, db.Point(best))
		radius := c.add(best, d)
		pivots, qd = append(pivots, best), append(qd, d)
		// Elimination step: tighten lower bounds through the new pivot.
		row := matrix[best]
		for i, live := range alive {
			if !live {
				continue
			}
			if lb := lowerBound(d, row[i]); lb > lower[i] {
				lower[i] = lb
			}
			alive[i] = !(lower[i] > radius)
		}
	}
	return Stats{DistanceEvals: len(pivots)}
}
