package sisap

import (
	"math"

	"distperm/internal/metric"
)

// IAESA is improved AESA (Figueroa, Chávez, Navarro, Paredes 2006): the
// same full pairwise-distance matrix and triangle-inequality elimination as
// AESA, but the next candidate to measure is chosen by *distance
// permutation* rather than by smallest accumulated lower bound. Both the
// query and every live candidate rank the already-measured points by
// distance; the candidate whose ranking most resembles the query's (smallest
// Spearman footrule between the partial permutations) is measured next.
// This is the search-time use of distance permutations whose storage the
// paper's counting results bound, and the algorithm the paper cites as
// improving search speed over AESA.
type IAESA struct {
	db     *DB
	matrix [][]float64
}

// NewIAESA builds the index: the full distance matrix, n(n−1)/2 metric
// evaluations, same as AESA.
func NewIAESA(db *DB) *IAESA {
	return &IAESA{db: db, matrix: NewAESA(db).matrix}
}

// Name implements Index.
func (a *IAESA) Name() string { return "iaesa" }

// IndexBits implements Index: the same n² matrix as AESA.
func (a *IAESA) IndexBits() int64 {
	n := int64(a.db.N())
	return n * n * 64
}

// KNN implements Index.
func (a *IAESA) KNN(q metric.Point, k int) ([]Result, Stats) {
	return searchKNN(a, a.db.N(), q, k)
}

// Range implements Index.
func (a *IAESA) Range(q metric.Point, r float64) ([]Result, Stats) {
	return searchRange(a, q, r)
}

// search is AESA's loop with permutation-based approximation: the next
// candidate is the live one whose ranking of the measured pivots has the
// smallest Spearman footrule to the query's. Before anything is measured
// every footrule is 0 and the first live candidate wins — candidate 0, by
// convention. m = |pivots| stays small in practice (AESA-family searches
// measure few points), so the O(m log m) per-candidate cost per step is
// acceptable and keeps the implementation transparently close to the
// published algorithm.
func (a *IAESA) search(q metric.Point, c *collector) Stats {
	return eliminate(a.db, a.matrix, q, c, func(alive []bool, _ []float64, pivots []int, qd []float64) int {
		qr := rankOrder(qd)
		ds := make([]float64, len(pivots))
		best, bs := -1, math.MaxInt // footrule is integral; the integer kernel is
		// the same one the PermIndex table path runs per distinct row.
		for i, live := range alive {
			if !live {
				continue
			}
			for pi, p := range pivots {
				ds[pi] = a.matrix[i][p]
			}
			if f := footruleRanks(qr, rankOrder(ds)); f < bs {
				best, bs = i, f
			}
		}
		return best
	})
}

// rankOrder returns, for each index position, the rank of that entry when
// the values are sorted ascending (ties by index) — the inverse distance
// permutation of the value vector.
func rankOrder(vals []float64) []int {
	order := argsort(vals)
	ranks := make([]int, len(vals))
	for r, idx := range order {
		ranks[idx] = r
	}
	return ranks
}
