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
	a := NewAESA(db)
	return &IAESA{db: a.db, matrix: a.matrix}
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
	checkK(k, a.db.N())
	h := newKNNHeap(k)
	stats := a.search(q, func(id int, d float64) float64 {
		h.push(Result{ID: id, Distance: d})
		return h.bound()
	}, math.Inf(1))
	return h.results(), stats
}

// Range implements Index.
func (a *IAESA) Range(q metric.Point, r float64) ([]Result, Stats) {
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

// search mirrors AESA's approximate-and-eliminate loop with
// permutation-based approximation. The permutation state is maintained
// incrementally: each candidate keeps the footrule between its ranking of
// the measured pivots and the query's, updated by insertion as each new
// pivot's distance becomes known.
func (a *IAESA) search(q metric.Point, visit func(id int, d float64) float64, radius0 float64) Stats {
	n := a.db.N()
	lower := make([]float64, n)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	// measured pivot ids in measurement order, with their query distances.
	var pivots []int
	var pivotQD []float64
	radius := radius0
	evals := 0

	// footrule(i) computes the Spearman footrule between the query's and
	// candidate i's rankings of the measured pivots. m = |pivots| stays
	// small in practice (AESA-family searches measure few points), so the
	// O(m log m) per-candidate cost per step is acceptable and keeps the
	// implementation transparently close to the published algorithm.
	queryRank := func() []int {
		return rankOrder(pivotQD)
	}
	candidateRank := func(i int) []int {
		ds := make([]float64, len(pivots))
		for pi, p := range pivots {
			ds[pi] = a.matrix[i][p]
		}
		return rankOrder(ds)
	}

	for remaining := n; remaining > 0; {
		// Approximation: first pivot is the candidate with index 0 by
		// convention; afterwards, the live candidate whose partial
		// distance permutation is closest to the query's.
		best := -1
		if len(pivots) == 0 {
			for i := 0; i < n; i++ {
				if alive[i] {
					best = i
					break
				}
			}
		} else {
			qr := queryRank()
			bs := math.MaxInt // footrule is integral; the integer kernel is
			// the same one the PermIndex table path runs per distinct row.
			for i := 0; i < n; i++ {
				if !alive[i] {
					continue
				}
				if f := footruleRanks(qr, candidateRank(i)); f < bs {
					best, bs = i, f
				}
			}
		}
		if best < 0 {
			break
		}
		alive[best] = false
		remaining--
		if lower[best] > radius {
			continue // eliminated candidate surfaced; skip, keep scanning
		}
		d := a.db.Metric.Distance(q, a.db.Points[best])
		evals++
		radius = visit(best, d)
		pivots = append(pivots, best)
		pivotQD = append(pivotQD, d)
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
