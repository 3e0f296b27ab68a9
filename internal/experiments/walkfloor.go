package experiments

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"

	"distperm/internal/dataset"
	"distperm/internal/metric"
	"distperm/internal/sisap"
)

// WalkFloor asks how much each lower bound can save the exact walk before
// any of them reaches the serving path. A bucket of the prefix directory is
// the set of points whose permutation starts a₁…a_ℓ: a cell of the
// arrangement of bisectors between sites that the paper counts, so under L2
// a query's distance to it is at least the largest
// (d(q,aₘ)² − d(q,s)²) / 2·d(aₘ,s) over m and the sites s ranked after aₘ.
// The walk's cells cut a bucket by a longer prefix, ℓ', which a cell-level
// bisector term could use as well.
//
// The floor of a bound is how many points a query must measure under it:
// those in cells whose lower bound is at most the true k-th distance, since
// the walk's limit never falls below that. Three floors are reported — the
// site-distance ranges of cell and bucket alone (range), with the bucket's
// bisector term (bucket), and with the cell's over its longer prefix (cell) —
// beside the points the pruned walk (sisap.PermIndex.KNN) actually measured.
// The terms here are exact over every excluded site and carry no rounding
// slack, so they are what a bound of that shape could reach at best.
type WalkFloor struct {
	N, K, Neighbours int
	Rows             []WalkFloorRow
}

// WalkFloorRow is one store: its shape, its prefix lengths, and the mean
// points a query measures under each floor and in the walk.
type WalkFloorRow struct {
	Shape                      string
	D, Ell, CellEll            int
	Range, Bucket, Cell, Evals float64
}

// RunWalkFloor measures the floors on uniform and clustered stores of n =
// cfg.VectorN points in each dimension of dims, k sites, over queries
// queries for the neighbours nearest.
func RunWalkFloor(cfg Config, dims []int, k, queries, neighbours int) *WalkFloor {
	n := cfg.VectorN
	wf := &WalkFloor{N: n, K: k, Neighbours: neighbours}
	for _, d := range dims {
		for _, shape := range []string{"uniform", "clustered"} {
			rng := cfg.rng(80_000 + int64(d))
			pts := dataset.UniformVectors(rng, n+queries, d)
			if shape == "clustered" {
				pts = dataset.ClusteredVectors(rng, n+queries, d, 32, 0.05)
			}
			wf.Rows = append(wf.Rows, walkFloorRow(shape, pts[:n], pts[n:], rng.Perm(n)[:k], neighbours))
		}
	}
	return wf
}

// walkFloorRow builds the index over pts with the given sites and measures
// the floors and the walk over qs.
func walkFloorRow(shape string, pts, qs []metric.Point, siteIDs []int, neighbours int) WalkFloorRow {
	m, n, k := metric.L2{}, len(pts), len(siteIDs)
	db := sisap.NewDB(m, pts)
	idx := sisap.NewPermIndex(db, siteIDs, sisap.Footrule)
	row := WalkFloorRow{Shape: shape, D: len(pts[0].(metric.Vector)), Ell: idx.PrefixLen()}
	siteDist := func(p metric.Point) []float64 {
		out := make([]float64, k)
		for i, id := range siteIDs {
			out[i] = m.Distance(p, pts[id])
		}
		return out
	}
	between := make([][]float64, k)
	for a, id := range siteIDs {
		between[a] = siteDist(pts[id])
	}
	// Every point's permutation, ties to the lower site, as the build orders it.
	dist, order := make([][]float64, n), make([][]int, n)
	for i, p := range pts {
		dist[i], order[i] = siteDist(p), make([]int, k)
		for s := range order[i] {
			order[i][s] = s
		}
		slices.SortStableFunc(order[i], func(a, b int) int { return cmp.Compare(dist[i][a], dist[i][b]) })
	}
	// ℓ' as the walk's cells take it: the longest prefix, up to 8 sites, whose
	// cells hold 32 points on average.
	row.CellEll = row.Ell
	for l := row.Ell + 1; l <= min(8, k); l++ {
		if n < 32*len(groupByPrefix(order, l)) {
			break
		}
		row.CellEll = l
	}
	buckets, cells := groupByPrefix(order, row.Ell), groupByPrefix(order, row.CellEll)
	ranges := func(ids []int) (lo, hi []float64) {
		lo, hi = slices.Repeat([]float64{math.Inf(1)}, k), slices.Repeat([]float64{math.Inf(-1)}, k)
		for _, id := range ids {
			for s, v := range dist[id] {
				lo[s], hi[s] = min(lo[s], v), max(hi[s], v)
			}
		}
		return lo, hi
	}
	type run struct {
		ids                  []int
		lo, hi               []float64
		bucketPref, cellPref []int
	}
	var runs []run
	for _, ids := range cells {
		lo, hi := ranges(ids)
		runs = append(runs, run{ids, lo, hi, order[ids[0]][:row.Ell], order[ids[0]][:row.CellEll]})
	}
	bucketRange := map[string][2][]float64{}
	for key, ids := range buckets {
		lo, hi := ranges(ids)
		bucketRange[key] = [2][]float64{lo, hi}
	}
	rangeLB := func(qd, lo, hi []float64) (lb float64) {
		for s, d := range qd {
			lb = max(lb, d-hi[s], lo[s]-d)
		}
		return lb
	}
	bisectorLB := func(qd []float64, pref []int) (lb float64) {
		for m, a := range pref {
			for s := range k {
				if !slices.Contains(pref[:m+1], s) && between[a][s] > 0 {
					lb = max(lb, (qd[a]*qd[a]-qd[s]*qd[s])/(2*between[a][s]))
				}
			}
		}
		return lb
	}
	linear := sisap.NewLinearScan(db)
	for _, q := range qs {
		want, _ := linear.KNN(q, neighbours)
		limit, qd := want[neighbours-1].Distance, siteDist(q)
		for _, r := range runs {
			br := bucketRange[prefixKey(r.bucketPref)]
			lb := max(rangeLB(qd, r.lo, r.hi), rangeLB(qd, br[0], br[1]))
			bucketLB := max(lb, bisectorLB(qd, r.bucketPref))
			cellLB := max(bucketLB, bisectorLB(qd, r.cellPref))
			for _, f := range []struct {
				sum *float64
				lb  float64
			}{{&row.Range, lb}, {&row.Bucket, bucketLB}, {&row.Cell, cellLB}} {
				if f.lb <= limit {
					*f.sum += float64(len(r.ids))
				}
			}
		}
		_, st := idx.KNN(q, neighbours)
		row.Evals += float64(st.DistanceEvals - k)
	}
	for _, v := range []*float64{&row.Range, &row.Bucket, &row.Cell, &row.Evals} {
		*v /= float64(len(qs))
	}
	return row
}

// groupByPrefix groups the points by the first l sites of their order.
func groupByPrefix(order [][]int, l int) map[string][]int {
	groups := map[string][]int{}
	for i, o := range order {
		key := prefixKey(o[:l])
		groups[key] = append(groups[key], i)
	}
	return groups
}

func prefixKey(p []int) string { return fmt.Sprint(p) }

// Write renders the table.
func (wf *WalkFloor) Write(w io.Writer) {
	fmt.Fprintf(w, "Walk floor: points a %d-NN query must measure, n=%d, k=%d sites, L2\n", wf.Neighbours, wf.N, wf.K)
	fmt.Fprintf(w, "%-10s %3s %3s %4s %10s %10s %10s %10s\n", "shape", "d", "ℓ", "ℓ'", "range", "+bucket", "+cell", "walk")
	for _, r := range wf.Rows {
		fmt.Fprintf(w, "%-10s %3d %3d %4d %10.0f %10.0f %10.0f %10.0f\n", r.Shape, r.D, r.Ell, r.CellEll, r.Range, r.Bucket, r.Cell, r.Evals)
	}
}
