package sisap

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"distperm/internal/counting"
	"distperm/internal/dataset"
	"distperm/internal/metric"
)

func TestPermIndexDistinctWithinBounds(t *testing.T) {
	db, rng := testDB(31, 400, 2, metric.L2{})
	sites := rng.Perm(db.N())[:5]
	pi := NewPermIndex(db, sites, Footrule)
	distinct := pi.DistinctPermutations()
	if distinct < 1 || distinct > db.N() {
		t.Fatalf("distinct = %d out of range", distinct)
	}
	// In 2-d Euclidean, never above N(2,5) = 46.
	if int64(distinct) > counting.EuclideanCount64(2, 5) {
		t.Fatalf("distinct = %d exceeds N(2,5)", distinct)
	}
}

func TestPermIndexScanOrderIsPermutation(t *testing.T) {
	db, rng := testDB(32, 120, 3, metric.L2{})
	pi := NewPermIndex(db, rng.Perm(db.N())[:6], Footrule)
	order, stats := pi.ScanOrder(metric.Vector{0.5, 0.5, 0.5})
	if stats.DistanceEvals != 6 {
		t.Errorf("scan order cost %d evals, want 6 (the sites)", stats.DistanceEvals)
	}
	seen := make([]bool, db.N())
	for _, i := range order {
		if i < 0 || i >= db.N() || seen[i] {
			t.Fatalf("scan order is not a permutation of the database")
		}
		seen[i] = true
	}
	if len(order) != db.N() {
		t.Fatalf("order length %d", len(order))
	}
}

func TestPermIndexBudgetMonotone(t *testing.T) {
	// A larger budget can only improve (not worsen) the best distance
	// found.
	db, rng := testDB(33, 300, 4, metric.L2{})
	pi := NewPermIndex(db, rng.Perm(db.N())[:8], Footrule)
	q := metric.Vector{0.3, 0.6, 0.2, 0.9}
	prev := 1e18
	for _, budget := range []int{1, 5, 20, 100, 300} {
		got, stats := pi.KNNBudget(q, 1, budget)
		if len(got) != 1 {
			t.Fatalf("budget %d: %d results", budget, len(got))
		}
		if got[0].Distance > prev {
			t.Fatalf("budget %d worsened the result", budget)
		}
		prev = got[0].Distance
		if stats.DistanceEvals != budget+8 {
			t.Errorf("budget %d: %d evals, want %d", budget, stats.DistanceEvals, budget+8)
		}
	}
	// Full budget must equal the true nearest neighbour.
	want, _ := NewLinearScan(db).KNN(q, 1)
	got, _ := pi.KNNBudget(q, 1, db.N())
	if got[0].ID != want[0].ID {
		t.Error("exhaustive budget should find the true NN")
	}
}

func TestPermIndexOrderingQuality(t *testing.T) {
	// The reason the structure works: the true NN appears very early in
	// permutation order. Require it in the first 20% on average (it is
	// typically ≪ 5%).
	db, rng := testDB(34, 500, 3, metric.L2{})
	pi := NewPermIndex(db, rng.Perm(db.N())[:10], Footrule)
	total := 0
	const queries = 30
	for i := 0; i < queries; i++ {
		q := dataset.UniformVectors(rng, 1, 3)[0]
		rank, _ := pi.EvalsToFindTrueKNN(q, 1)
		total += rank
	}
	if avg := float64(total) / queries; avg > float64(db.N())/5 {
		t.Errorf("true NN found after %.1f of %d points on average; ordering is not informative", avg, db.N())
	}
}

func TestPermIndexDistanceAblation(t *testing.T) {
	// All three permutation distances must produce correct exhaustive
	// results and valid scan orders.
	db, rng := testDB(35, 200, 3, metric.L2{})
	sites := rng.Perm(db.N())[:7]
	q := metric.Vector{0.5, 0.1, 0.8}
	want, _ := NewLinearScan(db).KNN(q, 3)
	for _, d := range []PermDistance{Footrule, KendallTau, SpearmanRho} {
		pi := NewPermIndex(db, sites, d)
		got, _ := pi.KNN(q, 3)
		sameResults(t, d.String(), got, want)
	}
}

func TestPermDistanceString(t *testing.T) {
	cases := map[PermDistance]string{
		Footrule:         "footrule",
		KendallTau:       "kendall-tau",
		SpearmanRho:      "spearman-rho",
		PermDistance(42): "PermDistance(42)",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

func TestPermIndexStorageAccounting(t *testing.T) {
	db, rng := testDB(36, 1000, 2, metric.L2{})
	pi := NewPermIndex(db, rng.Perm(db.N())[:6], Footrule)
	// 2-d, k=6: at most N(2,6) = 101 distinct permutations, so the
	// shared-table encoding (7 bits/point) must beat naive (10 bits).
	if pi.TableIndexBits() >= pi.NaiveIndexBits() {
		t.Errorf("table encoding %d should beat naive %d here",
			pi.TableIndexBits(), pi.NaiveIndexBits())
	}
	if pi.IndexBits() != pi.TableIndexBits() {
		t.Error("IndexBits should pick the cheaper encoding")
	}
	if pi.K() != 6 {
		t.Errorf("K = %d", pi.K())
	}
}

func TestPermIndexPanicsWithoutSites(t *testing.T) {
	db, _ := testDB(37, 10, 2, metric.L2{})
	defer func() {
		if recover() == nil {
			t.Error("no sites should panic")
		}
	}()
	NewPermIndex(db, nil, Footrule)
}

func TestPermIndexRangeExact(t *testing.T) {
	db, rng := testDB(38, 150, 2, metric.L1{})
	pi := NewPermIndex(db, rng.Perm(db.N())[:5], KendallTau)
	q := metric.Vector{0.4, 0.4}
	want, _ := NewLinearScan(db).Range(q, 0.3)
	got, _ := pi.Range(q, 0.3)
	sameResults(t, "distperm-range", got, want)
}

func TestPermIndexOnEditDistance(t *testing.T) {
	// The index must work over non-vector spaces too (the SISAP
	// dictionaries are its original use case).
	db, rng := stringDB(150)
	pi := NewPermIndex(db, rng.Perm(db.N())[:6], Footrule)
	q := metric.Point(metric.String("permutation"))
	want, _ := NewLinearScan(db).KNN(q, 3)
	got, _ := pi.KNN(q, 3)
	sameResults(t, "distperm-edit", got, want)
	if pi.DistinctPermutations() < 2 {
		t.Error("dictionary should realise multiple permutations")
	}
}

func rankStats(t *testing.T, pi *PermIndex, rng *rand.Rand, d, queries int) float64 {
	t.Helper()
	total := 0
	for i := 0; i < queries; i++ {
		q := dataset.UniformVectors(rng, 1, d)[0]
		rank, _ := pi.EvalsToFindTrueKNN(q, 1)
		total += rank
	}
	return float64(total) / float64(queries)
}

func TestMoreSitesImproveOrdering(t *testing.T) {
	// With more sites the permutation carries more information, so the
	// true NN should be found earlier (on average, with margin).
	db, rng := testDB(39, 600, 4, metric.L2{})
	few := NewPermIndex(db, rng.Perm(db.N())[:2], Footrule)
	many := NewPermIndex(db, rng.Perm(db.N())[:16], Footrule)
	avgFew := rankStats(t, few, rng, 4, 25)
	avgMany := rankStats(t, many, rng, 4, 25)
	if avgMany >= avgFew {
		t.Errorf("16 sites (%.1f) should beat 2 sites (%.1f)", avgMany, avgFew)
	}
}

// TestPermIndexBuildKeys: however a point's site distances are taken — the
// packed kernel under L1, L2 and L∞, Metric.Distance on an unpacked store
// (edit distance on words) — whichever key tells the rows apart (4 bits a
// site up to k = 16, two rank bytes a site beyond), and
// however many shards the build is split over (n on both sides of
// parallelBuildThreshold, GOMAXPROCS 1 and 4), the table is the sequential first-occurrence dedup of
// core.Permuter's permutations under perm.Key, row for row and point for
// point — hostile coordinates (NaN payloads, ±Inf, −0, subnormals,
// MaxFloat64) in ordinary points and in one site included. On the packed
// stores every cell's and every bucket's bounds are, bit for bit (NaN for
// NaN), what sweeping its points one site at a time gives.
func TestPermIndexBuildKeys(t *testing.T) {
	for _, procs := range []int{1, 4} {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		for _, n := range []int{parallelBuildThreshold / 2, 2*parallelBuildThreshold + 123} {
			for mi, m := range []metric.Metric{metric.L1{}, metric.L2{}, metric.LInf{}, metric.Edit{}} {
				for ki, k := range []int{1, 12, 16, 17, 24} {
					checkBuild(t, fmt.Sprintf("procs=%d/n=%d/%s/k=%d", procs, n, m.Name(), k), m, n, k, 5*mi+ki)
				}
			}
		}
	}
	checkBuild(t, "wide table", metric.L1{}, parallelBuildThreshold/2, 300, 0) // ranks past a byte
}

// checkBuild builds a k-site index over n points under m — words under edit
// distance, else clustered 3-d vectors with every hostile coordinate in
// ordinary points, hostile[h] in site k−1, and, from k = 3, sites 0 and 1 at
// L2 sums that tie only at the root from a point at the origin — and holds
// its table to the Permuter's and, on a packed store, its bounds to one-site
// sweeps.
func checkBuild(t *testing.T, name string, m metric.Metric, n, k, h int) {
	t.Helper()
	hostile := []float64{math.NaN(), math.Float64frombits(0x7ff8dead0000beef), math.Copysign(0, -1), 0,
		5e-324, -2.2e-308, math.Inf(1), math.Inf(-1), math.MaxFloat64}
	rng := rand.New(rand.NewSource(int64(33 + h + k)))
	siteIDs := rng.Perm(n)[:k]
	var db *DB
	if _, ok := m.(metric.Edit); ok {
		db, _ = stringDB(n)
	} else {
		const d = 3
		pts := dataset.ClusteredVectors(rng, n, d, 8, 0.05)
		for i, v := range hostile {
			pts[10*i+3].(metric.Vector)[i%d] = v
		}
		if k > 2 { // 1 + 2⁻⁵² and 1 round to one root: site 0 ranks first
			pts[siteIDs[0]], pts[siteIDs[1]] = metric.Vector{1, 0x1p-26, 0}, metric.Vector{1, 0, 0}
			origin := 0
			for slices.Contains(siteIDs, origin) {
				origin++
			}
			pts[origin] = metric.Vector{0, 0, 0}
		}
		pts[siteIDs[k-1]].(metric.Vector)[h%d] = hostile[h%len(hostile)]
		db = NewDB(m, pts)
	}
	idx := NewPermIndex(db, siteIDs, Footrule)
	rows := map[string]uint32{}
	for i, pt := range db.Points {
		p := idx.permuter.Permutation(pt)
		row, ok := rows[p.Key()]
		if !ok {
			row = uint32(len(rows))
			rows[p.Key()] = row
			if !idx.table.invAt(int(row)).Equal(p.Inverse()) {
				t.Fatalf("%s: row %d is not the inverse permutation of point %d, its first occurrence", name, row, i)
			}
		}
		if idx.tableIDs[i] != row {
			t.Fatalf("%s: point %d stored under row %d, want %d", name, i, idx.tableIDs[i], row)
		}
	}
	if idx.table.rows != len(rows) {
		t.Fatalf("%s: %d rows, want %d", name, idx.table.rows, len(rows))
	}
	if db.dim == 0 {
		return
	}
	bb, lb := forceBounds(idx), idx.lb
	same := func(what string, gotLo, gotHi, lo, hi float64) {
		if !sameFloat(gotLo, lo) || !sameFloat(gotHi, hi) {
			t.Fatalf("%s: %s: swept [%x, %x], one site at a time [%x, %x]", name, what,
				math.Float64bits(gotLo), math.Float64bits(gotHi), math.Float64bits(lo), math.Float64bits(hi))
		}
	}
	for b := range idx.ApproxBuckets() {
		for i := range k {
			lo, hi := bucketSweep(idx, b, i)
			same(fmt.Sprintf("bucket %d site %d", b, i), bb.buckets.lo[b*k+i], bb.buckets.hi[b*k+i], lo, hi)
		}
		for c := int(lb.bucketCells[b]); c < int(lb.bucketCells[b+1]); c++ {
			for i := range k {
				lo, hi := cellSweep(idx, c, i)
				same(fmt.Sprintf("cell %d site %d", c, i), bb.cells.lo[c*k+i], bb.cells.hi[c*k+i], lo, hi)
			}
		}
	}
}
