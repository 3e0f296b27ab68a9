package sisap

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"distperm/internal/dataset"
	"distperm/internal/metric"
)

// testDB builds a small uniform vector database.
func testDB(seed int64, n, d int, m metric.Metric) (*DB, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	return NewDB(m, dataset.UniformVectors(rng, n, d)), rng
}

// stringDB builds a small dictionary database under edit distance.
func stringDB(n int) (*DB, *rand.Rand) {
	ds := dataset.Dictionary(dataset.Languages()[1], n)
	return NewDB(ds.Metric, ds.Points), rand.New(rand.NewSource(99))
}

func sameResults(t *testing.T, name string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("%s: result %d = ID %d (d=%v), want ID %d (d=%v)",
				name, i, got[i].ID, got[i].Distance, want[i].ID, want[i].Distance)
		}
	}
}

// buildAll constructs every index type over db.
func buildAll(db *DB, rng *rand.Rand) []Index {
	k := 8
	if db.N() < 16 {
		k = db.N() / 2
		if k < 1 {
			k = 1
		}
	}
	pivots := rng.Perm(db.N())[:k]
	return []Index{
		NewLinearScan(db),
		NewAESA(db),
		NewLAESA(db, pivots),
		NewPermIndex(db, pivots, Footrule),
		NewVPTree(db, rng),
		NewGHTree(db, rng),
	}
}

func TestAllIndexesAgreeOnKNNVectors(t *testing.T) {
	for _, m := range []metric.Metric{metric.L1{}, metric.L2{}, metric.LInf{}} {
		db, rng := testDB(21, 300, 3, m)
		indexes := buildAll(db, rng)
		linear := indexes[0]
		queries := dataset.UniformVectors(rng, 15, 3)
		for _, k := range []int{1, 3, 10} {
			for qi, q := range queries {
				want, _ := linear.KNN(q, k)
				for _, idx := range indexes[1:] {
					got, _ := idx.KNN(q, k)
					if len(got) != k {
						t.Fatalf("%s/%s q%d k%d: %d results", m.Name(), idx.Name(), qi, k, len(got))
					}
					sameResults(t, m.Name()+"/"+idx.Name(), got, want)
				}
			}
		}
	}
}

func TestAllIndexesAgreeOnKNNStrings(t *testing.T) {
	db, rng := stringDB(200)
	indexes := buildAll(db, rng)
	linear := indexes[0]
	queries := []metric.Point{
		metric.String("hello"), metric.String("thedistance"),
		metric.String("a"), metric.String("permutation"),
	}
	for _, q := range queries {
		want, _ := linear.KNN(q, 5)
		for _, idx := range indexes[1:] {
			got, _ := idx.KNN(q, 5)
			sameResults(t, idx.Name(), got, want)
		}
	}
}

func TestAllIndexesAgreeOnRange(t *testing.T) {
	db, rng := testDB(22, 250, 2, metric.L2{})
	indexes := buildAll(db, rng)
	linear := indexes[0]
	queries := dataset.UniformVectors(rng, 10, 2)
	for _, r := range []float64{0.05, 0.2, 0.7} {
		for _, q := range queries {
			want, _ := linear.Range(q, r)
			for _, idx := range indexes[1:] {
				got, _ := idx.Range(q, r)
				sameResults(t, idx.Name(), got, want)
			}
		}
	}
}

func TestQueryCostsBounded(t *testing.T) {
	db, rng := testDB(23, 400, 4, metric.L2{})
	indexes := buildAll(db, rng)
	queries := dataset.UniformVectors(rng, 10, 4)
	for _, idx := range indexes {
		for _, q := range queries {
			_, stats := idx.KNN(q, 3)
			limit := db.N()
			switch idx.(type) {
			case *LAESA:
				limit += 8 // the pivots are measured on top
			case *PermIndex:
				limit += 8 // the sites are measured on top
			}
			if stats.DistanceEvals > limit {
				t.Errorf("%s: %d evals > limit %d", idx.Name(), stats.DistanceEvals, limit)
			}
			if stats.DistanceEvals <= 0 {
				t.Errorf("%s: non-positive eval count", idx.Name())
			}
		}
	}
}

func TestAESABeatsLinearScan(t *testing.T) {
	db, rng := testDB(24, 500, 3, metric.L2{})
	aesa := NewAESA(db)
	queries := dataset.UniformVectors(rng, 20, 3)
	total := 0
	for _, q := range queries {
		_, stats := aesa.KNN(q, 1)
		total += stats.DistanceEvals
	}
	avg := float64(total) / 20
	// The whole point of AESA: near-constant evaluations, far below n.
	if avg > float64(db.N())/5 {
		t.Errorf("AESA averaged %.1f evals on n=%d; expected far fewer", avg, db.N())
	}
}

func TestLAESABeatsLinearScan(t *testing.T) {
	db, rng := testDB(25, 500, 3, metric.L2{})
	laesa := NewLAESAMaxSpread(db, 8)
	queries := dataset.UniformVectors(rng, 20, 3)
	total := 0
	for _, q := range queries {
		_, stats := laesa.KNN(q, 1)
		total += stats.DistanceEvals
	}
	avg := float64(total) / 20
	if avg > float64(db.N())/2 {
		t.Errorf("LAESA averaged %.1f evals on n=%d; expected far fewer", avg, db.N())
	}
}

func TestMaxSpreadPivotsAreDistinct(t *testing.T) {
	db, _ := testDB(26, 100, 2, metric.L2{})
	l := NewLAESAMaxSpread(db, 10)
	seen := map[int]bool{}
	for _, p := range l.Pivots() {
		if seen[p] {
			t.Fatalf("duplicate pivot %d", p)
		}
		seen[p] = true
	}
}

func TestKNNTieBreaksById(t *testing.T) {
	// Duplicate points force distance ties; results must order by ID.
	pts := []metric.Point{
		metric.Vector{0.5}, metric.Vector{0.5}, metric.Vector{0.5},
		metric.Vector{0.9},
	}
	db := NewDB(metric.L2{}, pts)
	rng := rand.New(rand.NewSource(1))
	for _, idx := range buildAll(db, rng) {
		got, _ := idx.KNN(metric.Vector{0.5}, 3)
		for i, want := range []int{0, 1, 2} {
			if got[i].ID != want {
				t.Errorf("%s: tie order %v", idx.Name(), got)
				break
			}
		}
	}
}

func TestKNNPanicsOnBadK(t *testing.T) {
	db, _ := testDB(27, 10, 2, metric.L2{})
	for _, k := range []int{0, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d should panic", k)
				}
			}()
			NewLinearScan(db).KNN(metric.Vector{0, 0}, k)
		}()
	}
}

func TestIndexBitsOrdering(t *testing.T) {
	db, rng := testDB(28, 500, 4, metric.L2{})
	pivots := rng.Perm(db.N())[:8]
	aesa := NewAESA(db)
	laesa := NewLAESA(db, pivots)
	pi := NewPermIndex(db, pivots, Footrule)
	if !(pi.IndexBits() < laesa.IndexBits() && laesa.IndexBits() < aesa.IndexBits()) {
		t.Errorf("storage ordering violated: perm=%d laesa=%d aesa=%d",
			pi.IndexBits(), laesa.IndexBits(), aesa.IndexBits())
	}
	if NewLinearScan(db).IndexBits() != 0 {
		t.Error("linear scan should store nothing")
	}
}

func TestEmptyDBPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty database should panic")
		}
	}()
	NewDB(metric.L2{}, nil)
}

func TestHeapBehaviour(t *testing.T) {
	h := newKNNHeap(3)
	for _, r := range []Result{
		{ID: 5, Distance: 0.9}, {ID: 1, Distance: 0.3}, {ID: 2, Distance: 0.7},
		{ID: 3, Distance: 0.1}, {ID: 4, Distance: 0.5},
	} {
		h.push(r)
	}
	if h.bound() != 0.5 {
		t.Errorf("bound = %v, want 0.5", h.bound())
	}
	rs := (&collector{h: h}).results() // sorts the heap's own slice: last
	want := []int{3, 1, 4}
	for i := range want {
		if rs[i].ID != want[i] {
			t.Fatalf("heap results %v", rs)
		}
	}
}

func TestVPAndGHTreesOnClusteredData(t *testing.T) {
	// Trees must stay exact on pathological (heavily duplicated,
	// clustered) data.
	rng := rand.New(rand.NewSource(29))
	pts := dataset.ClusteredVectors(rng, 300, 3, 4, 0.001)
	pts = append(pts, pts[0], pts[1], pts[2]) // exact duplicates
	db := NewDB(metric.L2{}, pts)
	linear := NewLinearScan(db)
	vp := NewVPTree(db, rng)
	gh := NewGHTree(db, rng)
	for i := 0; i < 10; i++ {
		q := dataset.UniformVectors(rng, 1, 3)[0]
		want, _ := linear.KNN(q, 4)
		gotVP, _ := vp.KNN(q, 4)
		gotGH, _ := gh.KNN(q, 4)
		sameResults(t, "vptree", gotVP, want)
		sameResults(t, "ghtree", gotGH, want)
	}
}

func TestRangeRadiusZero(t *testing.T) {
	db, rng := testDB(30, 50, 2, metric.L2{})
	q := db.Points[7] // exact database point
	for _, idx := range buildAll(db, rng) {
		got, _ := idx.Range(q, 0)
		if len(got) == 0 || got[0].ID != 7 {
			t.Errorf("%s: range 0 at a database point should return it, got %v", idx.Name(), got)
		}
	}
}

// TestDistanceEvalsPinned pins the cost model itself — the paper's metric,
// summed distance evaluations per index kind — to the figures the per-kind
// kNN and range loops produced before they became one traversal each
// (PR 24's parent): a rewrite of a walk may not move what the walk costs.
// The distperm kind's figures are its bounded best-first walk's, with k
// chosen so that each store qualifies for bounds.
func TestDistanceEvalsPinned(t *testing.T) {
	want := map[int]map[string][2]int{ // d → kind → {kNN, range}
		2: {"laesa": {3428, 3428}, "aesa": {2295, 2295}, "iaesa": {4254, 2374}, "vptree": {10939, 9983}, "ghtree": {24926, 23655}, "distperm": {40349, 40349}},
		6: {"laesa": {59347, 59347}, "aesa": {8491, 8491}, "iaesa": {9304, 8684}, "vptree": {122112, 114466}, "ghtree": {234922, 234325}, "distperm": {177534, 177534}},
	}
	for _, d := range []int{2, 6} {
		db, rng := testDB(int64(7+d), 800, d, metric.L2{})
		linear := NewLinearScan(db)
		px := NewPermIndex(db, rand.New(rand.NewSource(int64(d))).Perm(db.N())[:map[int]int{2: 8, 6: 4}[d]], Footrule)
		indexes := []Index{NewLAESA(db, rng.Perm(db.N())[:6]), NewAESA(db), NewIAESA(db), NewVPTree(db, rng), NewGHTree(db, rng), px}
		got := map[string][2]int{}
		for _, q := range dataset.UniformVectors(rng, 300, d) {
			nn, _ := linear.KNN(q, 5)
			for _, x := range indexes {
				_, knnSt := x.KNN(q, 5)
				_, rangeSt := x.Range(q, nn[4].Distance)
				sum := got[x.Name()]
				got[x.Name()] = [2]int{sum[0] + knnSt.DistanceEvals, sum[1] + rangeSt.DistanceEvals}
			}
		}
		for kind, w := range want[d] {
			if got[kind] != w {
				t.Errorf("d=%d %s: %d kNN / %d range evaluations, want %d / %d", d, kind, got[kind][0], got[kind][1], w[0], w[1])
			}
		}
		if px.BoundCells() == 0 {
			t.Errorf("d=%d: the distperm store has no bounds, so its figures pin the scan, not the walk", d)
		}
	}
}

// TestAllIndexesSkipDead: every kind, and a sharded container over one,
// leaves a dead set out of its kNN and range answers inside its
// walk — what LinearScan answers over the live points — down to a dead set
// holding every point.
func TestAllIndexesSkipDead(t *testing.T) {
	for _, m := range []metric.Metric{metric.L2{}, metric.LInf{}} {
		db, rng := testDB(23, 200, 2, m)
		indexes := append(buildAll(db, rng), NewIAESA(db))
		sx, err := NewShardedIndex(db, roundRobinParts(db.N(), 3), func(_ int, sdb *DB) (Index, error) { return NewVPTree(sdb, rng), nil })
		if err != nil {
			t.Fatal(err)
		}
		indexes = append(indexes, sx)
		all, _ := indexes[0].KNN(dataset.UniformVectors(rng, 1, 2)[0], db.N())
		for _, dead := range []Tombs{Tombs{}.With(all[0].ID, all[1].ID, all[2].ID), Tombs{}.With(rng.Perm(db.N())[:150]...), Tombs{}.With(rng.Perm(db.N())...)} {
			for _, q := range dataset.UniformVectors(rng, 5, 2) {
				all, _ := indexes[0].KNN(q, db.N())
				live := slices.DeleteFunc(all, func(r Result) bool { return dead.Has(r.ID) })
				for _, idx := range indexes {
					sc := Scope{Dead: dead}
					got, _ := sc.Search(idx, q, 10, 0)
					sameResults(t, m.Name()+"/"+idx.Name()+" kNN", got, live[:min(10, len(live))])
					got, _ = sc.Search(idx, q, 0, 0.3)
					sameResults(t, m.Name()+"/"+idx.Name()+" range", got, live[:sort.Search(len(live), func(i int) bool { return live[i].Distance > 0.3 })])
				}
			}
		}
	}
}

// TestRangeStopsPastMaxRange: a radius collector holds at most maxRange + 1
// answers, whichever kind walks into it, so an answer one past the limit is
// how every caller learns the true one was longer.
func TestRangeStopsPastMaxRange(t *testing.T) {
	defer func(m int) { maxRange = m }(maxRange)
	maxRange = 20
	db, rng := testDB(24, 200, 2, metric.L2{})
	for _, idx := range append(buildAll(db, rng), NewIAESA(db)) {
		if got, _ := idx.Range(metric.Vector{0.5, 0.5}, 10); len(got) != maxRange+1 {
			t.Errorf("%s: a range over every point holds %d answers, want %d", idx.Name(), len(got), maxRange+1)
		}
		if got, _ := idx.Range(metric.Vector{0.5, 0.5}, 0.05); len(got) > maxRange {
			t.Errorf("%s: a range of %d answers was cut", idx.Name(), len(got))
		}
	}
}
