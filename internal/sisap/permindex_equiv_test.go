package sisap

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"distperm/internal/dataset"
	"distperm/internal/metric"
)

// The tests in this file pin the tentpole invariant of the table-encoded
// query path: ScanOrder — distinct-permutation kernel evaluation plus
// counting-sort candidate ordering — must be byte-identical, tie-breaking
// included, to the retained naive reference (per-point permutation
// distances, stable float64 argsort) for every permutation distance. Each
// oracle comparison runs over both storage backends (permBackends): the
// heap-built table and its frozen-container mmap view must be
// indistinguishable to every kernel.

var allPermDistances = []PermDistance{Footrule, KendallTau, SpearmanRho}

func assertSameOrder(t *testing.T, label string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: order length %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: scan order diverges at position %d: %d != %d", label, i, got[i], want[i])
		}
	}
}

func TestScanOrderMatchesReference(t *testing.T) {
	cases := []struct{ n, d, k int }{
		{60, 2, 3},
		{300, 3, 8},
		{500, 5, 12},
		{250, 2, 1},   // single site: every permutation identical
		{400, 4, 280}, // k > 256: the uint16 rank store, both backends
	}
	for ci, c := range cases {
		for _, dist := range allPermDistances {
			rng := rand.New(rand.NewSource(int64(400 + ci)))
			db := NewDB(metric.L2{}, dataset.UniformVectors(rng, c.n, c.d))
			idx := NewPermIndex(db, rng.Perm(c.n)[:c.k], dist)
			for _, be := range permBackends(t, idx, db) {
				for qi := 0; qi < 20; qi++ {
					q := dataset.UniformVectors(rng, 1, c.d)[0]
					got, stats := be.idx.ScanOrder(q)
					if stats.DistanceEvals != c.k {
						t.Fatalf("case %d %s %s: ScanOrder cost %d evals, want %d", ci, dist, be.name, stats.DistanceEvals, c.k)
					}
					label := fmt.Sprintf("case %d %s %s query %d", ci, dist, be.name, qi)
					assertSameOrder(t, label, got, be.idx.referenceScanOrder(q))
				}
			}
		}
	}
}

func TestScanOrderMatchesReferenceClustered(t *testing.T) {
	// The paper's regime: clustered data and small k realise very few
	// distinct permutations, which is exactly where the table encoding
	// turns counting into speed. The equivalence must hold there too, with
	// heavy tie traffic between identical permutations.
	for _, dist := range allPermDistances {
		rng := rand.New(rand.NewSource(77))
		db := NewDB(metric.L2{}, dataset.ClusteredVectors(rng, 2_000, 4, 12, 0.02))
		idx := NewPermIndex(db, rng.Perm(db.N())[:6], dist)
		if d := idx.DistinctPermutations(); d >= db.N()/4 {
			t.Fatalf("clustered workload realised %d distinct permutations of %d points; not the distinct ≪ n regime", d, db.N())
		}
		for _, be := range permBackends(t, idx, db) {
			for qi := 0; qi < 15; qi++ {
				q := dataset.ClusteredVectors(rng, 1, 4, 1, 0.5)[0]
				got, _ := be.idx.ScanOrder(q)
				assertSameOrder(t, fmt.Sprintf("%s %s query %d", dist, be.name, qi), got, be.idx.referenceScanOrder(q))
			}
		}
	}
}

func TestScanOrderCountingSortFallback(t *testing.T) {
	// Spearman rho² keys grow as k³; at large k over a small database the
	// bucket array would dwarf n and the sort falls back to a stable
	// comparison sort. The fallback must preserve the exact ordering.
	rng := rand.New(rand.NewSource(88))
	db := NewDB(metric.L2{}, dataset.UniformVectors(rng, 120, 8))
	idx := NewPermIndex(db, rng.Perm(db.N())[:40], SpearmanRho)
	maxKey := int64(40 * 39 * 39) // loose rho² bound, k·(k−1)²
	if maxKey <= countingBucketLimit(db.N()) {
		t.Fatalf("test premise broken: maxKey %d fits the bucket limit %d", maxKey, countingBucketLimit(db.N()))
	}
	for _, be := range permBackends(t, idx, db) {
		for qi := 0; qi < 10; qi++ {
			q := dataset.UniformVectors(rng, 1, 8)[0]
			got, _ := be.idx.ScanOrder(q)
			assertSameOrder(t, fmt.Sprintf("fallback %s query %d", be.name, qi), got, be.idx.referenceScanOrder(q))
		}
	}
}

func TestKNNBudgetPartialOrderMatchesPrefix(t *testing.T) {
	// The partial counting sort feeding KNNBudget must produce exactly the
	// first maxEvals entries of the full scan order.
	rng := rand.New(rand.NewSource(99))
	db := NewDB(metric.L2{}, dataset.ClusteredVectors(rng, 1_000, 3, 8, 0.05))
	for _, dist := range allPermDistances {
		idx := NewPermIndex(db, rng.Perm(db.N())[:7], dist)
		for _, be := range permBackends(t, idx, db) {
			for qi := 0; qi < 8; qi++ {
				q := dataset.UniformVectors(rng, 1, 3)[0]
				full, _ := be.idx.ScanOrder(q)
				for _, budget := range []int{0, 1, 7, 100, 999, 1_000} {
					partial := make([]int, budget)
					be.idx.scanOrderInto(q, partial)
					assertSameOrder(t, fmt.Sprintf("%s %s budget %d", dist, be.name, budget), partial, full[:budget])
				}
			}
		}
	}
}

func TestScanOrderReplicaIndependence(t *testing.T) {
	// Two goroutines interleave scans on one index: each borrows its own
	// query workspace, so both get the orders isolated queries give.
	rng := rand.New(rand.NewSource(111))
	db := NewDB(metric.L2{}, dataset.UniformVectors(rng, 400, 3))
	idx := NewPermIndex(db, rng.Perm(db.N())[:8], Footrule)
	qs := dataset.UniformVectors(rng, 2, 3)
	var got [2][][]int
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				order, _ := idx.ScanOrder(qs[g])
				got[g] = append(got[g], order)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		want := idx.referenceScanOrder(qs[g])
		for i, order := range got[g] {
			assertSameOrder(t, fmt.Sprintf("goroutine %d, scan %d", g, i), order, want)
		}
	}
}

func TestTableEncodingCodecRoundTripClustered(t *testing.T) {
	// The distinct ≪ n regime through the v2 container: save/load must
	// preserve the table encoding (distinct count, per-point rows) and the
	// exact scan order.
	rng := rand.New(rand.NewSource(121))
	db := NewDB(metric.L2{}, dataset.ClusteredVectors(rng, 1_500, 3, 10, 0.02))
	for _, dist := range allPermDistances {
		idx := NewPermIndex(db, rng.Perm(db.N())[:5], dist)
		var buf bytes.Buffer
		if _, err := WriteIndex(&buf, idx); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadIndex(&buf, db)
		if err != nil {
			t.Fatal(err)
		}
		got := loaded.(*PermIndex)
		if got.DistinctPermutations() != idx.DistinctPermutations() {
			t.Fatalf("%s: distinct %d != %d after round trip", dist, got.DistinctPermutations(), idx.DistinctPermutations())
		}
		q := dataset.UniformVectors(rng, 1, 3)[0]
		a, _ := idx.ScanOrder(q)
		b, _ := got.ScanOrder(q)
		assertSameOrder(t, dist.String(), b, a)
	}
}

func TestTableEncodingSurvivesMutableSnapshot(t *testing.T) {
	// The mutable container embeds a distperm base; the rebuild-then-save
	// path must carry the table encoding through intact.
	rng := rand.New(rand.NewSource(131))
	pts := dataset.ClusteredVectors(rng, 600, 3, 6, 0.03)
	full := NewDB(metric.L2{}, pts)
	base := NewPermIndex(NewDB(metric.L2{}, pts[:500]), rng.Perm(500)[:6], Footrule)
	gids := make([]int, 600)
	for i := range gids {
		gids[i] = i
	}
	mx, err := NewMutableIndex(full, 500, base, gids, []int{3, 501}, 600)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := WriteIndex(&buf, mx); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(&buf, full)
	if err != nil {
		t.Fatal(err)
	}
	lmx := loaded.(*MutableIndex)
	lbase, ok := lmx.Base().(*PermIndex)
	if !ok {
		t.Fatalf("loaded base is %T, want *PermIndex", lmx.Base())
	}
	if lbase.DistinctPermutations() != base.DistinctPermutations() {
		t.Fatalf("base distinct %d != %d after snapshot round trip",
			lbase.DistinctPermutations(), base.DistinctPermutations())
	}
	for qi := 0; qi < 10; qi++ {
		q := dataset.UniformVectors(rng, 1, 3)[0]
		a, _ := mx.KNN(q, 3)
		b, _ := lmx.KNN(q, 3)
		sameResults(t, "mutable-knn", b, a)
		ao, _ := base.ScanOrder(q)
		bo, _ := lbase.ScanOrder(q)
		assertSameOrder(t, fmt.Sprintf("base scan %d", qi), bo, ao)
	}
}

func TestPermIndexRangeStats(t *testing.T) {
	// Range's reported cost model is k + points measured: n + k on a store
	// without bounds (as the permutation-ordered scan it once was), less on
	// one with, the difference reported as pruned.
	db, rng := testDB(141, 200, 3, metric.L2{})
	idx := NewPermIndex(db, rng.Perm(db.N())[:6], Footrule)
	got, stats := idx.Range(metric.Vector{0.5, 0.5, 0.5}, 0.4)
	if stats.DistanceEvals+stats.PrunedEvals != 6+200 || stats.DistanceEvals < 6+len(got) {
		t.Errorf("Range stats = %+v for %d answers, want evals + pruned = %d", stats, len(got), 6+200)
	}
	unbounded := NewPermIndex(NewDB(metric.LP{P: 3}, db.Points), idx.siteIDs, Footrule)
	if _, stats := unbounded.Range(metric.Vector{0.5, 0.5, 0.5}, 0.4); stats != (Stats{DistanceEvals: 6 + 200}) {
		t.Errorf("Range stats without bounds = %+v, want %d evals", stats, 6+200)
	}
}
