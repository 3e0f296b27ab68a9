package distperm

import (
	"fmt"
	"sync"
	"testing"

	"distperm/internal/dataset"
	"distperm/internal/sisap"
)

// TestEngineBatchFastPath pins the batch accounting: over a distperm index
// every query of a multi-query KNNBatch counts in Stats().BatchedQueries,
// with answers identical to the sequential LinearScan ground truth, across
// batch shapes around the fan-out width (1 = on the caller alone, fewer
// queries than GOMAXPROCS, many more).
func TestEngineBatchFastPath(t *testing.T) {
	db, rng := testDB(t, 21, 1500, 4)
	truth := sisap.NewLinearScan(db)
	idx := mustBuild(t, db, Spec{Index: "distperm", K: 8, Seed: 23})
	e, err := NewEngine(db, idx, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	var wantBatched int64
	for _, batch := range []int{1, 3, 17, 300} {
		qs := dataset.UniformVectors(rng, batch, 4)
		got, err := e.KNNBatch(qs, 4)
		if err != nil {
			t.Fatal(err)
		}
		if batch > 1 {
			wantBatched += int64(batch)
		}
		for i, q := range qs {
			want, _ := truth.KNN(q, 4)
			assertResultsEqual(t, fmt.Sprintf("batch %d query %d", batch, i), got[i], want)
		}
	}
	st := e.Stats()
	if st.BatchedQueries != wantBatched {
		t.Errorf("Stats().BatchedQueries = %d, want %d", st.BatchedQueries, wantBatched)
	}
	if st.Queries != wantBatched+1 {
		t.Errorf("Stats().Queries = %d, want %d", st.Queries, wantBatched+1)
	}
	if st.DistanceEvals <= 0 {
		t.Errorf("no distance evaluations aggregated: %+v", st)
	}
}

// TestEngineBatchStorm hammers the batch fast path from many goroutines at
// once — under -race this proves concurrent sub-batches stay off each other's
// replicas and result slots — and checks every answer against LinearScan.
func TestEngineBatchStorm(t *testing.T) {
	const (
		goroutines = 8
		batch      = 50
	)
	db, rng := testDB(t, 29, 900, 3)
	truth := sisap.NewLinearScan(db)
	idx := mustBuild(t, db, Spec{Index: "distperm", K: 7, Seed: 31})
	e, err := NewEngine(db, idx, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	batches := make([][]Point, goroutines)
	for g := range batches {
		batches[g] = dataset.UniformVectors(rng, batch, 3)
	}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, err := e.KNNBatch(batches[g], 3)
			if err != nil {
				errs[g] = err
				return
			}
			for i, q := range batches[g] {
				want, _ := truth.KNN(q, 3)
				for j := range want {
					if got[i][j] != want[j] {
						errs[g] = fmt.Errorf("goroutine %d query %d result %d = %+v, want %+v",
							g, i, j, got[i][j], want[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if want := int64(goroutines * batch); st.Queries != want || st.BatchedQueries != want {
		t.Errorf("Stats() queries = %d batched = %d, want %d of each", st.Queries, st.BatchedQueries, want)
	}
}

// TestEngineBatchNonBatchIndex: an index kind with no batch method of its
// own (a linear scan) serves a multi-query batch like any other — identical answers, every query counted in BatchedQueries.
func TestEngineBatchNonBatchIndex(t *testing.T) {
	db, rng := testDB(t, 37, 600, 3)
	truth := sisap.NewLinearScan(db)
	idx := mustBuild(t, db, Spec{Index: "linear"})
	e, err := NewEngine(db, idx, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	qs := dataset.UniformVectors(rng, 40, 3)
	got, err := e.KNNBatch(qs, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want, _ := truth.KNN(q, 5)
		assertResultsEqual(t, fmt.Sprintf("query %d", i), got[i], want)
	}
	if st := e.Stats(); st.BatchedQueries != int64(len(qs)) {
		t.Errorf("Stats().BatchedQueries = %d, want %d", st.BatchedQueries, len(qs))
	}
}

// TestShardedEngineBatchStats checks the scatter-gather layer both uses the
// shard engines' batch fast path (each shard is a distperm index) and sums
// BatchedQueries across shards.
func TestShardedEngineBatchStats(t *testing.T) {
	db, rng := testDB(t, 43, 800, 3)
	truth := sisap.NewLinearScan(db)
	sx, err := BuildSharded(db, Spec{Index: "distperm", K: 6, Seed: 47}, 3, RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardedEngine(sx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	qs := dataset.UniformVectors(rng, 30, 3)
	got, err := se.KNNBatch(qs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want, _ := truth.KNN(q, 4)
		assertResultsEqual(t, fmt.Sprintf("query %d", i), got[i], want)
	}
	st := se.Stats()
	if want := int64(3 * len(qs)); st.BatchedQueries != want {
		t.Errorf("Stats().BatchedQueries = %d, want %d (every shard serves every query batched)", st.BatchedQueries, want)
	}
}

// TestMutableEngineBatchFastPath pins satellite coverage for the write path:
// a MutableEngine over a distperm base routes its batch queries through the
// base engine's sub-batch fast path (BatchedQueries advances, surviving a
// rebuild swap) while the delta merge keeps answers equal to a from-scratch
// linear scan of the logical point set.
func TestMutableEngineBatchFastPath(t *testing.T) {
	db, rng := testDB(t, 53, 400, 3)
	me, err := NewMutableEngine(db, MutableConfig{Spec: Spec{Index: "distperm", K: 6, Seed: 59}})
	if err != nil {
		t.Fatal(err)
	}
	defer me.Close()

	// Mirror of the logical point set: gid-ascending live (gid, point) pairs.
	gids := make([]int, db.N())
	pts := append([]Point(nil), db.Points...)
	for i := range gids {
		gids[i] = i
	}
	for _, p := range dataset.UniformVectors(rng, 25, 3) {
		gid, err := me.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		gids = append(gids, gid)
		pts = append(pts, p)
	}
	for _, i := range []int{7, 100, 390} {
		if err := me.Delete(gids[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{390, 100, 7} { // descending: indexes stay valid
		gids = append(gids[:i], gids[i+1:]...)
		pts = append(pts[:i], pts[i+1:]...)
	}

	refDB := sisap.NewDB(db.Metric, pts)
	truth := sisap.NewLinearScan(refDB)
	check := func(label string) {
		qs := dataset.UniformVectors(rng, 20, 3)
		got, err := me.KNNBatch(qs, 4)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for i, q := range qs {
			want, _ := truth.KNN(q, 4)
			for j := range want {
				want[j].ID = gids[want[j].ID]
			}
			assertResultsEqual(t, fmt.Sprintf("%s query %d", label, i), got[i], want)
		}
	}
	check("before rebuild")
	before := me.Stats().BatchedQueries
	if before == 0 {
		t.Fatal("mutable engine batches did not reach the base engine's fast path")
	}
	if err := me.Rebuild(); err != nil {
		t.Fatal(err)
	}
	check("after rebuild")
	if after := me.Stats().BatchedQueries; after <= before {
		t.Errorf("BatchedQueries did not survive the rebuild swap: %d -> %d", before, after)
	}
}

func assertResultsEqual(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("%s: result %d = %+v, want %+v", label, j, got[j], want[j])
		}
	}
}
