package distperm

import (
	"errors"
	"reflect"
	"testing"

	"distperm/internal/dataset"
)

// approxTruthRecall returns |truth ∩ got| / |truth| by result ID.
func approxTruthRecall(truth, got []Result) float64 {
	ids := make(map[int]struct{}, len(got))
	for _, r := range got {
		ids[r.ID] = struct{}{}
	}
	hit := 0
	for _, r := range truth {
		if _, ok := ids[r.ID]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// TestEngineApproxFullCoverageByteIdentical pins the exact-degradation
// contract at the engine layer: an approximate batch whose probe set covers
// the whole directory must return byte-identical answers to KNNBatch —
// including tie-breaks — and report Exact. Run under -race this also
// exercises the approximate path across a batch's fan-out.
func TestEngineApproxFullCoverageByteIdentical(t *testing.T) {
	const k = 7
	db, rng := testDB(t, 41, 900, 3)
	qs := dataset.UniformVectors(rng, 200, 3)
	idx := mustBuild(t, db, Spec{Index: "distperm", K: 8, Seed: 3})
	e, err := NewEngine(db, idx, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	want, err := e.KNNBatch(qs, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, nprobe := range []int{e.ApproxBuckets(), 1 << 20} {
		got, sts, err := e.KNNApproxBatch(qs, k, nprobe)
		if err != nil {
			t.Fatalf("nprobe=%d: %v", nprobe, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("nprobe=%d: full-coverage approx answers differ from exact", nprobe)
		}
		for i, st := range sts {
			if !st.Exact {
				t.Fatalf("nprobe=%d query %d: Exact=false with full coverage", nprobe, i)
			}
		}
	}
	st := e.Stats()
	if st.ApproxQueries != int64(2*len(qs)) {
		t.Errorf("ApproxQueries = %d, want %d", st.ApproxQueries, 2*len(qs))
	}
	if st.DistinctRows <= 0 {
		t.Errorf("DistinctRows = %d, want > 0", st.DistinctRows)
	}
}

// TestEngineApproxBatchMatchesSingle: a batch of approximate queries — which
// the batch's goroutines answer query by query, in whatever order they take
// them — is,
// answer for answer and statistic for statistic, the same queries sent one
// at a time, on a plain and on a sharded index.
func TestEngineApproxBatchMatchesSingle(t *testing.T) {
	db, rng := testDB(t, 53, 1500, 6)
	qs := dataset.UniformVectors(rng, 17, 6)
	spec := Spec{Index: "distperm", K: 12, Seed: 17}
	sx, err := BuildSharded(db, spec, 3, RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	for name, idx := range map[string]Index{"plain": mustBuild(t, db, spec), "sharded": sx} {
		e, err := NewEngine(db, idx, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		batch, bstats, err := e.KNNApproxBatch(qs, 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			single, sstats, err := e.KNNApproxBatch([]Point{q}, 5, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(batch[i], single[0]) {
				t.Fatalf("%s query %d: batch answer differs from single", name, i)
			}
			if bstats[i] != sstats[0] {
				t.Fatalf("%s query %d: batch stats %+v != single %+v", name, i, bstats[i], sstats[0])
			}
		}
	}
}

// TestEngineApproxMonotoneRecall checks the serving-layer contract the
// sisap tests prove at the kernel level: per-query recall against the
// exact answer never decreases as nprobe grows, and partial probes report
// their candidate accounting.
func TestEngineApproxMonotoneRecall(t *testing.T) {
	const k = 10
	db, rng := testDB(t, 42, 2000, 4)
	qs := dataset.UniformVectors(rng, 60, 4)
	idx := mustBuild(t, db, Spec{Index: "distperm", K: 10, Seed: 5})
	e, err := NewEngine(db, idx, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	truth, err := e.KNNBatch(qs, k)
	if err != nil {
		t.Fatal(err)
	}
	nb := e.ApproxBuckets()
	if nb < 4 {
		t.Fatalf("directory too small to sweep: %d buckets", nb)
	}
	prev := make([]float64, len(qs))
	for _, nprobe := range []int{1, nb / 4, nb / 2, nb} {
		got, sts, err := e.KNNApproxBatch(qs, k, nprobe)
		if err != nil {
			t.Fatalf("nprobe=%d: %v", nprobe, err)
		}
		for i := range qs {
			r := approxTruthRecall(truth[i], got[i])
			if r < prev[i] {
				t.Fatalf("nprobe=%d query %d: recall %.3f dropped below %.3f", nprobe, i, r, prev[i])
			}
			prev[i] = r
			if sts[i].Candidates < k || sts[i].Candidates > db.N() {
				t.Fatalf("nprobe=%d query %d: implausible candidate count %d", nprobe, i, sts[i].Candidates)
			}
			if sts[i].TotalBuckets != nb {
				t.Fatalf("nprobe=%d query %d: TotalBuckets %d != %d", nprobe, i, sts[i].TotalBuckets, nb)
			}
		}
	}
	for i, r := range prev {
		if r != 1 {
			t.Errorf("query %d: full coverage recall %.3f != 1", i, r)
		}
	}
}

// TestShardedApproxFullCoverageByteIdentical: per-shard approximate answers
// with full per-shard coverage must merge to exactly the sharded engine's
// exact answers.
func TestShardedApproxFullCoverageByteIdentical(t *testing.T) {
	const k = 6
	db, rng := testDB(t, 43, 1200, 3)
	qs := dataset.UniformVectors(rng, 150, 3)
	sx, err := BuildSharded(db, Spec{Index: "distperm", K: 8, Seed: 7}, 3, RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardedEngine(sx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	want, err := se.KNNBatch(qs, k)
	if err != nil {
		t.Fatal(err)
	}
	got, sts, err := se.KNNApproxBatch(qs, k, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("full-coverage sharded approx answers differ from exact")
	}
	for i, st := range sts {
		if !st.Exact {
			t.Fatalf("query %d: Exact=false with full coverage", i)
		}
		if st.TotalBuckets != se.ApproxBuckets() {
			t.Fatalf("query %d: TotalBuckets %d != summed directories %d", i, st.TotalBuckets, se.ApproxBuckets())
		}
	}
	if dr := se.Stats().DistinctRows; dr <= 0 {
		t.Errorf("sharded DistinctRows = %d, want > 0", dr)
	}

	// A partial probe still answers every query with k results and recall
	// bounded by the per-shard candidate sets.
	part, psts, err := se.KNNApproxBatch(qs, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if len(part[i]) != k {
			t.Fatalf("query %d: %d results, want %d", i, len(part[i]), k)
		}
		if psts[i].ProbedBuckets >= psts[i].TotalBuckets {
			t.Fatalf("query %d: nprobe=1 probed %d of %d buckets", i, psts[i].ProbedBuckets, psts[i].TotalBuckets)
		}
	}
}

// TestMutableApproxDeltaStaysExact: on a mutated store, the base index
// answers approximately but the delta buffer is scanned exactly — a point
// inserted a moment ago must appear in an approximate answer even at
// nprobe=1, and full coverage must stay byte-identical to KNNBatch.
func TestMutableApproxDeltaStaysExact(t *testing.T) {
	const k = 5
	db, rng := testDB(t, 44, 800, 3)
	qs := dataset.UniformVectors(rng, 80, 3)
	m, err := NewMutableEngine(db, MutableConfig{Spec: Spec{Index: "distperm", K: 8, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Mutate: delete some base points, insert fresh ones (the delta).
	for gid := 0; gid < 10; gid++ {
		if err := m.Delete(gid); err != nil {
			t.Fatal(err)
		}
	}
	var inserted []int
	for _, p := range dataset.UniformVectors(rng, 30, 3) {
		gid, err := m.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, gid)
	}

	want, err := m.KNNBatch(qs, k)
	if err != nil {
		t.Fatal(err)
	}
	got, sts, err := m.KNNApproxBatch(qs, k, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("full-coverage mutable approx answers differ from exact")
	}
	for i, st := range sts {
		if !st.Exact {
			t.Fatalf("query %d: Exact=false with full coverage", i)
		}
	}

	// Query exactly at an inserted point: it must be its own nearest
	// neighbour even with the narrowest probe — the delta is never pruned.
	gids, delta := m.cur.Load().mi.Delta()
	q, gid := []Point{delta[0]}, gids[0]
	narrow, _, err := m.KNNApproxBatch(q, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(narrow[0]) != 1 || narrow[0][0].ID != gid {
		t.Fatalf("inserted point %d missing from nprobe=1 answer: %+v", gid, narrow[0])
	}
	if st := m.Stats(); st.ApproxQueries != int64(len(qs)+1) {
		t.Errorf("ApproxQueries = %d, want %d", st.ApproxQueries, len(qs)+1)
	}
	if m.Stats().DistinctRows <= 0 {
		t.Error("mutable DistinctRows should be positive")
	}
}

// TestApproxUnsupportedIndex: indexes without the capability fail with
// ErrNoApprox at every engine layer.
func TestApproxUnsupportedIndex(t *testing.T) {
	db, rng := testDB(t, 45, 120, 2)
	qs := dataset.UniformVectors(rng, 4, 2)
	idx := mustBuild(t, db, Spec{Index: "vptree", Seed: 1})
	e, err := NewEngine(db, idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, _, err := e.KNNApproxBatch(qs, 3, 2); !errors.Is(err, ErrNoApprox) {
		t.Fatalf("vptree approx: got %v, want ErrNoApprox", err)
	}
	if e.ApproxBuckets() != 0 {
		t.Errorf("vptree ApproxBuckets = %d, want 0", e.ApproxBuckets())
	}

	m, err := NewMutableEngine(db, MutableConfig{Spec: Spec{Index: "vptree", Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, _, err := m.KNNApproxBatch(qs, 3, 2); !errors.Is(err, ErrNoApprox) {
		t.Fatalf("mutable vptree approx: got %v, want ErrNoApprox", err)
	}
}
