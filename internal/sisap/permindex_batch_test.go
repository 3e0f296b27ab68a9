package sisap

import (
	"fmt"
	"math/rand"
	"testing"

	"distperm/internal/dataset"
	"distperm/internal/metric"
)

// The tests in this file pin the batch entry point to the scalar one:
// KNNBatch must be byte-identical — results, tie-breaks and Stats — to
// issuing its queries one at a time through KNN (itself pinned to LinearScan
// by fullset_test.go). Like the scalar oracles, every comparison runs over
// both storage backends (permBackends): the heap-built store and its
// frozen-container mmap view.

func batchQueries(rng *rand.Rand, n, d int) []metric.Point {
	return dataset.UniformVectors(rng, n, d)
}

func TestKNNBatchMatchesScalar(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n, sites int
		batches  []int
		prunes   bool // large enough to carry bounds (boundMinFill)
	}{
		{"small", 500, 9, []int{17}, false},
		{"unbounded", 1300, 9, []int{1, 7, 65}, false},
		// A store with bounds: both sides are the pruned walk over the
		// bucket-major rows, and both say how many points they skipped.
		{"bounded", 6000, 5, []int{1, 7}, true},
		// k > 256 stores uint16 rank rows; the exhaustive walk never reads
		// them, and Stats must still charge all 300 site evaluations.
		{"wide ranks", 400, 300, []int{1, 7}, false},
	} {
		rng := rand.New(rand.NewSource(511))
		db := NewDB(metric.L2{}, dataset.UniformVectors(rng, tc.n, 4))
		idx := NewPermIndex(db, rng.Perm(db.N())[:tc.sites], Footrule)
		if wide := idx.table.r16.data != nil; wide != (tc.sites > 256) {
			t.Fatalf("%s: uint16 rank rows = %v at k=%d", tc.name, wide, tc.sites)
		}
		pruned := 0
		for _, be := range permBackends(t, idx, db) {
			for _, batch := range tc.batches {
				qs := batchQueries(rng, batch, 4)
				got, stats := be.idx.KNNBatch(qs, 5)
				if len(got) != batch || len(stats) != batch {
					t.Fatalf("%s %s batch %d: %d results, %d stats", tc.name, be.name, batch, len(got), len(stats))
				}
				for i, q := range qs {
					label := fmt.Sprintf("%s %s batch %d query %d", tc.name, be.name, batch, i)
					// Identical results and identical Stats: k sites plus
					// the points measured, the rest accounted as pruned.
					want, scalar := be.idx.KNN(q, 5)
					if stats[i] != scalar || stats[i].DistanceEvals+stats[i].PrunedEvals != tc.sites+tc.n {
						t.Fatalf("%s: batch stats %+v, scalar %+v, want equal and summing to %d", label, stats[i], scalar, tc.sites+tc.n)
					}
					pruned += stats[i].PrunedEvals
					sameBits(t, label, got[i], want)
				}
			}
		}
		if (pruned > 0) != tc.prunes {
			t.Fatalf("%s: the batch pruned %d points, want pruning = %v", tc.name, pruned, tc.prunes)
		}
	}
}

func TestBatchEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(513))
	db := NewDB(metric.L2{}, dataset.UniformVectors(rng, 100, 3))
	idx := NewPermIndex(db, rng.Perm(db.N())[:5], Footrule)
	if results, stats := idx.KNNBatch([]metric.Point{}, 2); len(results) != 0 || len(stats) != 0 {
		t.Errorf("empty KNNBatch: %d results, %d stats", len(results), len(stats))
	}
}

func TestBatchReplicaIndependence(t *testing.T) {
	// Replicas share the immutable table and coordinate block: interleaving
	// batches on original and replica must equal isolated runs.
	rng := rand.New(rand.NewSource(515))
	db := NewDB(metric.L2{}, dataset.UniformVectors(rng, 400, 3))
	idx := NewPermIndex(db, rng.Perm(db.N())[:8], SpearmanRho)
	rep := idx.Replica().(*PermIndex)
	qs1 := batchQueries(rng, 9, 3)
	qs2 := batchQueries(rng, 9, 3)
	got1, _ := idx.KNNBatch(qs1, 4)
	got2, _ := rep.KNNBatch(qs2, 4)
	oracle := NewLinearScan(db)
	for i := range qs1 {
		want1, _ := oracle.KNN(qs1[i], 4)
		want2, _ := oracle.KNN(qs2[i], 4)
		sameBits(t, fmt.Sprintf("original %d", i), got1[i], want1)
		sameBits(t, fmt.Sprintf("replica %d", i), got2[i], want2)
	}
}
