package sisap

import (
	"math/rand"
	"strings"
	"testing"

	"distperm/internal/dataset"
	"distperm/internal/metric"
)

func shardedTestDB(seed int64, n, d int) (*DB, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	return NewDB(metric.L2{}, dataset.UniformVectors(rng, n, d)), rng
}

// buildLinearShards is the simplest member builder for structural tests.
func buildLinearShards(_ int, sdb *DB) (Index, error) { return NewLinearScan(sdb), nil }

// roundRobinParts deals IDs 0..n-1 across s shards in increasing order.
func roundRobinParts(n, s int) [][]int {
	parts := make([][]int, s)
	for id := 0; id < n; id++ {
		parts[id%s] = append(parts[id%s], id)
	}
	return parts
}

// TestShardedIndexMatchesLinearScan: scatter-gather over linear shards must
// reproduce the unpartitioned LinearScan exactly, with per-shard distance
// evaluations summing to the global cost (n per query for linear shards).
func TestShardedIndexMatchesLinearScan(t *testing.T) {
	const n = 120
	db, rng := shardedTestDB(50, n, 3)
	x, err := NewShardedIndex(db, roundRobinParts(n, 5), buildLinearShards)
	if err != nil {
		t.Fatal(err)
	}
	truth := NewLinearScan(db)
	for _, q := range dataset.UniformVectors(rng, 25, 3) {
		got, st := x.KNN(q, 4)
		want, wst := truth.KNN(q, 4)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("kNN result %d = %+v, want %+v", j, got[j], want[j])
			}
		}
		if st.DistanceEvals != wst.DistanceEvals {
			t.Fatalf("sharded evals %d != unpartitioned %d: per-shard counters must sum to the global cost",
				st.DistanceEvals, wst.DistanceEvals)
		}
		gr, _ := x.Range(q, 0.4)
		wr, _ := truth.Range(q, 0.4)
		if len(gr) != len(wr) {
			t.Fatalf("range sizes differ: %d vs %d", len(gr), len(wr))
		}
		for j := range wr {
			if gr[j] != wr[j] {
				t.Fatalf("range result %d differs", j)
			}
		}
	}
}

// TestShardedIndexTieBreaking plants exact distance ties straddling shards:
// the merge must break them by global ID, exactly as one index would.
func TestShardedIndexTieBreaking(t *testing.T) {
	// Four coincident point pairs; round-robin over 2 shards separates the
	// members of each pair.
	pts := []metric.Point{
		metric.Vector{0, 0}, metric.Vector{0, 0},
		metric.Vector{1, 0}, metric.Vector{1, 0},
		metric.Vector{0, 1}, metric.Vector{0, 1},
		metric.Vector{1, 1}, metric.Vector{1, 1},
	}
	db := NewDB(metric.L2{}, pts)
	x, err := NewShardedIndex(db, roundRobinParts(len(pts), 2), buildLinearShards)
	if err != nil {
		t.Fatal(err)
	}
	truth := NewLinearScan(db)
	q := metric.Vector{0.1, 0.1}
	for k := 1; k <= len(pts); k++ {
		got, _ := x.KNN(q, k)
		want, _ := truth.KNN(q, k)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("k=%d result %d = %+v, want %+v (tie broken wrong)", k, j, got[j], want[j])
			}
		}
	}
}

func TestNewShardedIndexValidation(t *testing.T) {
	db, _ := shardedTestDB(51, 10, 2)
	cases := []struct {
		name  string
		parts [][]int
		want  string
	}{
		{"no shards", [][]int{}, "at least one"},
		{"empty shard", [][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {}}, "empty"},
		{"out of range", [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 10}}, "out of range"},
		{"negative", [][]int{{-1, 1, 2, 3, 4}, {5, 6, 7, 8, 9}}, "out of range"},
		{"duplicate", [][]int{{0, 1, 2, 3, 4}, {4, 5, 6, 7, 8}}, "two shards"},
		{"not increasing", [][]int{{0, 2, 1, 3, 4}, {5, 6, 7, 8, 9}}, "increasing"},
		{"incomplete", [][]int{{0, 1, 2}, {5, 6, 7}}, "covers"},
	}
	for _, c := range cases {
		_, err := NewShardedIndex(db, c.parts, buildLinearShards)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
	if _, err := NewShardedIndex(nil, [][]int{{0}}, buildLinearShards); err == nil {
		t.Error("nil database should error")
	}
	// Builder failures surface with the shard number.
	_, err := NewShardedIndex(db, roundRobinParts(10, 2), func(s int, sdb *DB) (Index, error) {
		return nil, nil
	})
	if err == nil || !strings.Contains(err.Error(), "nil index") {
		t.Errorf("nil member index: %v", err)
	}
}
