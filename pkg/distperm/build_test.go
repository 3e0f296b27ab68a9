package distperm

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"distperm/internal/dataset"
)

func testDB(t *testing.T, seed int64, n, d int) (*DB, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db, err := NewDB(L2, dataset.UniformVectors(rng, n, d))
	if err != nil {
		t.Fatal(err)
	}
	return db, rng
}

func TestNewDBErrors(t *testing.T) {
	if _, err := NewDB(nil, []Point{Vector{0}}); err == nil {
		t.Error("nil metric should error")
	}
	if _, err := NewDB(L2, nil); err == nil {
		t.Error("empty database should error")
	}
}

func TestBuildEveryKind(t *testing.T) {
	db, rng := testDB(t, 1, 300, 4)
	q := dataset.UniformVectors(rng, 1, 4)[0]
	truth, _ := mustBuild(t, db, Spec{Index: "linear"}).KNN(q, 3)
	for _, kind := range Kinds() {
		idx := mustBuild(t, db, Spec{Index: kind, K: 6, Seed: 7})
		if idx.Name() != kind {
			t.Errorf("Build(%q).Name() = %q", kind, idx.Name())
		}
		got, stats := idx.KNN(q, 3)
		if len(got) != 3 {
			t.Fatalf("%s: %d results", kind, len(got))
		}
		for i := range got {
			if got[i] != truth[i] {
				t.Errorf("%s: result %d = %+v, want %+v", kind, i, got[i], truth[i])
			}
		}
		if stats.DistanceEvals <= 0 {
			t.Errorf("%s: no distance evaluations reported", kind)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	db, _ := testDB(t, 2, 50, 3)
	if _, err := Build(nil, Spec{Index: "linear"}); err == nil {
		t.Error("nil database should error")
	}
	if _, err := Build(db, Spec{Index: "btree"}); err == nil {
		t.Error("unknown kind should error")
	} else if !strings.Contains(err.Error(), "distperm") {
		t.Errorf("error should list known kinds: %v", err)
	}
	for _, k := range []int{-1, 51} {
		if _, err := Build(db, Spec{Index: "distperm", K: k}); err == nil {
			t.Errorf("k=%d should error", k)
		}
	}
}

// TestBuildMatrixBound: aesa and iaesa refuse a store whose n×n float64
// distance matrix would exceed 1 GiB, with ErrOutOfRange naming the bound,
// before allocating any of it.
func TestBuildMatrixBound(t *testing.T) {
	if maxMatrixN*maxMatrixN*8 > 1<<30 || (maxMatrixN+1)*(maxMatrixN+1)*8 <= 1<<30 {
		t.Fatalf("maxMatrixN = %d is not the largest n with an n² float64 matrix ≤ 1 GiB", maxMatrixN)
	}
	pts := make([]Point, maxMatrixN+1)
	for i := range pts {
		pts[i] = Vector{float64(i)}
	}
	db, err := NewDB(L1, pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"aesa", "iaesa"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Build(db, Spec{Index: kind})
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrOutOfRange) || !strings.Contains(err.Error(), "11585") {
			t.Errorf("%s over %d points: err %v, want ErrOutOfRange naming the bound", kind, db.N(), err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s over %d points allocated %d bytes before refusing", kind, db.N(), grew)
		}
	}
}

func TestBuildDefaultK(t *testing.T) {
	// K defaults to DefaultK, capped at the database size.
	db, _ := testDB(t, 3, 5, 2)
	idx, err := Build(db, Spec{Index: "distperm"})
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.(*PermIndex).K(); got != 5 {
		t.Errorf("K() = %d, want 5 (capped)", got)
	}
}

// TestDistpermSitesReproducible pins the site draw: the builder's partial
// Fisher–Yates selection must stay deterministic per seed (serialized index
// files record explicit site IDs, but reproducible builds are part of the
// Spec contract). The pinned values are the draw of sampleSites, which
// replaced the O(N)-allocating rng.Perm(N)[:K].
func TestDistpermSitesReproducible(t *testing.T) {
	db, _ := testDB(t, 40, 300, 3)
	want := []int{86, 106, 87, 147, 144, 198}
	for run := 0; run < 2; run++ {
		idx := mustBuild(t, db, Spec{Index: "distperm", K: 6, Seed: 7}).(*PermIndex)
		got := idx.SiteIDs()
		if len(got) != len(want) {
			t.Fatalf("run %d: %d sites, want %d", run, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d: sites = %v, want %v", run, got, want)
			}
		}
	}
}

// TestSampleSitesDistinct checks the partial Fisher–Yates draw across the
// k ≤ n spectrum, including the degenerate k = n full shuffle: k distinct
// in-range IDs every time.
func TestSampleSitesDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, c := range []struct{ n, k int }{
		{1, 1}, {2, 1}, {2, 2}, {10, 10}, {100, 1}, {100, 99}, {5000, 8},
	} {
		for trial := 0; trial < 20; trial++ {
			ids := sampleSites(rng, c.n, c.k)
			if len(ids) != c.k {
				t.Fatalf("n=%d k=%d: drew %d IDs", c.n, c.k, len(ids))
			}
			seen := make(map[int]bool, c.k)
			for _, id := range ids {
				if id < 0 || id >= c.n {
					t.Fatalf("n=%d k=%d: ID %d out of range", c.n, c.k, id)
				}
				if seen[id] {
					t.Fatalf("n=%d k=%d: duplicate ID %d in %v", c.n, c.k, id, ids)
				}
				seen[id] = true
			}
		}
	}
}

func mustBuild(t *testing.T, db *DB, spec Spec) Index {
	t.Helper()
	idx, err := Build(db, spec)
	if err != nil {
		t.Fatalf("Build(%+v): %v", spec, err)
	}
	return idx
}
