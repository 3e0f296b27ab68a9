package distperm_test

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"distperm/internal/dataset"
	"distperm/pkg/distperm"
)

// buildPermStore builds a distperm index over a fresh uniform database and
// writes it to dir in both on-disk forms, returning the db and both paths.
func buildPermStore(t *testing.T, dir string, n, d, k int) (*distperm.DB, string, string) {
	t.Helper()
	rng := rand.New(rand.NewSource(701))
	db, err := distperm.NewDB(distperm.L2, dataset.UniformVectors(rng, n, d))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := distperm.Build(db, distperm.Spec{Index: "distperm", K: k, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	compact := filepath.Join(dir, "index.dpx")
	frozen := filepath.Join(dir, "index.frozen.dpx")
	cf, err := os.Create(compact)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := distperm.WriteIndex(cf, idx); err != nil {
		t.Fatal(err)
	}
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
	ff, err := os.Create(frozen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := distperm.WriteFrozenIndex(ff, idx.(*distperm.PermIndex)); err != nil {
		t.Fatal(err)
	}
	if err := ff.Close(); err != nil {
		t.Fatal(err)
	}
	return db, compact, frozen
}

// TestLoadMappedMatchesStream is the serving-layer half of the backend
// equivalence guarantee: an Engine over a mapped frozen container must
// answer exactly like an Engine over the stream-decoded heap index.
func TestLoadMappedMatchesStream(t *testing.T) {
	dir := t.TempDir()
	db, compact, frozen := buildPermStore(t, dir, 1_500, 3, 8)

	heap, err := distperm.Load(compact, distperm.LoadOptions{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	defer heap.Close()
	if heap.Mapped() {
		t.Error("stream load reported Mapped")
	}
	mapped, err := distperm.Load(frozen, distperm.LoadOptions{Mmap: true, DB: db})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if zeroCopyHost() && !mapped.Mapped() {
		t.Error("mmap load did not report Mapped")
	}

	he, err := distperm.NewEngine(db, heap.Index, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer he.Close()
	me, err := distperm.NewEngine(mapped.DB, mapped.Index, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer me.Close()

	rng := rand.New(rand.NewSource(702))
	qs := dataset.UniformVectors(rng, 64, 3)
	wantK, err := he.KNNBatch(qs, 5)
	if err != nil {
		t.Fatal(err)
	}
	gotK, err := me.KNNBatch(qs, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if !sameResultSlices(gotK[i], wantK[i]) {
			t.Fatalf("query %d: mapped kNN %v != heap %v", i, gotK[i], wantK[i])
		}
	}
	wantR, err := he.RangeBatch(qs[:16], 0.3)
	if err != nil {
		t.Fatal(err)
	}
	gotR, err := me.RangeBatch(qs[:16], 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantR {
		if !sameResultSlices(gotR[i], wantR[i]) {
			t.Fatalf("query %d: mapped range %v != heap %v", i, gotR[i], wantR[i])
		}
	}
}

// zeroCopyHost mirrors the internal gate: mapped serving needs mmap support
// (the unix build tag) and a little-endian host. The test hosts we run on
// are all little-endian, so the OS check suffices.
func zeroCopyHost() bool {
	switch runtime.GOOS {
	case "linux", "darwin", "freebsd", "netbsd", "openbsd", "dragonfly", "solaris", "aix":
		return true
	}
	return false
}

// TestLoadSelfContained: a frozen container over a named metric embeds its
// points, so a mapped Load needs no database at all — the O(1) restart path.
func TestLoadSelfContained(t *testing.T) {
	dir := t.TempDir()
	db, _, frozen := buildPermStore(t, dir, 400, 3, 6)

	st, err := distperm.Load(frozen, distperm.LoadOptions{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.DB == nil || st.DB.N() != db.N() {
		t.Fatalf("self-contained load: got db of %v points, want %d", st.DB, db.N())
	}
	eng, err := distperm.NewEngine(st.DB, st.Index, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ref, err := distperm.NewEngine(db, mustBuild(t, db), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	rng := rand.New(rand.NewSource(703))
	qs := dataset.UniformVectors(rng, 20, 3)
	got, err := eng.KNNBatch(qs, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.KNNBatch(qs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if !sameResultSlices(got[i], want[i]) {
			t.Fatalf("query %d: self-contained kNN %v != %v", i, got[i], want[i])
		}
	}
}

func mustBuild(t *testing.T, db *distperm.DB) distperm.Index {
	t.Helper()
	idx, err := distperm.Build(db, distperm.Spec{Index: "distperm", K: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestLoadNeedDB: an unnamed metric (LP 2.5 has no registry name) keeps the
// points out of the container; a database-less mapped Load must fail with
// ErrNeedDB, and succeed once the database is supplied.
func TestLoadNeedDB(t *testing.T) {
	rng := rand.New(rand.NewSource(704))
	db, err := distperm.NewDB(distperm.LP(2.5), dataset.UniformVectors(rng, 120, 3))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := distperm.Build(db, distperm.Spec{Index: "distperm", K: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "nodb.dpx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := distperm.WriteFrozenIndex(f, idx.(*distperm.PermIndex)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := distperm.Load(path, distperm.LoadOptions{Mmap: true}); !errors.Is(err, distperm.ErrNeedDB) {
		t.Fatalf("database-less load of point-less container: err = %v, want ErrNeedDB", err)
	}
	st, err := distperm.Load(path, distperm.LoadOptions{Mmap: true, DB: db})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	q := dataset.UniformVectors(rng, 1, 3)[0]
	got, _ := st.Index.KNN(q, 3)
	want, _ := idx.KNN(q, 3)
	if !sameResultSlices(got, want) {
		t.Fatalf("kNN over retried load %v != %v", got, want)
	}
}

func TestLoadStreamRequiresDB(t *testing.T) {
	dir := t.TempDir()
	_, compact, _ := buildPermStore(t, dir, 100, 2, 4)
	if _, err := distperm.Load(compact, distperm.LoadOptions{}); err == nil {
		t.Fatal("stream load without a database should fail")
	}
}

// TestMutableBaseRelease pins the release hook's contract: it runs exactly
// once, after the wrapped base stops serving — at the first rebuild swap, or
// at Close when no rebuild ever replaced the base.
func TestMutableBaseRelease(t *testing.T) {
	build := func(t *testing.T, released *atomic.Int32) (*distperm.MutableEngine, []distperm.Point) {
		rng := rand.New(rand.NewSource(705))
		pts := dataset.UniformVectors(rng, 150, 3)
		db, err := distperm.NewDB(distperm.L2, pts)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := distperm.Build(db, distperm.Spec{Index: "distperm", K: 6, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		me, err := distperm.WrapMutable(db, idx, distperm.MutableConfig{
			Workers:     2,
			BaseRelease: func() { released.Add(1) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return me, pts
	}

	t.Run("on rebuild swap", func(t *testing.T) {
		var released atomic.Int32
		me, pts := build(t, &released)
		if _, err := me.Insert(distperm.Vector{0.5, 0.5, 0.5}); err != nil {
			t.Fatal(err)
		}
		if err := me.Rebuild(); err != nil {
			t.Fatal(err)
		}
		// The hook runs once the old view's readers drain — none are in
		// flight, so the hook must fire promptly.
		deadline := time.Now().Add(10 * time.Second)
		for released.Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := released.Load(); got != 1 {
			t.Fatalf("BaseRelease ran %d times after rebuild, want 1", got)
		}
		// The swapped-in base must still answer, and Close must not re-run
		// the hook.
		if _, err := me.KNNBatch(pts[:3], 2); err != nil {
			t.Fatal(err)
		}
		me.Close()
		if got := released.Load(); got != 1 {
			t.Fatalf("BaseRelease ran %d times after Close, want 1", got)
		}
	})

	t.Run("on close without rebuild", func(t *testing.T) {
		var released atomic.Int32
		me, pts := build(t, &released)
		if _, err := me.KNNBatch(pts[:3], 2); err != nil {
			t.Fatal(err)
		}
		if released.Load() != 0 {
			t.Fatal("BaseRelease ran while the base was still serving")
		}
		me.Close()
		if got := released.Load(); got != 1 {
			t.Fatalf("BaseRelease ran %d times after Close, want 1", got)
		}
	})
}
