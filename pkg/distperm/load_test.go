package distperm_test

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

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
	wantR, _, err := he.Search(qs[:16], distperm.Query{Radius: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	gotR, _, err := me.Search(qs[:16], distperm.Query{Radius: 0.3})
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

// TestLoadRefusesRetiredRevisions: the PFR3 and PFR2 golden files, which
// earlier builds wrote, are refused by every Load — mapped with and without a
// database, and decoded onto the heap — by an error that names the revision
// and says how to re-freeze it.
func TestLoadRefusesRetiredRevisions(t *testing.T) {
	db, err := distperm.NewDB(distperm.L2, dataset.UniformVectors(rand.New(rand.NewSource(706)), 50, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, rev := range []string{"PFR3", "PFR2"} {
		path := filepath.Join("..", "..", "internal", "sisap", "testdata", "golden", "distperm-frozen-"+strings.ToLower(rev)+".dpermidx")
		want := "unsupported frozen revision " + rev + ", no longer read: re-freeze it with an earlier build (distpermd <dataset flags> -load old -freeze new)"
		for _, opts := range []distperm.LoadOptions{{Mmap: true}, {Mmap: true, DB: db}, {DB: db}} {
			if st, err := distperm.Load(path, opts); err == nil || st != nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s, mmap %v, database %v: Load returned %v, want %q", rev, opts.Mmap, opts.DB != nil, err, want)
			}
		}
	}
}

func TestLoadStreamRequiresDB(t *testing.T) {
	dir := t.TempDir()
	_, compact, _ := buildPermStore(t, dir, 100, 2, 4)
	if _, err := distperm.Load(compact, distperm.LoadOptions{}); err == nil {
		t.Fatal("stream load without a database should fail")
	}
}

// TestMutableOverMappedExternalBase is the lifecycle of a mapped base whose
// points live elsewhere: a point-less frozen container (LP 2.5 has no name a
// file could carry) mapped against a heap database, wrapped mutable, read
// while rebuilds replace it, and unmapped only by Store.Close after the
// engine has closed. Nothing is handed back early: the mapping outlives every
// view a reader could still hold, and answers equal a heap-built twin's.
func TestMutableOverMappedExternalBase(t *testing.T) {
	rng := rand.New(rand.NewSource(705))
	pts := dataset.UniformVectors(rng, 300, 3)
	db, err := distperm.NewDB(distperm.LP(2.5), pts)
	if err != nil {
		t.Fatal(err)
	}
	spec := distperm.Spec{Index: "distperm", K: 6, Seed: 7}
	idx, err := distperm.Build(db, spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "external.dpx")
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
	st, err := distperm.Load(path, distperm.LoadOptions{Mmap: true, DB: db})
	if err != nil {
		t.Fatal(err)
	}
	cfg := distperm.MutableConfig{Spec: spec}
	me, err := distperm.WrapMutable(st.DB, st.Index, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := distperm.WrapMutable(db, idx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	// Readers run across the rebuilds, some of them on the mapped view.
	qs := dataset.UniformVectors(rng, 8, 3)
	stop := make(chan struct{})
	readers := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func() {
			for {
				select {
				case <-stop:
					readers <- nil
					return
				default:
				}
				if _, err := me.KNNBatch(qs, 4); err != nil {
					readers <- err
					return
				}
			}
		}()
	}
	for round := 0; round < 3; round++ {
		for _, p := range dataset.UniformVectors(rng, 5, 3) {
			for _, e := range []*distperm.MutableEngine{me, ref} {
				if _, err := e.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, e := range []*distperm.MutableEngine{me, ref} {
			if err := e.Rebuild(); err != nil {
				t.Fatal(err)
			}
		}
		got, err := me.KNNBatch(qs, 4)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.KNNBatch(qs, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range qs {
			if !sameResultSlices(got[i], want[i]) {
				t.Fatalf("round %d query %d: over the mapped base %v, heap twin %v", round, i, got[i], want[i])
			}
		}
	}
	close(stop)
	for r := 0; r < 2; r++ {
		if err := <-readers; err != nil {
			t.Fatal(err)
		}
	}
	if st.Mapped() && distperm.ReadMmapStats().MappedBytes == 0 {
		t.Error("the mapping was released before Store.Close")
	}
	// The owner's order: the engine first, then the mapping under it.
	me.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
