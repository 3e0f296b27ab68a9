package sisap

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"distperm/internal/metric"
)

// codecFixture is one small fixed-seed index and the writer that serialises
// it: WriteIndex for every kind, plus WriteFrozen for the distperm index's
// second form.
type codecFixture struct {
	name  string
	idx   Index
	write func(io.Writer) (int64, error)
}

// codecFixtures builds one index of every container kind over the 50-point
// database FuzzReadIndex decodes against. Everything is seeded, so the same
// function run at another commit builds the same indexes — which is how the
// files under testdata/golden were produced.
func codecFixtures(t testing.TB) (*DB, []codecFixture) {
	t.Helper()
	db, rng := testDB(601, 50, 3, metric.L2{})
	perm := NewPermIndex(db, rng.Perm(db.N())[:5], Footrule)
	sharded, err := NewShardedIndex(db, roundRobinParts(db.N(), 2), func(s int, sdb *DB) (Index, error) {
		if s == 0 {
			return NewPermIndex(sdb, []int{3, 11, 19, 7}, KendallTau), nil
		}
		return NewVPTree(sdb, rand.New(rand.NewSource(604))), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 40 indexed points, 10 delta points; gapped gids, tombstones on both
	// sides of the base/delta line.
	const nb = 40
	gids := make([]int, db.N())
	for i := range gids {
		gids[i] = i + i/nb*5
	}
	base := NewPermIndex(NewDB(db.Metric, db.Points[:nb]), []int{2, 9, 30, 21, 14, 38}, SpearmanRho)
	mutable, err := NewMutableIndex(db, nb, base, gids, []int{3, 17, gids[44]}, 70)
	if err != nil {
		t.Fatal(err)
	}
	fixtures := []codecFixture{
		{name: "linear", idx: NewLinearScan(db)},
		{name: "aesa", idx: NewAESA(db)},
		{name: "iaesa", idx: NewIAESA(db)},
		{name: "laesa", idx: NewLAESAMaxSpread(db, 4)},
		{name: "distperm", idx: perm},
		{name: "distperm-frozen", idx: perm, write: func(w io.Writer) (int64, error) { return WriteFrozen(w, perm) }},
		{name: "vptree", idx: NewVPTree(db, rand.New(rand.NewSource(602)))},
		{name: "ghtree", idx: NewGHTree(db, rand.New(rand.NewSource(603)))},
		{name: "sharded", idx: sharded},
		{name: "mutable", idx: mutable},
	}
	for i := range fixtures {
		if fx := &fixtures[i]; fx.write == nil {
			fx.write = func(w io.Writer) (int64, error) { return WriteIndex(w, fx.idx) }
		}
	}
	return db, fixtures
}

// bytesOf serialises the fixture.
func (fx codecFixture) bytesOf(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := fx.write(&buf); err != nil {
		t.Fatalf("%s: %v", fx.name, err)
	}
	return buf.Bytes()
}

// TestGoldenContainers is the proof that no format moved: what WriteIndex
// and WriteFrozen emit for every kind must equal, byte for byte, the files
// under testdata/golden, which commit 35e7fe6 (PR 18, the last one before
// the codecs were rewritten over the cursor) wrote from this same fixture
// function — but for distperm-frozen, rewritten each time WriteFrozen moved
// to a new revision (PFR2 → PFR3 → PFR4). Each golden file
// must also decode to an index that answers as the built one does.
// GEN_GOLDEN=1 rewrites the files — only ever from a commit whose encoders
// are the reference.
//
// distperm-frozen-pfr3 and distperm-frozen-pfr2 are the files the earlier
// writers produced, of the same index: neither reader is left, and both files
// must be refused — mapped and decoded, with a database and without — by an
// error that names the revision (retiredFrozen).
func TestGoldenContainers(t *testing.T) {
	db, fixtures := codecFixtures(t)
	q := metric.Vector{0.4, 0.6, 0.5}
	for _, fx := range fixtures {
		path := filepath.Join("testdata", "golden", fx.name+".dpermidx")
		got := fx.bytesOf(t)
		if os.Getenv("GEN_GOLDEN") == "1" {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wrote %d bytes that differ from the %d golden ones", fx.name, len(got), len(want))
		}
		loaded, err := ReadIndex(bytes.NewReader(want), db)
		if err != nil {
			t.Fatalf("%s: golden file does not load: %v", fx.name, err)
		}
		if loaded.Name() != fx.idx.Name() || loaded.IndexBits() != fx.idx.IndexBits() {
			t.Errorf("%s: loaded as %s with %d bits, built %s with %d", fx.name,
				loaded.Name(), loaded.IndexBits(), fx.idx.Name(), fx.idx.IndexBits())
		}
		a, ast := loaded.KNN(q, 7)
		b, bst := fx.idx.KNN(q, 7)
		sameResults(t, fx.name+" golden kNN", a, b)
		if ast != bst {
			t.Errorf("%s: loaded index costs %+v, built one %+v", fx.name, ast, bst)
		}
	}
	if os.Getenv("GEN_GOLDEN") == "1" {
		return
	}
	for _, rev := range []string{"PFR3", "PFR2"} {
		path := filepath.Join("testdata", "golden", "distperm-frozen-"+strings.ToLower(rev)+".dpermidx")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := "unsupported frozen revision " + rev + ", no longer read: re-freeze it with an earlier build"
		if x, err := ReadIndex(bytes.NewReader(raw), db); err == nil || x != nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s golden file: ReadIndex returned %v, want %q", rev, err, want)
		}
		for _, against := range []*DB{db, nil} {
			if m, err := OpenMapped(path, against); err == nil || m != nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s golden file (database %v): OpenMapped returned %v, want %q", rev, against != nil, err, want)
			}
		}
	}
}

// hostileContainer is a must-reject input: a valid container with one field
// made to lie.
type hostileContainer struct {
	name string
	raw  []byte
}

// hostileContainers builds the inputs that, before the cursor, either
// decoded without error and panicked a query (an ID of 1<<63 passes
// int(id) >= n; nothing checked the distance) or made the decoder allocate
// what a length field claimed before reading a byte of it (2 GiB here, the
// old sanity cap).
func hostileContainers(t testing.TB) []hostileContainer {
	t.Helper()
	db, fixtures := codecFixtures(t)
	valid := map[string][]byte{}
	for _, fx := range fixtures {
		valid[fx.name] = fx.bytesOf(t)
	}
	n := uint64(db.N())
	// payloadAt returns the offset of a kind's payload: past magic, version,
	// kind length and kind.
	payloadAt := func(kind string) int { return len(codecMagic) + 4 + 4 + len(kind) }
	put := func(kind string, off int, v uint64) []byte {
		raw := bytes.Clone(valid[kind])
		binary.LittleEndian.PutUint64(raw[off:], v)
		return raw
	}
	// sharded: n, S, then S × (len, len IDs); the first shard's length follows.
	shardLen := payloadAt("sharded") + 8 + 4
	for s := 0; s < 2; s++ {
		shardLen += 8 + 8*int(binary.LittleEndian.Uint64(valid["sharded"][shardLen:]))
	}
	// mutable: n, nb, nextGid, n gids, nt, nt tombstones; the base's length follows.
	baseLen := payloadAt("mutable") + 8 + 8 + 8 + 8*int(n)
	baseLen += 8 + 8*int(binary.LittleEndian.Uint64(valid["mutable"][baseLen:]))
	// distperm (PTBL): tag, k, n, then the permutation distance (uint32). An
	// unknown one used to load, and panic the first ordered scan.
	badDist := bytes.Clone(valid["distperm"])
	binary.LittleEndian.PutUint32(badDist[payloadAt("distperm")+4+4+8:], 9)
	return []hostileContainer{
		{"distperm-dist", badDist},
		// vptree, ghtree: n, then the root node's flags byte and its ID.
		{"vptree-id", put("vptree", payloadAt("vptree")+8+1, 1<<63)},
		{"ghtree-id", put("ghtree", payloadAt("ghtree")+8+1, 1<<63)},
		// laesa: n, pivot count (uint32), then the first pivot's ID.
		{"laesa-id", put("laesa", payloadAt("laesa")+8+4, 1<<63)},
		{"sharded-payload-len", put("sharded", shardLen, 1<<31)},
		{"mutable-payload-len", put("mutable", baseLen, 1<<31)},
	}
}

// TestReadIndexRejectsHostileContainers: each must come back from ReadIndex
// as an error, having allocated nothing a length field asked for — the
// decoder's own bookkeeping is bounded by the input and the database.
func TestReadIndexRejectsHostileContainers(t *testing.T) {
	db, _ := codecFixtures(t)
	for _, h := range hostileContainers(t) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := ReadIndex(bytes.NewReader(h.raw), db)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: ReadIndex accepted it (%T)", h.name, got)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoding a %d-byte input allocated %d bytes", h.name, len(h.raw), grew)
		}
	}
}
