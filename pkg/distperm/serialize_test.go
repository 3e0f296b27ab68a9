package distperm

import (
	"bytes"
	"strings"
	"testing"

	"distperm/internal/dataset"
)

// TestSerializeRoundTripEveryKind writes and reloads every buildable index
// kind through the public codec entry points and demands bit-identical
// query behaviour from the reloaded copy. (The sharded and mutable
// containers have no Build-registry kind — one needs a shard count and
// Partitioner, the other a live write history; their round trips are
// covered by TestShardedSerializeRoundTrip and the mutable-engine tests.)
func TestSerializeRoundTripEveryKind(t *testing.T) {
	db, rng := testDB(t, 20, 250, 3)
	queryPts := dataset.UniformVectors(rng, 20, 3)
	if len(Kinds()) < 7 {
		t.Fatalf("build registry holds %v, want at least the family's seven kinds", Kinds())
	}
	for _, kind := range Kinds() {
		idx := mustBuild(t, db, Spec{Index: kind, K: 5, Seed: 3})

		var buf bytes.Buffer
		n, err := WriteIndex(&buf, idx)
		if err != nil {
			t.Fatalf("%s: write: %v", kind, err)
		}
		if n != int64(buf.Len()) {
			t.Errorf("%s: reported %d bytes, wrote %d", kind, n, buf.Len())
		}
		got, err := ReadIndex(&buf, db)
		if err != nil {
			t.Fatalf("%s: read: %v", kind, err)
		}
		if got.Name() != idx.Name() {
			t.Errorf("%s: reloaded as %q", kind, got.Name())
		}
		if got.IndexBits() != idx.IndexBits() {
			t.Errorf("%s: IndexBits %d != %d after round trip",
				kind, got.IndexBits(), idx.IndexBits())
		}
		for i, q := range queryPts {
			a, as := idx.KNN(q, 4)
			b, bs := got.KNN(q, 4)
			if as != bs {
				t.Errorf("%s: query %d stats diverge (%+v vs %+v)", kind, i, as, bs)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("%s: query %d kNN result %d differs after round trip", kind, i, j)
				}
			}
			ar, _ := idx.Range(q, 0.3)
			br, _ := got.Range(q, 0.3)
			if len(ar) != len(br) {
				t.Fatalf("%s: query %d range sizes differ", kind, i)
			}
			for j := range ar {
				if ar[j] != br[j] {
					t.Fatalf("%s: query %d range result %d differs", kind, i, j)
				}
			}
		}
	}
}

func TestReadIndexRejectsCorruption(t *testing.T) {
	db, _ := testDB(t, 22, 60, 2)
	idx := mustBuild(t, db, Spec{Index: "vptree", Seed: 5})
	var buf bytes.Buffer
	if _, err := WriteIndex(&buf, idx); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Bad magic.
	bad := append([]byte("NOTANIDX"), raw[8:]...)
	if _, err := ReadIndex(bytes.NewReader(bad), db); err == nil ||
		!strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: %v", err)
	}
	// Unsupported container version.
	vbad := append([]byte(nil), raw...)
	vbad[8] = 99
	if _, err := ReadIndex(bytes.NewReader(vbad), db); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: %v", err)
	}
	// Unknown kind.
	kbad := append([]byte(nil), raw...)
	copy(kbad[16:], "qqtree")
	if _, err := ReadIndex(bytes.NewReader(kbad), db); err == nil ||
		!strings.Contains(err.Error(), "codec") {
		t.Errorf("unknown kind: %v", err)
	}
	// Truncated mid-payload.
	if _, err := ReadIndex(bytes.NewReader(raw[:len(raw)/2]), db); err == nil {
		t.Error("truncated file should error")
	}
	// Truncated mid-header.
	if _, err := ReadIndex(bytes.NewReader(raw[:10]), db); err == nil {
		t.Error("truncated header should error")
	}
	// Wrong database.
	other, _ := testDB(t, 23, 10, 2)
	if _, err := ReadIndex(bytes.NewReader(raw), other); err == nil {
		t.Error("database size mismatch should error")
	}
}

// TestWriteIndexOversizedK: an in-memory distperm index may have more than
// 20 sites, but the packed on-disk format cannot hold it — that must
// surface as an error at the public boundary, not a panic.
func TestWriteIndexOversizedK(t *testing.T) {
	db, _ := testDB(t, 24, 60, 2)
	idx := mustBuild(t, db, Spec{Index: "distperm", K: 25, Seed: 6})
	var buf bytes.Buffer
	if _, err := WriteIndex(&buf, idx); err == nil ||
		!strings.Contains(err.Error(), "limit 20") {
		t.Errorf("k=25 WriteIndex: %v", err)
	}
}

// TestWriteIndexUnknownKind exercises the encode-side registry miss.
func TestWriteIndexUnknownKind(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteIndex(&buf, unknownIndex{}); err == nil {
		t.Error("unregistered kind should error")
	}
}

// TestWrapMutableForeignIndex: an index of another package cannot leave a
// deleted point out of its walk, so it does not get the write path.
func TestWrapMutableForeignIndex(t *testing.T) {
	db, err := NewDB(L2, []Point{Vector{0, 0}, Vector{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WrapMutable(db, unknownIndex{}, MutableConfig{}); err == nil {
		t.Error("WrapMutable accepted an index of another package")
	}
}

type unknownIndex struct{}

func (unknownIndex) Name() string                               { return "qqtree" }
func (unknownIndex) KNN(q Point, k int) ([]Result, Stats)       { return nil, Stats{} }
func (unknownIndex) Range(q Point, r float64) ([]Result, Stats) { return nil, Stats{} }
func (unknownIndex) IndexBits() int64                           { return 0 }
