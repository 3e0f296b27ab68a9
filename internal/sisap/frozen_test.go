package sisap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"distperm/internal/dataset"
	"distperm/internal/metric"

	"math/rand"
)

// writeFrozenFile freezes idx into a temp container file and returns its
// path.
func writeFrozenFile(t testing.TB, idx *PermIndex) string {
	t.Helper()
	return writeImage(t, frozenImage(t, idx))
}

// mappedCopy round-trips idx through a frozen container into an
// OpenMapped view (zero-copy where the platform supports it), closing the
// mapping when the test ends.
func mappedCopy(t testing.TB, idx *PermIndex, db *DB) *PermIndex {
	t.Helper()
	return openMappedPath(t, writeFrozenFile(t, idx), db)
}

// openMappedPath opens the container at path with OpenMapped, closing the
// mapping when the test ends.
func openMappedPath(t testing.TB, path string, db *DB) *PermIndex {
	t.Helper()
	m, err := OpenMapped(path, db)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := m.Close(); err != nil {
			t.Errorf("closing mapping: %v", err)
		}
	})
	return m.Index()
}

// frozenImage is what WriteFrozen emits for idx: a PFR4 container.
func frozenImage(t testing.TB, idx *PermIndex) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteFrozen(&buf, idx); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// bareImage rewrites a PFR4 image as the file of the same store frozen without
// bounds: its layout flags set to flags (0 is what WriteFrozen writes for a
// store without bounds) and its layout section dropped, the chained sum
// recomputed.
func bareImage(t testing.TB, image []byte, flags uint32) []byte {
	t.Helper()
	head, lo, _, _, _, _ := frozenLayoutAt(image)
	bare := bytes.Clone(image[:lo])
	binary.LittleEndian.PutUint32(bare[head+8:], flags)
	binary.LittleEndian.PutUint64(bare[68+24*frozenSecLayout+8:], 0)
	refreezeCRC(bare, frozenSecLayout)
	return bare
}

// BareFrozenForTest is bareImage of x's PFR4 image with flags 0: the file of
// x frozen without bounds, for tests outside the package.
func BareFrozenForTest(t testing.TB, x *PermIndex) []byte {
	return bareImage(t, frozenImage(t, x), 0)
}

// writeImage puts a container image in a temp file and returns its path.
func writeImage(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "image.dpidx")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

type permBackend struct {
	name string
	idx  *PermIndex
}

// permBackends returns the index over both storage backends: as built
// (heap-owned growable store) and round-tripped through a frozen
// container opened by OpenMapped (read-only views into the mapping). The
// oracle tests run over both, pinning every kernel to byte-identical
// behaviour regardless of where the table bytes live.
func permBackends(t testing.TB, idx *PermIndex, db *DB) []permBackend {
	return []permBackend{{"heap", idx}, {"mmap", mappedCopy(t, idx, db)}}
}

func TestFrozenStreamRoundTrip(t *testing.T) {
	// A frozen container must also decode through ReadIndex — onto the
	// heap — yielding the same index a compact container would.
	for _, k := range []int{1, 6, 12} {
		db, rng := testDB(710, 300, 3, metric.L2{})
		for _, dist := range allPermDistances {
			idx := NewPermIndex(db, rng.Perm(db.N())[:k], dist)
			var buf bytes.Buffer
			n, err := WriteFrozen(&buf, idx)
			if err != nil {
				t.Fatalf("k=%d %s: %v", k, dist, err)
			}
			if n != int64(buf.Len()) {
				t.Errorf("k=%d %s: reported %d bytes, wrote %d", k, dist, n, buf.Len())
			}
			loaded, err := ReadIndex(bytes.NewReader(buf.Bytes()), db)
			if err != nil {
				t.Fatalf("k=%d %s: stream decode: %v", k, dist, err)
			}
			got := loaded.(*PermIndex)
			if got.DistinctPermutations() != idx.DistinctPermutations() {
				t.Fatalf("k=%d %s: distinct %d != %d", k, dist, got.DistinctPermutations(), idx.DistinctPermutations())
			}
			q := dataset.UniformVectors(rng, 1, 3)[0]
			a, _ := idx.ScanOrder(q)
			b, _ := got.ScanOrder(q)
			assertSameOrder(t, dist.String(), b, a)
		}
	}
}

func TestFrozenMappedRoundTrip(t *testing.T) {
	db, rng := testDB(711, 400, 3, metric.L2{})
	for _, dist := range allPermDistances {
		idx := NewPermIndex(db, rng.Perm(db.N())[:8], dist)
		got := mappedCopy(t, idx, db)
		if got.DistinctPermutations() != idx.DistinctPermutations() {
			t.Fatalf("%s: distinct %d != %d", dist, got.DistinctPermutations(), idx.DistinctPermutations())
		}
		for qi := 0; qi < 10; qi++ {
			q := dataset.UniformVectors(rng, 1, 3)[0]
			a, _ := idx.ScanOrder(q)
			b, _ := got.ScanOrder(q)
			assertSameOrder(t, dist.String(), b, a)
		}
	}
}

func TestFrozenWideRanksRoundTrip(t *testing.T) {
	// k > 256 exercises the uint16 rank store — and is exactly what the
	// compact bit-packed form (k ≤ 20) cannot represent at all.
	db, rng := testDB(712, 400, 4, metric.L2{})
	idx := NewPermIndex(db, rng.Perm(db.N())[:300], KendallTau)
	if _, err := WriteIndex(&bytes.Buffer{}, idx); err == nil {
		t.Fatal("compact form unexpectedly accepts k=300")
	}
	var buf bytes.Buffer
	if _, err := WriteFrozen(&buf, idx); err != nil {
		t.Fatal(err)
	}
	streamed, err := ReadIndex(bytes.NewReader(buf.Bytes()), db)
	if err != nil {
		t.Fatal(err)
	}
	mapped := mappedCopy(t, idx, db)
	if !mapped.table.wide() || mapped.table.r16.data == nil {
		t.Fatal("mapped k=300 index should use the uint16 store")
	}
	q := dataset.UniformVectors(rng, 1, 4)[0]
	want, _ := idx.ScanOrder(q)
	a, _ := streamed.(*PermIndex).ScanOrder(q)
	b, _ := mapped.ScanOrder(q)
	assertSameOrder(t, "stream", a, want)
	assertSameOrder(t, "mapped", b, want)
}

func TestFrozenSelfContained(t *testing.T) {
	// L2 over equal-dimension vectors is self-describing, so the container
	// embeds the points and opens without a database.
	db, rng := testDB(713, 250, 3, metric.L2{})
	idx := NewPermIndex(db, rng.Perm(db.N())[:6], Footrule)
	m, err := OpenMapped(writeFrozenFile(t, idx), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if mmapSupported && hostLittleEndian && !m.Zero() {
		t.Error("expected a zero-copy mapping on this platform")
	}
	if m.DB().N() != db.N() {
		t.Fatalf("embedded database has %d points, want %d", m.DB().N(), db.N())
	}
	for qi := 0; qi < 10; qi++ {
		q := dataset.UniformVectors(rng, 1, 3)[0]
		want, _ := idx.KNN(q, 5)
		got, _ := m.Index().KNN(q, 5)
		sameResults(t, "self-contained knn", got, want)
	}
}

func TestFrozenNeedDB(t *testing.T) {
	// An LP metric with fractional P has no ByName spelling, so the
	// container cannot embed a reconstructible database: opening without
	// one must fail with ErrNeedDB, and succeed with it.
	rng := rand.New(rand.NewSource(714))
	db := NewDB(metric.LP{P: 2.5}, dataset.UniformVectors(rng, 120, 3))
	idx := NewPermIndex(db, rng.Perm(db.N())[:5], Footrule)
	path := writeFrozenFile(t, idx)
	if _, err := OpenMapped(path, nil); !errors.Is(err, ErrNeedDB) {
		t.Fatalf("open without db: %v, want ErrNeedDB", err)
	}
	m, err := OpenMapped(path, db)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	q := dataset.UniformVectors(rng, 1, 3)[0]
	want, _ := idx.ScanOrder(q)
	got, _ := m.Index().ScanOrder(q)
	assertSameOrder(t, "lp metric", got, want)
}

func TestFrozenRejectsWrongDatabase(t *testing.T) {
	db, rng := testDB(715, 80, 2, metric.L2{})
	idx := NewPermIndex(db, rng.Perm(db.N())[:4], Footrule)
	path := writeFrozenFile(t, idx)
	other := NewDB(metric.L2{}, dataset.UniformVectors(rng, 10, 2))
	if _, err := OpenMapped(path, other); err == nil {
		t.Error("mapped open against a different-size database should error")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndex(bytes.NewReader(data), other); err == nil {
		t.Error("stream decode against a different-size database should error")
	}
}

// refreezeCRC recomputes the stored CRC of section i from the (possibly
// mutated) section bytes — and the layout's, which is summed behind the
// sites' and points' — so corruption tests can separate "checksum catches it"
// from "bounds validation catches it".
func refreezeCRC(data []byte, i int) {
	le := binary.LittleEndian
	desc := func(i int) int { return frozenPrefixLen + 4 + 40 + 24*i } // where section i's descriptor is
	h := frozenHeader{tag: le.Uint32(data[frozenPrefixLen:])}
	h.sec[frozenSecSites].crc = le.Uint32(data[desc(frozenSecSites)+16:])
	h.sec[frozenSecPoints].crc = le.Uint32(data[desc(frozenSecPoints)+16:])
	at := frozenPrefixLen + 4 + frozenFixedLen - 12
	h.cellEll, h.cells, h.flags = int(le.Uint32(data[at:])), int(le.Uint32(data[at+4:])), le.Uint32(data[at+8:])
	off, length := le.Uint64(data[desc(i):]), le.Uint64(data[desc(i)+8:])
	le.PutUint32(data[desc(i)+16:], h.sectionCRC(i, data[off:off+length]))
	if i == frozenSecSites || i == frozenSecPoints {
		refreezeCRC(data, frozenSecLayout)
	}
}

func TestFrozenRejectsCorruptContainers(t *testing.T) {
	db, rng := testDB(717, 200, 3, metric.L2{})
	sites := rng.Perm(db.N())[:6]
	idx := NewPermIndex(db, sites, Footrule)
	pristine := frozenImage(t, idx)
	t.Run("PFR4", func(t *testing.T) { rejectCorruptContainers(t, db, pristine) })
	// The revisions before PFR4 are refused by name, before any other field
	// is read: a PFR4 file re-tagged as either, with or without a database.
	for _, rev := range []string{"PFR3", "PFR2"} {
		t.Run(rev, func(t *testing.T) {
			retagged := bytes.Clone(pristine)
			copy(retagged[frozenPrefixLen:], rev)
			for _, against := range []*DB{db, nil} {
				if _, _, err := openFrozenBytes(retagged, against, false); err == nil || !strings.Contains(err.Error(), "unsupported frozen revision "+rev+", no longer read") {
					t.Errorf("PFR4 re-tagged %s: open returned %v, want the revision refused by name", rev, err)
				}
			}
		})
	}
	// The layout section's every field, on a store cut into cells under
	// bounds: each corruption, its checksum recomputed, fails the open.
	forced := NewPermIndex(db, sites, Footrule)
	forceBounds(forced)
	t.Run("PFR4 layout", func(t *testing.T) { rejectCorruptLayout(t, db, frozenImage(t, forced)) })
}

// frozenLayoutAt returns where a PFR4 image's layout fields are in its header
// (ℓ', then the cell count and the flags), where its layout section and the
// cells' hi ranges in it start, and k, the cell and bucket counts.
func frozenLayoutAt(d []byte) (head, lo, hi, k, cells, nb int) {
	le := binary.LittleEndian
	head = frozenPrefixLen + 4 + frozenFixedLen - 12
	lo = int(le.Uint64(d[68+24*frozenSecLayout:]))
	k, cells, nb = int(le.Uint32(d[36:])), int(le.Uint32(d[head+4:])), int(le.Uint32(d[head-4:]))
	return head, lo, lo + 8*k*cells, k, cells, nb
}

// rejectCorruptLayout replays every layout corruption over one pristine PFR4
// image of a store with cells and bounds, each must fail with a database and
// without. The header fields and the bounds the reader checks are given their
// section's checksum back, chained as the writer chains it, and fail those
// checks; the bounds it cannot check, the plain checksum a tool that patched
// the section would recompute, and fail on the chained one.
func rejectCorruptLayout(t *testing.T, db *DB, pristine []byte) {
	le := binary.LittleEndian
	head, lo, hi, k, cells, nb := frozenLayoutAt(pristine)
	ell := int(le.Uint32(pristine[head-8:]))
	if cells <= nb || le.Uint32(pristine[head+8:])&1 == 0 {
		t.Fatalf("need a layout with bounds and more cells than buckets, have %d cells over %d buckets, flags %d", cells, nb, le.Uint32(pristine[head+8:]))
	}
	if _, _, err := openFrozenBytes(pristine, nil, false); err != nil {
		t.Fatalf("pristine container should open: %v", err)
	}
	f64 := func(d []byte, at int) float64 { return math.Float64frombits(le.Uint64(d[at:])) }
	put64 := func(d []byte, at int, v float64) { le.PutUint64(d[at:], math.Float64bits(v)) }
	cases := []struct {
		name   string
		mutate func(d []byte)
		plain  bool
	}{
		{"prefix length below ℓ", func(d []byte) { le.PutUint32(d[head:], uint32(ell-1)) }, false},
		{"prefix length beyond k", func(d []byte) { le.PutUint32(d[head:], uint32(k+1)) }, false},
		{"prefix length ℓ", func(d []byte) { le.PutUint32(d[head:], uint32(ell)) }, false},
		{"one cell more", func(d []byte) { le.PutUint32(d[head+4:], uint32(cells+1)) }, false},
		{"no cells", func(d []byte) { le.PutUint32(d[head+4:], 0) }, false},
		{"no bounds", func(d []byte) { le.PutUint32(d[head+8:], 0) }, false},
		{"bisector verdict without bounds", func(d []byte) { le.PutUint32(d[head+8:], 2) }, false},
		{"unknown flag", func(d []byte) { le.PutUint32(d[head+8:], 5) }, false},
		{"bisector verdict flipped", func(d []byte) { le.PutUint32(d[head+8:], le.Uint32(d[head+8:])^2) }, true},
		{"a row moved to another cell", func(d []byte) {
			// The first row of the first bucket with rows of several cells
			// swapped with its last: its rows are no longer grouped by cell.
			_, _, _, _, _, rowStartsOff, rowOrderOff, _, _ := frozenBucketGeometry(d)
			x, _, err := openFrozenBytes(d, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			b := 0
			for x.lb.bucketCells[b+1]-x.lb.bucketCells[b] < 2 {
				b++
			}
			first := rowOrderOff + 4*int(le.Uint32(d[rowStartsOff+4*b:]))
			last := rowOrderOff + 4*int(le.Uint32(d[rowStartsOff+4*b+4:])-1)
			r, q := le.Uint32(d[first:]), le.Uint32(d[last:])
			le.PutUint32(d[first:], q)
			le.PutUint32(d[last:], r)
			refreezeCRC(d, frozenSecBuckets)
		}, false},
		{"cell range backwards", func(d []byte) { put64(d, lo, f64(d, hi)+1) }, false},
		{"cell range below 0", func(d []byte) { put64(d, lo, -1) }, false},
		{"cell range narrowed", func(d []byte) { put64(d, lo, f64(d, lo)+1e-3) }, true},
		{"cell range widened", func(d []byte) { put64(d, hi, f64(d, hi)+1) }, true},
	}
	for _, tc := range cases {
		data := bytes.Clone(pristine)
		tc.mutate(data)
		if refreezeCRC(data, frozenSecLayout); tc.plain {
			le.PutUint32(data[68+24*frozenSecLayout+16:], CRC32C(data[lo:]))
		}
		for _, against := range []*DB{db, nil} {
			if x, _, err := openFrozenBytes(data, against, false); err == nil || x != nil {
				t.Errorf("%s (database %v): open accepted the corruption", tc.name, against != nil)
			}
		}
	}
	// The same store frozen without bounds opens; flag 2 alone on that file,
	// the bisector verdict with no bounds to apply it to, no writer sets.
	if _, _, err := openFrozenBytes(bareImage(t, pristine, 0), nil, false); err != nil {
		t.Fatalf("the file without bounds should open: %v", err)
	}
	for _, against := range []*DB{db, nil} {
		if x, _, err := openFrozenBytes(bareImage(t, pristine, 2), against, false); err == nil || x != nil || !strings.Contains(err.Error(), "layout flags 2") {
			t.Errorf("bisector verdict without bounds (database %v): open returned %v", against != nil, err)
		}
	}
}

// TestFrozenWithoutBoundsScans: a self-contained file that carries no bounds —
// here a bounded store's, its bounds flag cleared and its layout section
// dropped, the chained sum recomputed — is served as it stands, whatever
// boundMinFill makes of its shape: opened with no database, mapped or decoded,
// an exact query scans its rows in memory order and a probe measures its
// buckets whole, nothing is swept or copied, each answers as LinearScan does
// over the same candidates, and Bounded says so.
func TestFrozenWithoutBoundsScans(t *testing.T) {
	db, rng := testDB(724, 2000, 3, metric.L2{})
	idx := NewPermIndex(db, rng.Perm(db.N())[:6], Footrule)
	if forceBounds(idx) == nil || !idx.Bounded() {
		t.Fatal("the store does not qualify for bounds")
	}
	image := bareImage(t, frozenImage(t, idx), 0)
	decoded, _, err := openFrozenBytes(image, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	linear := NewLinearScan(db)
	for _, st := range []permBackend{{"mmap", openMappedPath(t, writeImage(t, image), nil)}, {"frozen-heap", decoded}} {
		x := st.idx
		if x.Bounded() {
			t.Fatalf("%s: a store whose file carries no bounds reads Bounded", st.name)
		}
		for qi, q := range dataset.UniformVectors(rng, 20, 3) {
			label := fmt.Sprintf("%s query %d", st.name, qi)
			want, _ := linear.KNN(q, 5)
			got, gst := x.KNN(q, 5)
			sameBits(t, label+" KNN", got, want)
			if gst != (Stats{DistanceEvals: 6 + db.N()}) {
				t.Fatalf("%s: KNN stats %+v, want a scan's", label, gst)
			}
			cand, wantA := referenceProbe(x, q, 5, 2, nil)
			approx, ast := x.KNNApprox(q, 5, 2)
			sameBits(t, label+" KNNApprox", approx, candidateAnswer(db, q, 5, cand))
			if ast != wantA || ast.PrunedEvals != 0 {
				t.Fatalf("%s: KNNApprox stats %+v, measuring whole buckets %+v", label, ast, wantA)
			}
		}
		if x.BoundCells() != 0 || x.RowsHeapBytes() != 0 || x.Bounded() {
			t.Fatalf("%s: %d cells bounded and %d bytes of rows copied after exact and approximate queries", st.name, x.BoundCells(), x.RowsHeapBytes())
		}
	}
}

// rejectCorruptContainers replays every header and section corruption over
// one pristine image.
func rejectCorruptContainers(t *testing.T, db *DB, pristine []byte) {
	le := binary.LittleEndian
	if _, err := OpenMappedBytesForTest(pristine, db); err != nil {
		t.Fatalf("pristine container should open: %v", err)
	}

	// Field offsets within the file: container prefix is 24 bytes, then
	// tag@24, headerOff@28, k@36, dist@40, n@44, distinct@52, rankWidth@56,
	// dims@60, metricLen@64, section descriptors @68+24i.
	cases := []struct {
		name   string
		mutate func(d []byte) []byte
	}{
		{"truncated header", func(d []byte) []byte { return d[:100] }},
		{"truncated section", func(d []byte) []byte { return d[:len(d)-7] }},
		{"trailing garbage", func(d []byte) []byte { return append(d, 0xAB) }},
		{"bad payload tag", func(d []byte) []byte {
			le.PutUint32(d[24:], 0xFFFF_FFFF)
			return d
		}},
		{"header offset lies", func(d []byte) []byte {
			le.PutUint64(d[28:], 1024)
			return d
		}},
		{"k zero", func(d []byte) []byte {
			le.PutUint32(d[36:], 0)
			return d
		}},
		{"unknown distance", func(d []byte) []byte {
			le.PutUint32(d[40:], 9)
			return d
		}},
		{"distinct zero", func(d []byte) []byte {
			le.PutUint32(d[52:], 0)
			return d
		}},
		{"distinct beyond n", func(d []byte) []byte {
			le.PutUint32(d[52:], uint32(db.N()+1))
			return d
		}},
		{"wrong rank width", func(d []byte) []byte {
			le.PutUint32(d[56:], 2)
			return d
		}},
		{"oversized metric name", func(d []byte) []byte {
			le.PutUint32(d[64:], 2000)
			return d
		}},
		{"sites offset out of bounds", func(d []byte) []byte {
			le.PutUint64(d[68:], uint64(len(d))+(1<<20))
			return d
		}},
		{"ranks length inflated", func(d []byte) []byte {
			base := 68 + 24*frozenSecRanks
			le.PutUint64(d[base+8:], le.Uint64(d[base+8:])+8)
			return d
		}},
		{"ranks checksum mismatch", func(d []byte) []byte {
			off := le.Uint64(d[68+24*frozenSecRanks:])
			d[off] ^= 0xFF
			return d
		}},
		{"rank out of range, checksum fixed", func(d []byte) []byte {
			off := le.Uint64(d[68+24*frozenSecRanks:])
			d[off] = 0xFF // k=6, rank 255 is out of range
			refreezeCRC(d, frozenSecRanks)
			return d
		}},
		{"row ID out of range, checksum fixed", func(d []byte) []byte {
			off := le.Uint64(d[68+24*frozenSecIDs:])
			le.PutUint32(d[off:], uint32(db.N())) // ≥ distinct for any table
			refreezeCRC(d, frozenSecIDs)
			return d
		}},
		{"site ID out of range, checksum fixed", func(d []byte) []byte {
			off := le.Uint64(d[68+24*frozenSecSites:])
			le.PutUint64(d[off:], uint64(db.N()))
			refreezeCRC(d, frozenSecSites)
			return d
		}},
		// A header whose fields pass every individual bound but whose
		// dims inflates the points section to n×65536×8 ≈ 100GB. Both
		// paths reject the image as shorter than its header describes,
		// before anything is sized from the header.
		{"points section claims 100GB", func(d []byte) []byte {
			le.PutUint32(d[60:], frozenMaxDims)
			base := 68 + 24*frozenSecPoints
			n := le.Uint64(d[44:])
			le.PutUint64(d[base+8:], n*frozenMaxDims*8)
			return d
		}},
	}
	for _, tc := range cases {
		data := tc.mutate(append([]byte(nil), pristine...))
		if _, err := OpenMappedBytesForTest(data, db); err == nil {
			t.Errorf("%s: mapped open accepted the corruption", tc.name)
		}
		if _, err := ReadIndex(bytes.NewReader(data), db); err == nil {
			t.Errorf("%s: ReadIndex accepted the corruption", tc.name)
		}
	}
}

// OpenMappedBytesForTest runs the mapped-open validation and construction
// over an in-memory image, so corruption tests need no temp files.
func OpenMappedBytesForTest(data []byte, db *DB) (*PermIndex, error) {
	idx, _, err := openFrozenBytes(data, db, false)
	return idx, err
}

// frozenEllAt is where an image's ℓ is, nbuckets four bytes on.
const frozenEllAt = frozenPrefixLen + 4 + frozenFixedLen - 20

// frozenBucketGeometry reads the directory geometry back out of a frozen
// container image: the absolute byte offsets of the five uint32 arrays in
// the buckets section, plus ell and nbuckets. Field positions: n@44,
// distinct@52, buckets descriptor @68+24·frozenSecBuckets, ell@212 and
// nbuckets@216.
func frozenBucketGeometry(d []byte) (n, distinct, ell, nb, prefixesOff, rowStartsOff, rowOrderOff, ptStartsOff, ptOrderOff int) {
	le := binary.LittleEndian
	n = int(le.Uint64(d[44:]))
	distinct = int(le.Uint32(d[52:]))
	ell = int(le.Uint32(d[frozenEllAt:]))
	nb = int(le.Uint32(d[frozenEllAt+4:]))
	prefixesOff = int(le.Uint64(d[68+24*frozenSecBuckets:]))
	rowStartsOff = prefixesOff + 4*nb*ell
	rowOrderOff = rowStartsOff + 4*(nb+1)
	ptStartsOff = rowOrderOff + 4*distinct
	ptOrderOff = ptStartsOff + 4*(nb+1)
	return
}

func TestFrozenRejectsCorruptBucketDirectory(t *testing.T) {
	// The mis-probe guarantee: any directory inconsistent with the rank
	// table — even one whose checksum has been recomputed — must fail
	// decode on both the mapped and stream paths, never serve wrong
	// candidates.
	db, rng := testDB(718, 200, 3, metric.L2{})
	pristine := frozenImage(t, NewPermIndex(db, rng.Perm(db.N())[:6], Footrule))
	t.Run("PFR4", func(t *testing.T) { rejectCorruptBucketDirectory(t, db, pristine) })
}

// rejectCorruptBucketDirectory replays every directory corruption over one
// pristine image. Each is also opened with no database: the reader must
// refuse before it labels a single row of the points section by a posting
// list that is not a permutation.
func rejectCorruptBucketDirectory(t *testing.T, db *DB, pristine []byte) {
	le := binary.LittleEndian
	n, distinct, _, nb, prefixesOff, rowStartsOff, rowOrderOff, ptStartsOff, ptOrderOff := frozenBucketGeometry(pristine)
	if nb < 2 {
		t.Fatalf("need at least 2 buckets to corrupt, have %d", nb)
	}
	swap4 := func(d []byte, a, b int) {
		var tmp [4]byte
		copy(tmp[:], d[a:a+4])
		copy(d[a:a+4], d[b:b+4])
		copy(d[b:b+4], tmp[:])
	}
	cases := []struct {
		name   string
		refix  bool // recompute the section CRC: validation, not the checksum, must catch it
		mutate func(d []byte)
	}{
		{"buckets checksum mismatch", false, func(d []byte) { d[prefixesOff] ^= 0xFF }},
		{"ell zero", false, func(d []byte) { le.PutUint32(d[frozenEllAt:], 0) }},
		{"ell beyond k", false, func(d []byte) { le.PutUint32(d[frozenEllAt:], 7) }},
		{"nbuckets zero", false, func(d []byte) { le.PutUint32(d[frozenEllAt+4:], 0) }},
		{"nbuckets beyond distinct", false, func(d []byte) { le.PutUint32(d[frozenEllAt+4:], uint32(distinct)+1) }},
		{"prefix site out of range", true, func(d []byte) { le.PutUint32(d[prefixesOff:], 99) }},
		{"row boundaries start past 0", true, func(d []byte) { le.PutUint32(d[rowStartsOff:], 1) }},
		{"duplicate row in posting list", true, func(d []byte) {
			copy(d[rowOrderOff:rowOrderOff+4], d[rowOrderOff+4:rowOrderOff+8])
		}},
		{"row listed under wrong bucket", true, func(d []byte) {
			// Swap the first rows of buckets 0 and 1: both end up under a
			// prefix they do not carry.
			s1 := int(le.Uint32(d[rowStartsOff+4:]))
			swap4(d, rowOrderOff, rowOrderOff+4*s1)
		}},
		{"duplicate point in posting list", true, func(d []byte) {
			copy(d[ptOrderOff:ptOrderOff+4], d[ptOrderOff+4:ptOrderOff+8])
		}},
		{"bucket lists its points out of order", true, func(d []byte) {
			b := 0 // the first bucket of two points or more
			for le.Uint32(d[ptStartsOff+4*(b+1):])-le.Uint32(d[ptStartsOff+4*b:]) < 2 {
				b++
			}
			first := ptOrderOff + 4*int(le.Uint32(d[ptStartsOff+4*b:]))
			swap4(d, first, first+4)
		}},
		{"point boundaries end short", true, func(d []byte) {
			le.PutUint32(d[ptStartsOff+4*nb:], uint32(n-1))
		}},
	}
	for _, tc := range cases {
		data := append([]byte(nil), pristine...)
		tc.mutate(data)
		if tc.refix {
			refreezeCRC(data, frozenSecBuckets)
		}
		if _, err := OpenMappedBytesForTest(data, db); err == nil {
			t.Errorf("%s: mapped open accepted the corruption", tc.name)
		}
		if _, err := ReadIndex(bytes.NewReader(data), db); err == nil {
			t.Errorf("%s: stream decode accepted the corruption", tc.name)
		}
		if x, fdb, err := openFrozenBytes(data, nil, false); err == nil || x != nil || fdb != nil {
			t.Errorf("%s: self-contained open returned (%v, %v, %v), want only an error", tc.name, x, fdb, err)
		}
	}
}

// readFuzzSeed decodes one committed `go test fuzz v1` corpus file back to
// its raw byte payload.
func readFuzzSeed(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	i := strings.Index(s, "[]byte(")
	j := strings.LastIndex(s, ")")
	if i < 0 || j <= i {
		t.Fatalf("%s is not a fuzz seed file", path)
	}
	raw, err := strconv.Unquote(strings.TrimSpace(s[i+len("[]byte(") : j]))
	if err != nil {
		t.Fatalf("unquoting %s: %v", path, err)
	}
	return []byte(raw)
}

func TestFrozenBucketDirectoryRoundTrip(t *testing.T) {
	// save → OpenMapped → approximate query: the mapped index must answer
	// from the container's directory (no rebuild) and agree with the
	// heap-built index bucket for bucket.
	db, rng := testDB(719, 500, 3, metric.L2{})
	for _, k := range []int{6, 300} {
		idx := NewPermIndex(db, rng.Perm(db.N())[:k], Footrule)
		idx.configurePrefixBuckets(3)
		mapped := mappedCopy(t, idx, db)
		if mapped.lb.pb == nil {
			t.Fatalf("k=%d: mapped open did not pre-fill the bucket directory", k)
		}
		if got, want := mapped.PrefixLen(), idx.PrefixLen(); got != want {
			t.Fatalf("k=%d: mapped prefix length %d, want %d", k, got, want)
		}
		if got, want := mapped.ApproxBuckets(), idx.ApproxBuckets(); got != want {
			t.Fatalf("k=%d: mapped directory has %d buckets, want %d", k, got, want)
		}
		for qi := 0; qi < 10; qi++ {
			q := dataset.UniformVectors(rng, 1, 3)[0]
			for _, nprobe := range []int{1, 3, idx.ApproxBuckets()} {
				want, wantSt := idx.KNNApprox(q, 5, nprobe)
				got, gotSt := mapped.KNNApprox(q, 5, nprobe)
				sameResults(t, "mapped approx knn", got, want)
				if gotSt != wantSt {
					t.Fatalf("k=%d nprobe=%d: mapped stats %+v, heap stats %+v", k, nprobe, gotSt, wantSt)
				}
			}
		}
	}
}

// TestFrozenBucketMajorDBPrefix: a "mutable" container decoded against the
// database of a self-contained frozen store builds its base over a prefix of it. The whole
// store keeps its block with the row labels; a proper prefix is no run of a
// bucket-major block and is served through Points. Either way the base's
// scans, batches included, answer as a scan of the source's points does.
func TestFrozenBucketMajorDBPrefix(t *testing.T) {
	db, rng := testDB(721, 300, 3, metric.L2{})
	_, fdb, err := openFrozenBytes(frozenImage(t, NewPermIndex(db, rng.Perm(db.N())[:6], Footrule)), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if fdb.order == nil {
		t.Fatal("a self-contained store opened in ID order")
	}
	queries := dataset.UniformVectors(rng, 8, 3)
	for _, nb := range []int{db.N(), 200} {
		src := NewDB(db.Metric, append([]metric.Point(nil), db.Points[:nb]...))
		gids := make([]int, db.N())
		for i := range gids {
			gids[i] = i
		}
		built, err := NewMutableIndex(db, nb, NewPermIndex(src, []int{5, 50, 150, 199}, Footrule), gids, nil, db.N())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := WriteIndex(&buf, built); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadIndex(&buf, fdb)
		if err != nil {
			t.Fatal(err)
		}
		base := loaded.(*MutableIndex).Base().(*PermIndex)
		if packed := base.db.dim > 0; packed != (nb == db.N()) {
			t.Fatalf("nb=%d: the base's database is packed: %v", nb, packed)
		}
		linear := NewLinearScan(src)
		batch, _ := base.KNNBatch(queries, 5)
		for qi, q := range queries {
			want, _ := linear.KNN(q, 5)
			got, _ := base.KNN(q, 5)
			sameBits(t, fmt.Sprintf("nb=%d query %d KNN", nb, qi), got, want)
			sameBits(t, fmt.Sprintf("nb=%d query %d KNNBatch", nb, qi), batch[qi], want)
			all, _ := loaded.KNN(q, 5)
			whole, _ := NewLinearScan(db).KNN(q, 5)
			sameBits(t, fmt.Sprintf("nb=%d query %d mutable KNN", nb, qi), all, whole)
		}
	}
}

// TestFrozenLayoutSplice: a layout section's bounds are the distances from
// its own file's sites to its own file's points. A store over the same points
// doubled has the same permutations, so the same directory and cells, and
// every bound doubled: its layout section passes every check the reader makes
// of the other file's cells. Spliced in with its own stored sum, or with a
// plain one recomputed, it fails the open; only the sum chained behind the
// other file's sites and points, which a forger would have to recompute, gets
// it past.
func TestFrozenLayoutSplice(t *testing.T) {
	db, rng := testDB(722, 400, 3, metric.L2{})
	sites := rng.Perm(db.N())[:6]
	twice := make([]metric.Point, db.N())
	for i, p := range db.Points {
		v := slices.Clone(p.(metric.Vector))
		for j := range v {
			v[j] *= 2
		}
		twice[i] = v
	}
	var images [2][]byte
	for i, d := range []*DB{db, NewDB(metric.L2{}, twice)} {
		x := NewPermIndex(d, sites, Footrule)
		forceBounds(x)
		images[i] = frozenImage(t, x)
	}
	own, other := images[0], images[1]
	head, off, _, _, _, _ := frozenLayoutAt(own)
	_, _, _, _, _, _, _, _, ptOrder := frozenBucketGeometry(own)
	if len(own) != len(other) || !bytes.Equal(own[head:head+12], other[head:head+12]) ||
		!bytes.Equal(own[ptOrder:off], other[ptOrder:off]) || bytes.Equal(own[off:], other[off:]) {
		t.Fatal("the doubled store is not laid out alike with other bounds")
	}
	desc := 68 + 24*frozenSecLayout + 16 // the layout section's stored sum
	spliced := func(sum func(d []byte) uint32) []byte {
		d := append(bytes.Clone(own[:off]), other[off:]...)
		binary.LittleEndian.PutUint32(d[desc:], sum(d))
		return d
	}
	for name, d := range map[string][]byte{
		"the other file's sum": spliced(func([]byte) uint32 { return binary.LittleEndian.Uint32(other[desc:]) }),
		"a plain sum":          spliced(func(d []byte) uint32 { return CRC32C(d[off:]) }),
	} {
		for _, against := range []*DB{db, nil} {
			if _, _, err := openFrozenBytes(d, against, false); err == nil || !strings.Contains(err.Error(), "layout section checksum mismatch") {
				t.Errorf("layout spliced with %s: open returned %v, want the layout checksum error", name, err)
			}
		}
	}
	forged := spliced(func([]byte) uint32 { return 0 })
	refreezeCRC(forged, frozenSecLayout)
	if _, _, err := openFrozenBytes(forged, nil, false); err != nil {
		t.Fatalf("the splice, its chained sum recomputed, fails on its own: %v", err)
	}
}

// TestFrozenLayoutBesideCallerDB: opened beside a caller's database, which
// need not be the one the bounds were swept from, a PFR4 store takes the lazy
// path — its own cells, copy and sweep — and never the bounds the file
// carries. The file here carries forged ones, every range [0, 0], its chained
// checksum recomputed: they pass every check the reader makes, so opened with
// no database the store walks under them (the bounds are trusted input), and
// beside the database it answers as LinearScan does.
func TestFrozenLayoutBesideCallerDB(t *testing.T) {
	db, rng := testDB(723, 2000, 3, metric.L2{})
	idx := NewPermIndex(db, rng.Perm(db.N())[:6], Footrule)
	forceBounds(idx)
	image := frozenImage(t, idx)
	_, lo, _, _, _, _ := frozenLayoutAt(image)
	clear(image[lo:])
	refreezeCRC(image, frozenSecLayout)
	own, _, err := openFrozenBytes(image, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if bb := own.bounds(); bb == nil || slices.ContainsFunc(bb.cells.hi, func(v float64) bool { return v != 0 }) {
		t.Fatal("the store opened with no database does not walk under its file's bounds")
	}
	beside, _, err := openFrozenBytes(image, db, false)
	if err != nil {
		t.Fatal(err)
	}
	if beside.BoundCells() != 0 || beside.RowsHeapBytes() != 0 {
		t.Fatalf("opened beside a database, the store holds %d bound cells and %d bytes of rows before a query", beside.BoundCells(), beside.RowsHeapBytes())
	}
	linear := NewLinearScan(db)
	for qi, q := range dataset.UniformVectors(rng, 20, 3) {
		want, _ := linear.KNN(q, 5)
		got, _ := beside.KNN(q, 5)
		sameBits(t, fmt.Sprintf("query %d", qi), got, want)
		if approx, st := beside.KNNApprox(q, 5, 2); len(approx) != 5 || st.Exact {
			t.Fatalf("query %d: approximate answer %v (%+v)", qi, approx, st)
		}
	}
	if bb := beside.bounds(); beside.RowsHeapBytes() == 0 || bb == nil || !slices.ContainsFunc(bb.cells.hi, func(v float64) bool { return v != 0 }) {
		t.Fatalf("beside a database the store walks under the file's bounds, or none (%d bytes of rows)", beside.RowsHeapBytes())
	}
}
