package sisap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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

// frozenImage is what WriteFrozen emits for idx: a PFR3 container.
func frozenImage(t testing.TB, idx *PermIndex) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteFrozen(&buf, idx); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pfr2Image rewrites a PFR3 image as the PFR2 file of the same index — the
// bytes the last PFR2 writer (PR 24) produced, which TestGoldenContainers
// holds it to: the tag, the points section put back in ID order, and that
// section's checksum taken plain. Nothing else differs between the revisions.
func pfr2Image(t testing.TB, pfr3 []byte) []byte {
	t.Helper()
	le := binary.LittleEndian
	if le.Uint32(pfr3[frozenPrefixLen:]) != permFrozenV3Tag {
		t.Fatal("pfr2Image: not a PFR3 image")
	}
	out := bytes.Clone(pfr3)
	le.PutUint32(out[frozenPrefixLen:], permFrozenV2Tag)
	n, _, _, _, _, _, _, _, ptOrderOff := frozenBucketGeometry(pfr3)
	rowLen := 8 * int(le.Uint32(pfr3[60:]))
	points := int(le.Uint64(pfr3[68+24*frozenSecPoints:]))
	for j := 0; j < n; j++ {
		id := int(le.Uint32(pfr3[ptOrderOff+4*j:]))
		copy(out[points+id*rowLen:][:rowLen], pfr3[points+j*rowLen:])
	}
	refreezeCRC(out, frozenSecPoints)
	return out
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
// mutated) section bytes, under the tag the image carries, so corruption
// tests can separate "checksum catches it" from "bounds validation catches
// it".
func refreezeCRC(data []byte, i int) {
	le := binary.LittleEndian
	base := frozenPrefixLen + 4 + 40 + 24*i
	off := le.Uint64(data[base:])
	length := le.Uint64(data[base+8:])
	h := frozenHeader{tag: le.Uint32(data[frozenPrefixLen:])}
	le.PutUint32(data[base+16:], h.sectionCRC(i, data[off:off+length]))
}

// frozenRevisions returns idx frozen under both revisions the reader takes:
// what WriteFrozen emits, and the PFR2 file of the same index.
func frozenRevisions(t testing.TB, idx *PermIndex) map[string][]byte {
	pfr3 := frozenImage(t, idx)
	return map[string][]byte{"PFR3": pfr3, "PFR2": pfr2Image(t, pfr3)}
}

func TestFrozenRejectsCorruptContainers(t *testing.T) {
	db, rng := testDB(717, 200, 3, metric.L2{})
	idx := NewPermIndex(db, rng.Perm(db.N())[:6], Footrule)
	// The tags are one bit apart and decide which point every row is: a file
	// re-tagged either way, every other byte intact, must fail on the points
	// section's checksum — with or without a database to open against — and
	// be counted.
	for rev, pristine := range frozenRevisions(t, idx) {
		flipped := bytes.Clone(pristine)
		flipped[frozenPrefixLen+3] ^= '2' ^ '3' // the tag's one differing bit
		for _, against := range []*DB{db, nil} {
			before := ReadMmapStats().ChecksumFailures
			_, _, err := openFrozenBytes(flipped, against, false)
			if err == nil || !strings.Contains(err.Error(), "points section checksum mismatch") {
				t.Errorf("%s re-tagged: open returned %v, want the points-section checksum error", rev, err)
			}
			if got := ReadMmapStats().ChecksumFailures; got != before+1 {
				t.Errorf("%s re-tagged: %d checksum failures counted, want 1", rev, got-before)
			}
		}
		if _, err := ReadIndex(bytes.NewReader(flipped), db); err == nil {
			t.Errorf("%s re-tagged: ReadIndex accepted it", rev)
		}
		t.Run(rev, func(t *testing.T) { rejectCorruptContainers(t, db, pristine) })
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

// frozenBucketGeometry reads the directory geometry back out of a frozen
// container image: the absolute byte offsets of the five uint32 arrays in
// the buckets section, plus ell and nbuckets. Field positions: n@44,
// distinct@52, buckets descriptor @68+24·frozenSecBuckets, ell@188,
// nbuckets@192.
func frozenBucketGeometry(d []byte) (n, distinct, ell, nb, prefixesOff, rowStartsOff, rowOrderOff, ptStartsOff, ptOrderOff int) {
	le := binary.LittleEndian
	n = int(le.Uint64(d[44:]))
	distinct = int(le.Uint32(d[52:]))
	ell = int(le.Uint32(d[188:]))
	nb = int(le.Uint32(d[192:]))
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
	idx := NewPermIndex(db, rng.Perm(db.N())[:6], Footrule)
	for rev, pristine := range frozenRevisions(t, idx) {
		t.Run(rev, func(t *testing.T) { rejectCorruptBucketDirectory(t, db, pristine) })
	}
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
		{"ell zero", false, func(d []byte) { le.PutUint32(d[188:], 0) }},
		{"ell beyond k", false, func(d []byte) { le.PutUint32(d[188:], 7) }},
		{"nbuckets zero", false, func(d []byte) { le.PutUint32(d[192:], 0) }},
		{"nbuckets beyond distinct", false, func(d []byte) { le.PutUint32(d[192:], uint32(distinct)+1) }},
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
// database of a PFR3 store builds its base over a prefix of it. The whole
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
		t.Fatal("a PFR3 store opened in ID order")
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
