package sisap

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"distperm/internal/dataset"
	"distperm/internal/metric"
	"distperm/internal/perm"
)

func TestPermIndexSerializationRoundTrip(t *testing.T) {
	for _, k := range []int{1, 3, 8, 12} {
		db, rng := testDB(110, 300, 3, metric.L2{})
		idx := NewPermIndex(db, rng.Perm(db.N())[:k], KendallTau)

		var buf bytes.Buffer
		n, err := WriteIndex(&buf, idx)
		if err != nil {
			t.Fatalf("k=%d: write: %v", k, err)
		}
		if n != int64(buf.Len()) {
			t.Errorf("k=%d: reported %d bytes, wrote %d", k, n, buf.Len())
		}

		read, err := ReadIndex(&buf, db)
		if err != nil {
			t.Fatalf("k=%d: read: %v", k, err)
		}
		got := read.(*PermIndex)
		if got.K() != idx.K() || got.dist != idx.dist {
			t.Fatalf("k=%d: header mismatch", k)
		}
		if got.DistinctPermutations() != idx.DistinctPermutations() {
			t.Errorf("k=%d: distinct %d != %d", k, got.DistinctPermutations(), idx.DistinctPermutations())
		}
		for i := 0; i < db.N(); i++ {
			if !got.invPermAt(i).Equal(idx.invPermAt(i)) {
				t.Fatalf("k=%d: permutation %d differs after round trip", k, i)
			}
		}
		// Behavioural equivalence: identical scan orders.
		q := dataset.UniformVectors(rng, 1, 3)[0]
		a, _ := idx.ScanOrder(q)
		b, _ := got.ScanOrder(q)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("k=%d: scan order diverges at %d", k, i)
			}
		}
	}
}

func TestPermIndexSerializationCompactness(t *testing.T) {
	// The naive encoding costs n·⌈lg k!⌉ bits; the table encoding must come
	// in under that whenever distinct ≪ k! — the paper's Corollary 8 margin,
	// on disk and not just on paper.
	db, rng := testDB(111, 10_000, 2, metric.L2{})
	idx := NewPermIndex(db, rng.Perm(db.N())[:8], Footrule)
	var buf bytes.Buffer
	if _, err := WriteIndex(&buf, idx); err != nil {
		t.Fatal(err)
	}
	naivePayload := 10_000 * 16 / 8 // n × ⌈lg 8!⌉ bits = 16 bits/point
	if buf.Len() > naivePayload+256 {
		t.Errorf("file is %d bytes; naive payload bound %d + header", buf.Len(), naivePayload)
	}
	// In 2-d Euclidean with k=8 the distinct count is far below n, so the
	// table-encoded container must be strictly smaller than the naive
	// payload alone — ⌈lg distinct⌉ < ⌈lg 8!⌉ bits per point.
	if buf.Len() >= naivePayload {
		t.Errorf("table-encoded file (%d bytes) should beat the naive payload (%d bytes); distinct = %d",
			buf.Len(), naivePayload, idx.DistinctPermutations())
	}
}

// encodeLegacyPayload reproduces the removed pre-table on-disk body (k, n,
// dist, sites, one ⌈lg k!⌉-bit packed permutation per point) so the
// rejection test and the fuzz seeds can present it to the decoder.
func encodeLegacyPayload(t testing.TB, w *bytes.Buffer, x *PermIndex) {
	t.Helper()
	put := func(v interface{}) {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	put(uint32(x.K()))
	put(uint64(x.db.N()))
	put(uint32(x.dist))
	for _, id := range x.siteIDs {
		put(uint64(id))
	}
	packed := perm.NewPackedArray(x.K())
	for i := 0; i < x.db.N(); i++ {
		packed.Append(x.invPermAt(i).Inverse())
	}
	for _, w64 := range packWords(packed) {
		put(w64)
	}
}

// removedFormats builds one well-formed file of every on-disk generation
// the decoders no longer read: the standalone version-1 container (magic,
// version 1, table payload, no kind field), the per-point payload (in a
// version-1 container and in a current "distperm" one), and the committed
// four-section PFRZ, PFR3 and PFR2 frozen revisions. Their bytes come from the
// fuzz corpus — their writers are gone — and were written against the
// reproducible testDB(607, 50, 3) index.
func removedFormats(t testing.TB, idx *PermIndex) []removedFormat {
	t.Helper()
	var current bytes.Buffer
	if _, err := WriteIndex(&current, idx); err != nil {
		t.Fatal(err)
	}
	const prefix = len(codecMagic) + 4 + 4 + len("distperm")
	v1Header := append([]byte(codecMagic), 1, 0, 0, 0)
	var legacy bytes.Buffer
	encodeLegacyPayload(t, &legacy, idx)
	return []removedFormat{
		{"v1 container", slices.Concat(v1Header, current.Bytes()[prefix:])},
		{"per-point payload, v1", slices.Concat(v1Header, legacy.Bytes())},
		{"per-point payload, current", slices.Concat(current.Bytes()[:prefix], legacy.Bytes())},
		{"PFRZ frozen revision", readFuzzSeed(t, filepath.Join("testdata", "fuzz", "FuzzReadIndex", "seed-frozen-v1"))},
		{"PFR3 frozen revision", readFuzzSeed(t, filepath.Join("testdata", "fuzz", "FuzzReadIndex", "seed-frozen-pfr3"))},
		{"PFR2 frozen revision", readFuzzSeed(t, filepath.Join("testdata", "fuzz", "FuzzReadIndex", "seed-frozen-pfr2"))},
	}
}

type removedFormat struct {
	name string
	raw  []byte
}

// TestRemovedFormatsRejected: bytes carrying a removed tag or version fail
// with an error on both decode paths — no panic, no index, and nothing
// sized from the hostile header.
func TestRemovedFormatsRejected(t *testing.T) {
	db, rng := testDB(607, 50, 3, metric.L2{})
	idx := NewPermIndex(db, rng.Perm(db.N())[:5], Footrule)
	for _, f := range removedFormats(t, idx) {
		if got, err := ReadIndex(bytes.NewReader(f.raw), db); err == nil {
			t.Errorf("%s: ReadIndex accepted a removed format (%T)", f.name, got)
		} else if !strings.Contains(err.Error(), "unsupported") {
			t.Errorf("%s: ReadIndex error %q does not say the format is unsupported", f.name, err)
		}
		if _, err := OpenMappedBytesForTest(f.raw, db); err == nil {
			t.Errorf("%s: mapped open accepted a removed format", f.name)
		}
	}
}

func TestReadPermIndexRejectsCorruption(t *testing.T) {
	db, rng := testDB(112, 50, 2, metric.L2{})
	idx := NewPermIndex(db, rng.Perm(db.N())[:4], Footrule)
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
	// Truncated.
	if _, err := ReadIndex(bytes.NewReader(raw[:len(raw)/2]), db); err == nil {
		t.Error("truncated file should error")
	}
	// Wrong database size.
	other := NewDB(metric.L2{}, dataset.UniformVectors(rand.New(rand.NewSource(1)), 10, 2))
	if _, err := ReadIndex(bytes.NewReader(raw), other); err == nil {
		t.Error("database size mismatch should error")
	}
	// Corrupt version.
	vbad := append([]byte(nil), raw...)
	vbad[8] = 99
	if _, err := ReadIndex(bytes.NewReader(vbad), db); err == nil {
		t.Error("bad version should error")
	}
	// Unknown payload tag (neither PTBL nor PFR4), 24 bytes in: after
	// magic, version, kind length, and the kind "distperm".
	dbad := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(dbad[24:], 999)
	if _, err := ReadIndex(bytes.NewReader(dbad), db); err == nil {
		t.Error("unknown payload discriminant should error")
	}
}

// FuzzReadIndex drives the container decoder with arbitrary bytes, seeded
// with one valid container of every kind (both distperm forms), the
// must-reject hostile containers, a torn and an inconsistent frozen image, one
// whose layout flags set the bisector verdict alone, and the removed
// generations (the PFR3 and PFR2 ones from the committed corpus). Any input may fail to decode; none may panic
// or over-allocate — and whatever does decode must answer a query, so
// "accepted at decode, panics at query" is inside the fuzzer's reach.
func FuzzReadIndex(f *testing.F) {
	db, fixtures := codecFixtures(f)
	var idx *PermIndex
	var frozen []byte
	for _, fx := range fixtures {
		f.Add(fx.bytesOf(f))
		if fx.name == "distperm-frozen" {
			idx, frozen = fx.idx.(*PermIndex), fx.bytesOf(f)
		}
	}
	f.Add(frozen[:90])
	bounded := NewPermIndex(db, idx.siteIDs, idx.dist)
	forceBounds(bounded)
	f.Add(frozenImage(f, bounded))
	f.Add(bareImage(f, frozenImage(f, bounded), 2))
	// A checksum-valid but inconsistent bucket directory, seeding the
	// fuzzer at the directory-consistency validation.
	badBuckets := append([]byte(nil), frozen...)
	_, _, _, _, _, _, _, _, ptOrderOff := frozenBucketGeometry(badBuckets)
	copy(badBuckets[ptOrderOff:ptOrderOff+4], badBuckets[ptOrderOff+4:ptOrderOff+8])
	refreezeCRC(badBuckets, frozenSecBuckets)
	f.Add(badBuckets)
	for _, rf := range removedFormats(f, idx) {
		f.Add(rf.raw)
	}
	for _, h := range hostileContainers(f) {
		f.Add(h.raw)
	}
	q := metric.Vector{0.4, 0.6, 0.5}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadIndex(bytes.NewReader(data), db)
		if err == nil {
			if got == nil {
				t.Fatal("nil index with nil error")
			}
			got.KNN(q, 3)
		}
		// The mapped-open validation must be equally crash-free — and so
		// must the open that makes its database out of the container's own
		// points section, in whichever order the tag says they lie.
		if mapped, err := OpenMappedBytesForTest(data, db); err == nil {
			mapped.KNN(q, 3)
		}
		if own, _, err := openFrozenBytes(data, nil, false); err == nil {
			own.KNN(q, 3)
			own.KNNApprox(q, 3, 1)
		}
	})
}

func TestReadPermIndexRejectsBadRank(t *testing.T) {
	// Hand-craft a file whose packed table rank exceeds k!−1.
	db, rng := testDB(113, 4, 2, metric.L2{})
	idx := NewPermIndex(db, rng.Perm(4)[:3], Footrule) // k=3: 3 bits/perm, ranks 0..5
	var buf bytes.Buffer
	if _, err := WriteIndex(&buf, idx); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The table words start after 8+4+4+8 (magic, version, kind length,
	// "distperm") + 4 (tag) + 4 (k) + 8 (n) + 4 (dist) + 3*8 (sites) +
	// 4 (distinct) = 72 bytes; set the first packed rank to 7 (0b111 > 5).
	raw[72] |= 0b111
	if _, err := ReadIndex(bytes.NewReader(raw), db); err == nil {
		t.Error("out-of-range rank should error")
	}
}

func TestReadPermIndexRejectsBadTableID(t *testing.T) {
	// A per-point table index pointing past the table must be rejected.
	db, rng := testDB(114, 40, 2, metric.L2{})
	idx := NewPermIndex(db, rng.Perm(db.N())[:4], Footrule)
	distinct := idx.DistinctPermutations()
	if distinct < 2 || distinct&(distinct-1) == 0 {
		// Need a non-power-of-two table so an out-of-range ID is encodable
		// in ⌈lg distinct⌉ bits.
		t.Skipf("distinct = %d not suitable for the corruption", distinct)
	}
	var buf bytes.Buffer
	if _, err := WriteIndex(&buf, idx); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// ids words start after the 24-byte container prefix, the payload
	// header (tag 4, k 4, n 8, dist 4, 4×8 sites, distinct 4 = 56), and the
	// table words.
	permBits := perm.NewPackedArray(4).BitsPerElement()
	tableWords := (distinct*permBits + 63) / 64
	idsOff := 80 + 8*tableWords
	// Force the first id's bits all-ones: with a non-power-of-two table
	// size, the all-ones pattern of width ⌈lg distinct⌉ is ≥ distinct.
	width := int(tableIDBits(distinct))
	raw[idsOff] |= byte(1<<width - 1)
	if _, err := ReadIndex(bytes.NewReader(raw), db); err == nil {
		t.Error("out-of-range table index should error")
	}
}
