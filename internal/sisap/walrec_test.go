package sisap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"distperm/internal/metric"
)

func walTestRecords() []WALRecord {
	return []WALRecord{
		{Op: WALInsert, GID: 0, Point: metric.Vector{0.25, -1.5, 3}},
		{Op: WALInsert, GID: 41, Point: metric.Vector{math.Inf(1), math.SmallestNonzeroFloat64}},
		{Op: WALDelete, GID: 7},
		{Op: WALInsert, GID: 1 << 40, Point: metric.String("hello, wal")},
		{Op: WALInsert, GID: 43, Point: metric.Vector{}},
		{Op: WALInsert, GID: 44, Point: metric.String("")},
		{Op: WALDelete, GID: 0},
	}
}

func TestWALRecordRoundTrip(t *testing.T) {
	var buf []byte
	recs := walTestRecords()
	for _, rec := range recs {
		var err error
		if buf, err = AppendWALRecord(buf, rec); err != nil {
			t.Fatalf("append %+v: %v", rec, err)
		}
	}
	for i, want := range recs {
		got, n, err := DecodeWALRecord(buf)
		if err != nil {
			t.Fatalf("decode record %d: %v", i, err)
		}
		if got.Op != want.Op || got.GID != want.GID || !reflect.DeepEqual(got.Point, want.Point) {
			// Empty vector/string round-trip to empty, not nil; normalise.
			if fmt.Sprintf("%v|%v|%q", got.Op, got.GID, got.Point) != fmt.Sprintf("%v|%v|%q", want.Op, want.GID, want.Point) {
				t.Errorf("record %d: got %+v, want %+v", i, got, want)
			}
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Errorf("%d trailing bytes after decoding all records", len(buf))
	}
}

// TestWALRecordTornEveryByte is the codec half of the torn-write story: a
// frame truncated at every possible byte boundary must decode to ErrWALTorn
// (never a record, never a panic), and flipping any single byte must never
// yield the original record with a nil error.
func TestWALRecordTornEveryByte(t *testing.T) {
	for _, rec := range walTestRecords() {
		frame, err := AppendWALRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(frame); cut++ {
			if _, _, err := DecodeWALRecord(frame[:cut]); err == nil {
				t.Fatalf("frame %+v truncated to %d of %d bytes decoded cleanly", rec, cut, len(frame))
			}
		}
		for i := range frame {
			mut := append([]byte(nil), frame...)
			mut[i] ^= 0x5a
			got, _, err := DecodeWALRecord(mut)
			if err == nil && got.Op == rec.Op && got.GID == rec.GID && reflect.DeepEqual(got.Point, rec.Point) {
				// A flip in the float payload can survive the CRC only by
				// collision, which CRC-32C rules out for single-byte flips.
				t.Fatalf("flipping byte %d of %+v went unnoticed", i, rec)
			}
		}
	}
}

func TestWALRecordRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		{1, 2, 3},
		binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 0), 0),            // zero length
		binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, maxWALBody+1), 0), // oversized length
	}
	for i, data := range bad {
		if _, _, err := DecodeWALRecord(data); err == nil {
			t.Errorf("garbage %d decoded cleanly", i)
		}
	}
	// A clean checksum over a bad body is corruption, not a torn tail.
	frame, err := AppendWALRecord(nil, WALRecord{Op: WALDelete, GID: 3})
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte(nil), frame[walFrameHeader:]...)
	body[0] = 99 // unknown op
	reframed := reframe(body)
	if _, _, err := DecodeWALRecord(reframed); err == nil {
		t.Error("unknown op decoded cleanly")
	}
}

// reframe wraps body in a fresh, correctly-checksummed frame.
func reframe(body []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	out = binary.LittleEndian.AppendUint32(out, CRC32C(body))
	return append(out, body...)
}

// FuzzWALRecord drives the WAL record decoder with arbitrary bytes: any
// input may fail to decode, none may panic or over-allocate, and every
// successful decode must re-encode to a frame that decodes to the same
// record (the round-trip invariant recovery relies on).
func FuzzWALRecord(f *testing.F) {
	for _, rec := range walTestRecords() {
		frame, err := AppendWALRecord(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
	}
	f.Add([]byte("go test fuzz"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeWALRecord(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decoded %d bytes of %d", n, len(data))
		}
		frame, err := AppendWALRecord(nil, rec)
		if err != nil {
			t.Fatalf("decoded record %+v does not re-encode: %v", rec, err)
		}
		back, m, err := DecodeWALRecord(frame)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if m != len(frame) || back.Op != rec.Op || back.GID != rec.GID || !reflect.DeepEqual(back.Point, rec.Point) {
			t.Fatalf("round trip drifted: %+v -> %+v", rec, back)
		}
	})
}

// TestGenerateFuzzCorpus writes the committed seed corpora under
// testdata/fuzz so CI fuzz regressions replay deterministically. It only
// writes when GEN_FUZZ_CORPUS=1 (regeneration after a format change);
// otherwise it asserts the committed corpus is present and decodable.
func TestGenerateFuzzCorpus(t *testing.T) {
	write := os.Getenv("GEN_FUZZ_CORPUS") == "1"
	emit := func(target, name string, data []byte) {
		path := filepath.Join("testdata", "fuzz", target, name)
		if write {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		if _, err := os.Stat(path); err != nil {
			t.Errorf("missing committed fuzz seed %s (regenerate with GEN_FUZZ_CORPUS=1): %v", path, err)
		}
	}

	// WAL record seeds: intact frames, a torn tail, a checksum flip.
	var all []byte
	for i, rec := range walTestRecords() {
		frame, err := AppendWALRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		emit("FuzzWALRecord", fmt.Sprintf("seed-record-%d", i), frame)
		all = append(all, frame...)
	}
	emit("FuzzWALRecord", "seed-stream", all)
	emit("FuzzWALRecord", "seed-torn", all[:len(all)-3])
	flipped := append([]byte(nil), all...)
	flipped[4] ^= 0xff
	emit("FuzzWALRecord", "seed-badcrc", flipped)

	// Container seeds: compact, frozen, and a torn frozen prefix (the same
	// shapes FuzzReadIndex adds at runtime, persisted so a regression found
	// by fuzzing replays from the repo alone).
	db, rng := testDB(607, 50, 3, metric.L2{})
	idx := NewPermIndex(db, rng.Perm(db.N())[:5], Footrule)
	var compact bytes.Buffer
	if _, err := WriteIndex(&compact, idx); err != nil {
		t.Fatal(err)
	}
	emit("FuzzReadIndex", "seed-compact", compact.Bytes())
	var frozen bytes.Buffer
	if _, err := WriteFrozen(&frozen, idx); err != nil {
		t.Fatal(err)
	}
	emit("FuzzReadIndex", "seed-frozen", frozen.Bytes()) // PFR3, points embedded
	emit("FuzzReadIndex", "seed-frozen-pfr2", pfr2Image(t, frozen.Bytes()))
	emit("FuzzReadIndex", "seed-frozen-torn", frozen.Bytes()[:90])
	// A directory-inconsistency seed: duplicate the first point posting and
	// recompute the section CRC, starting the fuzzer right at the
	// bucket-directory validation instead of the checksum wall.
	badBuckets := append([]byte(nil), frozen.Bytes()...)
	_, _, _, _, _, _, _, _, ptOrderOff := frozenBucketGeometry(badBuckets)
	copy(badBuckets[ptOrderOff:ptOrderOff+4], badBuckets[ptOrderOff+4:ptOrderOff+8])
	refreezeCRC(badBuckets, frozenSecBuckets)
	emit("FuzzReadIndex", "seed-frozen-badbuckets", badBuckets)
	// seed-frozen-v1 is a must-reject input: a well-formed file of the
	// removed PFRZ revision (no bucket directory). It was committed from the
	// last v1 writer and cannot be regenerated, so it is asserted present
	// but never rewritten.
	if _, err := os.Stat(filepath.Join("testdata", "fuzz", "FuzzReadIndex", "seed-frozen-v1")); err != nil {
		t.Errorf("missing committed v1 frozen seed: %v", err)
	}
	// The hostile containers are must-reject inputs too: a field that lies
	// about an ID or a length (TestReadIndexRejectsHostileContainers).
	for _, h := range hostileContainers(t) {
		emit("FuzzReadIndex", "seed-hostile-"+h.name, h.raw)
	}
}

// checkpointSeq is the WAL sequence the golden checkpoint covers: the six
// inserts and three deletes of checkpointStore.
const checkpointSeq = 9

// checkpointStore is the mutated store behind the checkpoint golden: 40
// base points under a distperm index, six inserts, then deletes of base gids
// 3 and 17 and of inserted gid 42. Everything is seeded, so the same function
// run at another commit builds the same store — testdata/golden/checkpoint.ckpt
// is what WAL.WriteCheckpoint wrote of it at sequence 9 before the checkpoint
// codec moved onto the cursor.
func checkpointStore(t testing.TB) *MutableIndex {
	t.Helper()
	db, rng := testDB(611, 40, 3, metric.L2{})
	gids := make([]int, db.N())
	for i := range gids {
		gids[i] = i
	}
	x, err := NewMutableIndex(db, db.N(), NewPermIndex(db, []int{4, 11, 23, 35, 2}, Footrule), gids, nil, db.N())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		x = x.Insert(metric.Vector{rng.Float64(), rng.Float64(), rng.Float64()})
	}
	for _, g := range []int{3, 42, 17} {
		var ok bool
		if x, ok = x.Delete(g); !ok {
			t.Fatalf("gid %d names no live point", g)
		}
	}
	return x
}

func goldenCheckpoint(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "checkpoint.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestGoldenCheckpoint pins the DPWALCKP bytes both ways: the store encodes
// to the golden, and the golden decodes to a store that answers as the built
// one and encodes back to the same bytes.
func TestGoldenCheckpoint(t *testing.T) {
	want, store := goldenCheckpoint(t), checkpointStore(t)
	got, err := AppendCheckpoint(nil, checkpointSeq, store)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wrote %d bytes that differ from the %d golden ones", len(got), len(want))
	}
	seq, snap, err := DecodeCheckpoint(want)
	if err != nil {
		t.Fatalf("golden checkpoint does not decode: %v", err)
	}
	again, err := AppendCheckpoint(nil, seq, snap)
	if err != nil || !bytes.Equal(again, want) {
		t.Errorf("decoded golden re-encodes to %d different bytes (%v)", len(again), err)
	}
	if seq != checkpointSeq || snap.NextGID() != store.NextGID() || !reflect.DeepEqual(snap.Tombstones(), store.Tombstones()) {
		t.Errorf("decoded seq %d, next gid %d, tombstones %v; want %d, %d, %v", seq, snap.NextGID(),
			snap.Tombstones(), checkpointSeq, store.NextGID(), store.Tombstones())
	}
	q := metric.Vector{0.4, 0.6, 0.5}
	a, ast := snap.KNN(q, 7)
	b, bst := store.KNN(q, 7)
	sameResults(t, "golden checkpoint kNN", a, b)
	if ast != bst {
		t.Errorf("decoded store costs %+v, built one %+v", ast, bst)
	}
}

// resum returns body under the checksum a checkpoint ends with.
func resum(body []byte) []byte {
	e := enc{b: bytes.Clone(body)}
	e.u32(CRC32C(body))
	return e.b
}

// hostileCheckpoint is a must-reject checkpoint: the golden with one field
// made to lie and the checksum recomputed, so the lie reaches the decoder.
type hostileCheckpoint struct {
	name string
	raw  []byte
	want string // what the error must name
}

func hostileCheckpoints(t testing.TB) []hostileCheckpoint {
	t.Helper()
	raw := goldenCheckpoint(t)
	// The points follow the fixed fields, the metric name "L2" and the
	// point count; the golden's are 3-d vectors, 29 bytes each.
	const first, size = 8 + 4 + 4 + 8 + 4 + 2 + 8, 1 + 4 + 3*8
	reshape := func(i int, p metric.Point) []byte {
		e := enc{b: bytes.Clone(raw[:first+size*i])}
		if err := e.point(p); err != nil {
			t.Fatal(err)
		}
		return resum(append(e.b, raw[first+size*(i+1):len(raw)-4]...))
	}
	count := bytes.Clone(raw[:len(raw)-4])
	binary.LittleEndian.PutUint64(count[first-8:], 1<<40)
	flags := bytes.Clone(raw[:len(raw)-4])
	flags[12] = 1
	return []hostileCheckpoint{
		{"short vector at point 7", reshape(7, metric.Vector{0.5, 0.5}), "point 7"},
		{"string at point 7", reshape(7, metric.String("abc")), "point 7"},
		{"short point 0", reshape(0, metric.Vector{0.5, 0.5}), "point 0"},
		{"point count", resum(count), "point count"},
		{"flags", resum(flags), "flags"},
	}
}

// TestCheckpointRejectsHostile: a checksum that checks clean is not enough.
// Each hostile checkpoint is an error naming what lies, having allocated
// nothing its point count claimed; and the golden cut short anywhere is an
// error too.
func TestCheckpointRejectsHostile(t *testing.T) {
	for _, h := range hostileCheckpoints(t) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := DecodeCheckpoint(h.raw)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), h.want) {
			t.Errorf("%s: decoded with error %v, want one naming %q", h.name, err, h.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoding a %d-byte input allocated %d bytes", h.name, len(h.raw), grew)
		}
	}
	raw := goldenCheckpoint(t)
	for cut := range raw {
		if _, _, err := DecodeCheckpoint(raw[:cut]); err == nil {
			t.Fatalf("the golden cut to %d of %d bytes decoded", cut, len(raw))
		}
	}
}

// FuzzCheckpoint drives the checkpoint decoder with arbitrary bytes, as they
// come and under a checksum made to agree with them (so that mutations reach
// the fields behind it): any input may fail to decode, none may panic or
// allocate beyond a small multiple of its own size, and anything that
// decodes re-encodes to the input byte for byte.
func FuzzCheckpoint(f *testing.F) {
	raw := goldenCheckpoint(f)
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	for _, h := range hostileCheckpoints(f) {
		f.Add(h.raw)
	}
	check := func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		seq, snap, err := DecodeCheckpoint(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+64*uint64(len(data)) {
			t.Fatalf("decoding a %d-byte input allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		again, err := AppendCheckpoint(nil, seq, snap)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("a decoded checkpoint re-encodes to %d other bytes (%v)", len(again), err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		if len(data) >= 4 {
			check(t, resum(data[:len(data)-4]))
		}
	})
}
