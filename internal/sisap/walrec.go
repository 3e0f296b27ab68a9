package sisap

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"distperm/internal/metric"
)

// This file is the byte side of the write-ahead log (pkg/distperm's WAL):
// the frame of one logged mutation — an insert carrying its point, or a
// delete carrying only the global ID — and the checkpoint that lets replay
// start past sequence zero. Both are written through enc and read through dec
// (cursor.go), so everything recovery reads has passed the cursor's bounds
// checks; pkg/distperm keeps the files (fsync, tmp + rename, rotation,
// newest-first fallback, pruning) and the segment header.
//
// The framing is what makes crash recovery decidable: a torn final record
// (the write the crash interrupted) fails its length or checksum test and
// replay stops cleanly at the last intact record, never inventing data from
// garbage bytes. The checksum is the CRC32C of cursor.go, the one the frozen
// container's sections use.
//
// Frame layout (little-endian):
//
//	length uint32   body length (1..maxWALBody)
//	crc    uint32   CRC-32C over the body
//	body   [length]byte
//
// Body layout:
//
//	op     uint8    1 insert, 2 delete
//	gid    uint64   the mutation's stable global ID
//	point  …        inserts only: wire point (below)
//
// Wire point layout (a record's point and a checkpoint's):
//
//	kind   uint8    0 vector, 1 string
//	n      uint32   element count (vector) or byte length (string)
//	data   …        n × float64 | n bytes
//
// Checkpoint layout (a whole file, little-endian, CRC-32C over all prior
// bytes at the end):
//
//	magic    [8]byte  "DPWALCKP"
//	version  uint32   ckptVersion
//	flags    uint32   reserved, 0
//	seq      uint64   WAL sequence this snapshot covers (replay resumes at seq+1)
//	mlen     uint32 + metric name
//	npoints  uint64 + wire points (base points then delta points, gid order)
//	clen     uint64 + DPERMIDX "mutable" container over those points
//	crc      uint32
//
// A checkpoint is self-contained on purpose: DPERMIDX containers never carry
// the point data, so it embeds the full point set. A clean checksum proves
// the bytes are the ones written, not that a query can run over them, so the
// decoder also refuses a point shaped unlike point 0 and a point 0 the metric
// cannot measure — either would otherwise panic the first query.

// WALOp discriminates WAL record kinds.
type WALOp uint8

const (
	// WALInsert records an accepted insert: gid plus the point.
	WALInsert WALOp = 1
	// WALDelete records an accepted delete: the gid alone.
	WALDelete WALOp = 2
)

const (
	// maxWALBody bounds a record body so a corrupt length prefix cannot
	// force a giant allocation: 64 MiB holds a vector of ~8M dimensions, far
	// beyond any real point.
	maxWALBody = 64 << 20
	// walFrameHeader is the fixed frame prefix: length + crc.
	walFrameHeader = 8

	ckptMagic   = "DPWALCKP"
	ckptVersion = 1
)

// ErrWALTorn reports an incomplete or checksum-mismatched frame — the shape
// a crash mid-append leaves behind. Replay treats it as end-of-log when it
// appears at the tail; anywhere else it is corruption.
var ErrWALTorn = errors.New("sisap: torn wal record")

// WALRecord is one logged mutation.
type WALRecord struct {
	Op  WALOp
	GID int
	// Point accompanies inserts (deletes leave it nil).
	Point metric.Point
}

// point appends p's wire form. Only the shapes the serving stack accepts
// travel: Vector and String.
func (e *enc) point(p metric.Point) error {
	switch v := p.(type) {
	case metric.Vector:
		e.u8(0)
		e.u32(uint32(len(v)))
		e.f64s(v)
	case metric.String:
		e.u8(1)
		e.u32(uint32(len(v)))
		e.str(string(v))
	default:
		return fmt.Errorf("sisap: cannot encode %T points", p)
	}
	return nil
}

// point reads one wire point.
func (d *dec) point() metric.Point {
	kind := d.u8()
	n := d.u32()
	switch {
	case d.err != nil:
		return nil
	case kind == 0:
		return metric.Vector(d.f64s(int(n)))
	case kind == 1:
		return metric.String(d.bytes(uint64(n)))
	}
	d.fail("unknown wire point kind %d", kind)
	return nil
}

// sameShape reports whether two wire points can share a database: two
// strings, or two vectors of one dimension.
func sameShape(a, b metric.Point) bool {
	va, aVec := a.(metric.Vector)
	vb, bVec := b.(metric.Vector)
	return aVec == bVec && len(va) == len(vb)
}

// AppendWALRecord appends rec's frame to dst.
func AppendWALRecord(dst []byte, rec WALRecord) ([]byte, error) {
	if rec.GID < 0 {
		return nil, fmt.Errorf("sisap: wal record with negative gid %d", rec.GID)
	}
	// One allocation holds a frame whose point has up to six dimensions.
	e := enc{b: slices.Grow(dst, walFrameHeader+64)}
	at := len(e.b)
	e.u64(0) // length and checksum, filled in once the body is written
	e.u8(uint8(rec.Op))
	e.u64(uint64(rec.GID))
	switch rec.Op {
	case WALInsert:
		if err := e.point(rec.Point); err != nil {
			return nil, err
		}
	case WALDelete:
	default:
		return nil, fmt.Errorf("sisap: unknown wal op %d", rec.Op)
	}
	body := e.b[at+walFrameHeader:]
	if len(body) > maxWALBody {
		return nil, fmt.Errorf("sisap: wal record body of %d bytes exceeds %d", len(body), maxWALBody)
	}
	e.putU32(at, uint32(len(body)))
	e.putU32(at+4, CRC32C(body))
	return e.b, nil
}

// DecodeWALRecord decodes the frame at the front of data, returning the
// record and the frame bytes consumed. Incomplete frames, out-of-range
// lengths, and checksum mismatches all wrap ErrWALTorn — the caller decides
// whether the position makes that a tolerable torn tail or corruption. A
// frame that checksums clean but carries an undecodable body (unknown op,
// malformed point) is corruption outright and never wraps ErrWALTorn.
func DecodeWALRecord(data []byte) (WALRecord, int, error) {
	d := newDec(data)
	length, crc := d.u32(), d.u32()
	if d.err == nil && (length == 0 || length > maxWALBody) {
		d.fail("wal body length %d out of range 1..%d", length, maxWALBody)
	}
	body := d.bytes(uint64(length))
	if got := CRC32C(body); d.err == nil && got != crc {
		d.fail("wal body checksum %#x, frame says %#x", got, crc)
	}
	if d.err != nil {
		return WALRecord{}, 0, fmt.Errorf("%w: %w", d.err, ErrWALTorn)
	}
	// The body checksummed clean: from here every defect is corruption (or
	// an encoder from the future), not a torn write.
	d = newDec(body)
	rec := WALRecord{Op: WALOp(d.u8())}
	rec.GID = d.count("wal gid", d.u64(), 0, math.MaxInt)
	switch rec.Op {
	case WALInsert:
		rec.Point = d.point()
	case WALDelete:
	default:
		d.fail("unknown wal op %d", rec.Op)
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail("wal record body has %d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return WALRecord{}, 0, d.err
	}
	return rec, walFrameHeader + int(length), nil
}

// AppendCheckpoint appends the checkpoint of snap, covering WAL sequence
// seq, to dst. The snapshot's metric must be one metric.ByName can load back.
func AppendCheckpoint(dst []byte, seq uint64, snap *MutableIndex) ([]byte, error) {
	name := snap.baseDB.Metric.Name()
	if m, err := metric.ByName(name); err != nil || m.Name() != name {
		return nil, fmt.Errorf("sisap: wal checkpoints need a metric loadable by name, %q is not", name)
	}
	e := enc{b: dst}
	at := len(e.b)
	e.str(ckptMagic)
	e.u32(ckptVersion)
	e.u32(0)
	e.u64(seq)
	e.u32(uint32(len(name)))
	e.str(name)
	e.u64(uint64(len(snap.gids)))
	for _, pts := range [][]metric.Point{snap.baseDB.points(0, snap.BaseN()), snap.delta} {
		for _, p := range pts {
			if err := e.point(p); err != nil {
				return nil, err
			}
		}
	}
	if err := e.sub(snap); err != nil {
		return nil, fmt.Errorf("sisap: encoding checkpoint container: %w", err)
	}
	e.u32(CRC32C(e.b[at:]))
	return e.b, nil
}

// DecodeCheckpoint decodes a whole checkpoint file, returning the WAL
// sequence it covers and the snapshot it froze.
func DecodeCheckpoint(data []byte) (uint64, *MutableIndex, error) {
	d := newDec(data)
	body := d.bytes(uint64(max(len(data), 4) - 4))
	if sum := d.u32(); d.err == nil && sum != CRC32C(body) {
		d.fail("checkpoint checksum %#x, file says %#x", CRC32C(body), sum)
	}
	d.all, d.b = body, body // the fields, read only if the checksum held
	if magic := d.bytes(uint64(len(ckptMagic))); d.err == nil && string(magic) != ckptMagic {
		d.fail("not a wal checkpoint")
	}
	if v := d.u32(); d.err == nil && v != ckptVersion {
		d.fail("checkpoint version %d, this build speaks %d", v, ckptVersion)
	}
	if flags := d.u32(); d.err == nil && flags != 0 {
		d.fail("checkpoint flags %#x, none are defined", flags)
	}
	seq := d.u64()
	m, err := metric.ByName(string(d.bytes(uint64(d.u32()))))
	if d.err == nil && err != nil {
		d.fail("checkpoint metric: %v", err)
	}
	// Every wire point takes at least its kind and count, 5 bytes: the claim
	// is held to what remains before a slot is allocated.
	claimed := d.u64()
	points := make([]metric.Point, d.count("checkpoint point count", claimed, 1, len(d.b)/5))
	for i := 0; i < len(points) && d.err == nil; i++ {
		if points[i] = d.point(); i > 0 && !sameShape(points[0], points[i]) {
			d.fail("checkpoint point %d is shaped unlike point 0", i)
		}
	}
	payload := d.sub()
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes after the checkpoint's container", len(d.b))
	}
	if d.err != nil {
		return 0, nil, d.err
	}
	if err := metric.Probe(m, points[0]); err != nil {
		return 0, nil, fmt.Errorf("sisap: checkpoint point 0: %w", err)
	}
	idx, err := newDec(payload).index(NewDB(m, points))
	if err != nil {
		return 0, nil, err
	}
	snap, ok := idx.(*MutableIndex)
	if !ok {
		return 0, nil, fmt.Errorf("sisap: checkpoint holds a %q container, want mutable", idx.Name())
	}
	return seq, snap, nil
}
