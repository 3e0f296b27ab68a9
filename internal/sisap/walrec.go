package sisap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"distperm/internal/metric"
)

// This file is the record codec of the write-ahead log (pkg/distperm's WAL):
// one mutation — an insert carrying its point, or a delete carrying only the
// global ID — framed as a length-prefixed, CRC-32C-checksummed record. The
// framing is what makes crash recovery decidable: a torn final record (the
// write the crash interrupted) fails its length or checksum test and replay
// stops cleanly at the last intact record, never inventing data from garbage
// bytes. The checksum is the CRC32C of cursor.go, the one the frozen
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
// Wire point layout (shared with the WAL checkpoint's embedded database):
//
//	kind   uint8    0 vector, 1 string
//	n      uint32   element count (vector) or byte length (string)
//	data   …        n × float64 | n bytes

// WALOp discriminates WAL record kinds.
type WALOp uint8

const (
	// WALInsert records an accepted insert: gid plus the point.
	WALInsert WALOp = 1
	// WALDelete records an accepted delete: the gid alone.
	WALDelete WALOp = 2
)

// maxWALBody bounds a record body so a corrupt length prefix cannot force a
// giant allocation: 64 MiB holds a vector of ~8M dimensions, far beyond any
// real point.
const maxWALBody = 64 << 20

// walFrameHeader is the fixed frame prefix: length + crc.
const walFrameHeader = 8

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

// AppendWirePoint appends the wire encoding of p to dst. Only the shapes
// the serving stack accepts travel: Vector and String.
func AppendWirePoint(dst []byte, p metric.Point) ([]byte, error) {
	switch v := p.(type) {
	case metric.Vector:
		dst = append(dst, 0)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v)))
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		}
		return dst, nil
	case metric.String:
		dst = append(dst, 1)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v)))
		return append(dst, v...), nil
	default:
		return nil, fmt.Errorf("sisap: cannot encode %T points", p)
	}
}

// DecodeWirePoint decodes one wire point from the front of data, returning
// the point and the bytes consumed.
func DecodeWirePoint(data []byte) (metric.Point, int, error) {
	if len(data) < 5 {
		return nil, 0, fmt.Errorf("sisap: wire point header truncated: %w", ErrWALTorn)
	}
	kind := data[0]
	n := binary.LittleEndian.Uint32(data[1:5])
	body := data[5:]
	switch kind {
	case 0:
		if n > maxWALBody/8 || uint64(len(body)) < 8*uint64(n) {
			return nil, 0, fmt.Errorf("sisap: wire vector of %d dims truncated: %w", n, ErrWALTorn)
		}
		v := make(metric.Vector, n)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
		}
		return v, 5 + 8*int(n), nil
	case 1:
		if n > maxWALBody || uint64(len(body)) < uint64(n) {
			return nil, 0, fmt.Errorf("sisap: wire string of %d bytes truncated: %w", n, ErrWALTorn)
		}
		return metric.String(body[:n]), 5 + int(n), nil
	default:
		return nil, 0, fmt.Errorf("sisap: unknown wire point kind %d", kind)
	}
}

// AppendWALRecord appends rec's frame to dst.
func AppendWALRecord(dst []byte, rec WALRecord) ([]byte, error) {
	if rec.GID < 0 {
		return nil, fmt.Errorf("sisap: wal record with negative gid %d", rec.GID)
	}
	body := make([]byte, 0, 64)
	body = append(body, byte(rec.Op))
	body = binary.LittleEndian.AppendUint64(body, uint64(rec.GID))
	switch rec.Op {
	case WALInsert:
		var err error
		if body, err = AppendWirePoint(body, rec.Point); err != nil {
			return nil, err
		}
	case WALDelete:
	default:
		return nil, fmt.Errorf("sisap: unknown wal op %d", rec.Op)
	}
	if len(body) > maxWALBody {
		return nil, fmt.Errorf("sisap: wal record body of %d bytes exceeds %d", len(body), maxWALBody)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, CRC32C(body))
	return append(dst, body...), nil
}

// DecodeWALRecord decodes the frame at the front of data, returning the
// record and the frame bytes consumed. Incomplete frames, out-of-range
// lengths, and checksum mismatches all wrap ErrWALTorn — the caller decides
// whether the position makes that a tolerable torn tail or corruption. A
// frame that checksums clean but carries an undecodable body (unknown op,
// malformed point) is corruption outright and never wraps ErrWALTorn.
func DecodeWALRecord(data []byte) (WALRecord, int, error) {
	if len(data) < walFrameHeader {
		return WALRecord{}, 0, fmt.Errorf("sisap: wal frame header truncated: %w", ErrWALTorn)
	}
	length := binary.LittleEndian.Uint32(data)
	crc := binary.LittleEndian.Uint32(data[4:])
	if length == 0 || length > maxWALBody {
		return WALRecord{}, 0, fmt.Errorf("sisap: wal body length %d out of range: %w", length, ErrWALTorn)
	}
	if uint64(len(data)-walFrameHeader) < uint64(length) {
		return WALRecord{}, 0, fmt.Errorf("sisap: wal body truncated at %d of %d bytes: %w", len(data)-walFrameHeader, length, ErrWALTorn)
	}
	body := data[walFrameHeader : walFrameHeader+int(length)]
	if got := CRC32C(body); got != crc {
		return WALRecord{}, 0, fmt.Errorf("sisap: wal body checksum %#x, frame says %#x: %w", got, crc, ErrWALTorn)
	}
	// The body checksummed clean: from here every defect is corruption (or
	// an encoder from the future), not a torn write.
	if len(body) < 9 {
		return WALRecord{}, 0, fmt.Errorf("sisap: wal body of %d bytes cannot hold op+gid", len(body))
	}
	rec := WALRecord{Op: WALOp(body[0])}
	gid := binary.LittleEndian.Uint64(body[1:9])
	if gid > math.MaxInt64 {
		return WALRecord{}, 0, fmt.Errorf("sisap: wal gid %d overflows int", gid)
	}
	rec.GID = int(gid)
	rest := body[9:]
	switch rec.Op {
	case WALInsert:
		p, n, err := DecodeWirePoint(rest)
		if err != nil {
			return WALRecord{}, 0, fmt.Errorf("sisap: wal insert point: %v", err)
		}
		if n != len(rest) {
			return WALRecord{}, 0, fmt.Errorf("sisap: wal insert body has %d trailing bytes", len(rest)-n)
		}
		rec.Point = p
	case WALDelete:
		if len(rest) != 0 {
			return WALRecord{}, 0, fmt.Errorf("sisap: wal delete body has %d trailing bytes", len(rest))
		}
	default:
		return WALRecord{}, 0, fmt.Errorf("sisap: unknown wal op %d", rec.Op)
	}
	return rec, walFrameHeader + int(length), nil
}
