package sisap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// This file is the one place where bytes from outside become numbers a
// decoder acts on. Every DPERMIDX codec (codec.go, serialize.go, frozen.go,
// and the sharded and mutable containers) and the write-ahead log's record
// frames and checkpoints (walrec.go) read through a dec and write through its
// append-style mirror enc, so the two decisions a hostile file attacks are
// made once:
//
//   - an untrusted uint64 becomes an int only through count or id, which
//     compare in uint64 space — int(v) >= n is false for v = 1<<63, which is
//     how an ID field used to slip past a decoder and panic the first query;
//   - a claimed length becomes an allocation only after it has been checked
//     against the bytes that remain, so decoding never allocates more than
//     the input's own size (a nested container is a sub-slice, not a copy).

// castagnoli is the CRC-32C table of every checksum in the repo: frozen
// sections, WAL record frames and WAL checkpoints.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CRC32C returns the CRC-32C (Castagnoli) checksum of b.
func CRC32C(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// dec is a bounds-checked cursor over a complete input. Its error is sticky:
// after the first failure every read returns zero, so a decoder reads a run
// of fields and checks err once before acting on them.
type dec struct {
	all []byte // the whole input, for the frozen form's absolute offsets
	b   []byte // unread suffix of all
	err error
}

func newDec(data []byte) *dec { return &dec{all: data, b: data} }

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("sisap: "+format, args...)
	}
}

// bytes returns the next n bytes as a view of the input: nothing is copied
// or allocated, whatever n claims.
func (d *dec) bytes(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail("input truncated at byte %d: need %d more, %d remain: %w",
			len(d.all)-len(d.b), n, len(d.b), io.ErrUnexpectedEOF)
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

func (d *dec) u8() uint8 {
	if b := d.bytes(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *dec) u32() uint32 {
	if b := d.bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *dec) u64() uint64 {
	if b := d.bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

// count turns an untrusted count or length v into an int after checking
// lo ≤ v ≤ hi in uint64 space.
func (d *dec) count(what string, v uint64, lo, hi int) int {
	if d.err != nil {
		return 0
	}
	if hi < lo || v < uint64(lo) || v > uint64(hi) {
		d.fail("%s %d out of range %d..%d", what, v, lo, hi)
		return 0
	}
	return int(v)
}

// id reads a uint64 point ID and checks it against the n points it may name.
func (d *dec) id(what string, n int) int { return d.count(what, d.u64(), 0, n-1) }

// ids reads m uint64 IDs, each below limit. The m·8 bytes are claimed from
// the input before the slice is allocated.
func (d *dec) ids(what string, m, limit int) []int {
	raw := d.bytes(8 * uint64(m))
	if raw == nil {
		return nil
	}
	out := make([]int, m)
	for i := range out {
		out[i] = d.count(what, binary.LittleEndian.Uint64(raw[8*i:]), 0, limit-1)
	}
	return out
}

// u64s reads m little-endian words, claimed from the input before the slice
// is allocated.
func (d *dec) u64s(m uint64) []uint64 {
	raw := d.bytes(8 * m)
	if raw == nil {
		return nil
	}
	out := make([]uint64, m)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	return out
}

// f64s reads m float64s, claimed from the input before the slice is
// allocated.
func (d *dec) f64s(m int) []float64 {
	raw := d.bytes(8 * uint64(m))
	if raw == nil {
		return nil
	}
	out := make([]float64, m)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// sub reads a uint64 length and returns that many bytes as a view: how a
// container nests another.
func (d *dec) sub() []byte { return d.bytes(d.u64()) }

// enc is dec's mirror: it appends little-endian fields to b.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) str(s string) { e.b = append(e.b, s...) }

func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }

// putU32 overwrites the word at b[at:], a field reserved before the bytes it
// describes were written.
func (e *enc) putU32(at int, v uint32) { binary.LittleEndian.PutUint32(e.b[at:], v) }

// grow extends b by n bytes and returns them for the caller to fill: the
// bulk writers below store into place instead of appending per element.
func (e *enc) grow(n int) []byte {
	e.b = slices.Grow(e.b, n)[:len(e.b)+n]
	return e.b[len(e.b)-n:]
}

func (e *enc) ids(vs []int) {
	t := e.grow(8 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(t[8*i:], uint64(v))
	}
}

func (e *enc) u32s(vs []uint32) {
	t := e.grow(4 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(t[4*i:], v)
	}
}

func (e *enc) u64s(vs []uint64) {
	t := e.grow(8 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(t[8*i:], v)
	}
}

func (e *enc) f64s(vs []float64) {
	t := e.grow(8 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(t[8*i:], math.Float64bits(v))
	}
}

// sub appends x as a nested container behind its uint64 length, which is
// filled in once the container has been written.
func (e *enc) sub(x Index) error {
	at := len(e.b)
	e.u64(0)
	err := e.index(x)
	binary.LittleEndian.PutUint64(e.b[at:], uint64(len(e.b)-at-8))
	return err
}
