package sisap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"time"
	"unsafe"

	"distperm/internal/metric"
)

// The frozen payload: the distance-permutation index laid out so the file
// bytes ARE the in-memory representation. Where the compact table payload
// (serialize.go) bit-packs Lehmer ranks and row IDs to minimise wire size,
// the frozen form stores the rank matrix raw (uint8/uint16 rows, exactly
// the rankTable layout), the row IDs as plain uint32, and each section
// 64-byte-aligned at an explicit offset — so OpenMapped can validate the
// header and hand out zero-copy views into a read-only mapping instead of
// stream-decoding the container onto the heap. Restart cost over a frozen
// store is one sequential checksum pass, not a per-element decode, and
// every process serving the same file shares one page-cache copy.
//
// Frozen payload layout (little-endian), inside the standard v2 container
// (magic, version, kind "distperm"):
//
//	tag        uint32   permFrozenV2Tag ("PFR2")
//	headerOff  uint64   absolute file offset of the tag (self-locating:
//	                    section offsets below are absolute, so a
//	                    non-seeking stream decoder derives skip distances
//	                    from this instead of its unknown stream position)
//	k          uint32   number of sites
//	dist       uint32   PermDistance
//	n          uint64   number of points
//	distinct   uint32   rank-matrix rows (1 ≤ distinct ≤ n)
//	rankWidth  uint32   bytes per rank: 1 when k ≤ 256, else 2
//	dims       uint32   dimensions of embedded point vectors (0 = none)
//	metricLen  uint32   length of the metric name (0 when no points)
//	sections   5 × {off uint64, len uint64, crc32c uint32, _ uint32}
//	ell        uint32   directory prefix length (1..k)
//	nbuckets   uint32   directory size (1..distinct)
//	metric     metricLen bytes
//	sections:  sites   k × uint64        database IDs of the sites
//	           ranks   distinct×k ranks  raw row-major rank matrix
//	           ids     n × uint32        per-point table row IDs
//	           points  n × dims × float64  vectors (optional)
//	           buckets 4·(nbuckets·ell + 2·(nbuckets+1) + distinct + n) bytes:
//	                   uint32 arrays [prefixes][rowStarts][rowOrder][ptStarts][ptOrder]
//
// Sections sit at ascending 64-byte-aligned offsets with zero padding
// between; each carries a CRC-32C. Unlike the compact form, the frozen
// form has no k ≤ 20 cap — ranks are stored raw, not as packed factorials.
// The points section (plus the metric name) makes a container
// self-contained: OpenMapped can reconstruct the database from the
// mapping, so a serving process needs no separate data file. The buckets
// section is the permutation-prefix inverted-file directory of
// prefixbuckets.go, so mapped opens serve approximate queries zero-copy
// instead of rebuilding the directory per process.
//
// PFR2 is the only frozen revision: its four-section predecessor ("PFRZ",
// no directory) had no writer left and is rejected by tag.
const (
	permFrozenV2Tag = 0x32524650 // "PFR2" read little-endian
	frozenAlign     = 64
	frozenNumSecs   = 5
	frozenFixedLen  = 168 // header bytes after the tag, before the metric name
	frozenMaxDims   = 1 << 16
	frozenKind      = "distperm"
	// frozenPrefixLen is where WriteFrozen puts the tag: after the v2
	// container prefix (magic, version, kindLen, kind).
	frozenPrefixLen = len(codecMagic) + 4 + 4 + len(frozenKind)
)

// Section indexes, in file order.
const (
	frozenSecSites = iota
	frozenSecRanks
	frozenSecIDs
	frozenSecPoints
	frozenSecBuckets
)

var frozenSectionName = [frozenNumSecs]string{"sites", "ranks", "ids", "points", "buckets"}

var frozenCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrNeedDB reports that a frozen container embeds no point vectors, so
// opening it requires the caller to supply the database it was built on.
var ErrNeedDB = errors.New("sisap: frozen container embeds no points; a database is required")

// hostLittleEndian gates the zero-copy casts: on a big-endian host the
// open path falls back to decoding copies.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func align64(off uint64) uint64 { return (off + frozenAlign - 1) &^ uint64(frozenAlign-1) }

type frozenSection struct {
	off    uint64 // absolute file offset, 64-byte-aligned
	length uint64
	crc    uint32 // CRC-32C of the section bytes
}

// frozenHeader is the parsed fixed header of a frozen payload.
type frozenHeader struct {
	headerOff uint64
	k         int
	dist      PermDistance
	n         uint64
	distinct  int
	rankWidth int
	dims      int
	metricLen int
	ell       int // directory prefix length
	nbuckets  int // directory size
	sec       []frozenSection
}

// parseFrozenFixed decodes the frozenFixedLen header bytes that follow the
// tag.
func parseFrozenFixed(b []byte) frozenHeader {
	le := binary.LittleEndian
	var h frozenHeader
	h.headerOff = le.Uint64(b[0:])
	h.k = int(le.Uint32(b[8:]))
	h.dist = PermDistance(le.Uint32(b[12:]))
	h.n = le.Uint64(b[16:])
	h.distinct = int(le.Uint32(b[24:]))
	h.rankWidth = int(le.Uint32(b[28:]))
	h.dims = int(le.Uint32(b[32:]))
	h.metricLen = int(le.Uint32(b[36:]))
	h.sec = make([]frozenSection, frozenNumSecs)
	for i := range h.sec {
		base := 40 + 24*i
		h.sec[i] = frozenSection{
			off:    le.Uint64(b[base:]),
			length: le.Uint64(b[base+8:]),
			crc:    le.Uint32(b[base+16:]),
		}
	}
	h.ell = int(le.Uint32(b[40+24*frozenNumSecs:]))
	h.nbuckets = int(le.Uint32(b[44+24*frozenNumSecs:]))
	return h
}

// sectionLens returns the exact byte length every section must have given
// the header counts. All factors are bounded by check's field validation,
// so the uint64 products cannot overflow.
func (h *frozenHeader) sectionLens() []uint64 {
	nb := uint64(h.nbuckets)
	return []uint64{
		frozenSecSites:   uint64(h.k) * 8,
		frozenSecRanks:   uint64(h.distinct) * uint64(h.k) * uint64(h.rankWidth),
		frozenSecIDs:     h.n * 4,
		frozenSecPoints:  h.n * uint64(h.dims) * 8,
		frozenSecBuckets: 4 * (nb*uint64(h.ell) + 2*(nb+1) + uint64(h.distinct) + h.n),
	}
}

// end returns the file offset one past the last section.
func (h *frozenHeader) end() uint64 {
	last := h.sec[len(h.sec)-1]
	return last.off + last.length
}

// check validates every header field and the canonical section layout —
// ascending 64-byte-aligned offsets with sub-alignment gaps and exact
// computed lengths — so that a header that passes cannot direct the
// decoder out of bounds or into an oversized allocation.
func (h *frozenHeader) check() error {
	if h.k < 1 || h.k > 65535 {
		return fmt.Errorf("sisap: frozen k=%d out of range 1..65535", h.k)
	}
	if h.dist < Footrule || h.dist > SpearmanRho {
		return fmt.Errorf("sisap: frozen container has unknown permutation distance %d", int(h.dist))
	}
	if h.n == 0 || h.n >= 1<<32 {
		return fmt.Errorf("sisap: frozen point count %d out of range", h.n)
	}
	if h.distinct < 1 || uint64(h.distinct) > h.n {
		return fmt.Errorf("sisap: frozen distinct count %d out of range 1..%d", h.distinct, h.n)
	}
	wantWidth := 1
	if h.k > 256 {
		wantWidth = 2
	}
	if h.rankWidth != wantWidth {
		return fmt.Errorf("sisap: frozen rank width %d does not match k=%d (want %d)", h.rankWidth, h.k, wantWidth)
	}
	if h.dims > frozenMaxDims {
		return fmt.Errorf("sisap: frozen point dimensionality %d exceeds limit %d", h.dims, frozenMaxDims)
	}
	if h.metricLen > maxKindLen {
		return fmt.Errorf("sisap: frozen metric name length %d out of range", h.metricLen)
	}
	if h.dims > 0 && h.metricLen == 0 {
		return errors.New("sisap: frozen container embeds points but no metric name")
	}
	if h.ell < 1 || h.ell > h.k {
		return fmt.Errorf("sisap: frozen bucket prefix length %d out of range 1..%d", h.ell, h.k)
	}
	if h.nbuckets < 1 || h.nbuckets > h.distinct {
		return fmt.Errorf("sisap: frozen bucket count %d out of range 1..%d", h.nbuckets, h.distinct)
	}
	// headerOff is bounded so the offset arithmetic below cannot overflow
	// (section lengths are ≤ 2^51 by the field bounds above).
	if h.headerOff > 1<<20 {
		return fmt.Errorf("sisap: frozen header offset %d out of range", h.headerOff)
	}
	want := h.sectionLens()
	pos := h.headerOff + 4 + frozenFixedLen + uint64(h.metricLen)
	for i, s := range h.sec {
		off := align64(pos)
		if s.off != off {
			return fmt.Errorf("sisap: frozen %s section at offset %d, want %d", frozenSectionName[i], s.off, off)
		}
		if s.length != want[i] {
			return fmt.Errorf("sisap: frozen %s section is %d bytes, want %d", frozenSectionName[i], s.length, want[i])
		}
		pos = off + s.length
	}
	return nil
}

// verifySections checks each section's CRC-32C and then the value bounds
// the query kernels index by without per-element checks: every rank < k,
// every row ID < distinct, every site ID < n. A file that passes cannot
// drive the kernels or the scatter loops out of bounds. (Duplicate rank
// rows — which the compact decoder rejects — are tolerated here: they
// waste table space but cannot corrupt an answer, and detecting them
// would cost the O(n·k) hashing pass this format exists to avoid.)
func (h *frozenHeader) verifySections(secs [][]byte) error {
	le := binary.LittleEndian
	for i, b := range secs {
		if got := crc32.Checksum(b, frozenCRC); got != h.sec[i].crc {
			mmapCksumFail.Add(1)
			return fmt.Errorf("sisap: frozen %s section checksum mismatch (%08x, want %08x)", frozenSectionName[i], got, h.sec[i].crc)
		}
	}
	for off := 0; off < len(secs[frozenSecSites]); off += 8 {
		if id := le.Uint64(secs[frozenSecSites][off:]); id >= h.n {
			return fmt.Errorf("sisap: frozen site ID %d out of range", id)
		}
	}
	ranks := secs[frozenSecRanks]
	switch {
	case h.rankWidth == 1 && h.k < 256:
		for _, r := range ranks {
			if int(r) >= h.k {
				return fmt.Errorf("sisap: frozen rank %d out of range (k=%d)", r, h.k)
			}
		}
	case h.rankWidth == 2:
		for off := 0; off < len(ranks); off += 2 {
			if r := le.Uint16(ranks[off:]); int(r) >= h.k {
				return fmt.Errorf("sisap: frozen rank %d out of range (k=%d)", r, h.k)
			}
		}
	}
	ids := secs[frozenSecIDs]
	for off := 0; off < len(ids); off += 4 {
		if id := le.Uint32(ids[off:]); int(id) >= h.distinct {
			return fmt.Errorf("sisap: frozen row ID %d out of range (distinct=%d)", id, h.distinct)
		}
	}
	return h.verifyBucketSection(secs)
}

// verifyBucketSection validates the inverted-file directory far beyond
// memory safety: the posting-list boundaries must tile the row and point
// ranges exactly, rowOrder/ptOrder must be permutations, and — the
// mis-probe guarantee — every row listed under a bucket must actually
// carry that bucket's prefix (checked against the rank matrix) and every
// point must be listed under its own row's bucket. A hostile directory
// that survives this is, by construction, a correct directory: probing it
// can only ever select the points it claims, so corruption fails decode
// instead of silently degrading answers.
func (h *frozenHeader) verifyBucketSection(secs [][]byte) error {
	le := binary.LittleEndian
	b := secs[frozenSecBuckets]
	u32 := func(i int) uint32 { return le.Uint32(b[4*i:]) }
	nb, ell, distinct := h.nbuckets, h.ell, h.distinct
	n := int(h.n)
	prefixesOff := 0
	rowStartsOff := prefixesOff + nb*ell
	rowOrderOff := rowStartsOff + nb + 1
	ptStartsOff := rowOrderOff + distinct
	ptOrderOff := ptStartsOff + nb + 1
	for i := 0; i < nb*ell; i++ {
		if int(u32(prefixesOff+i)) >= h.k {
			return fmt.Errorf("sisap: frozen bucket prefix site %d out of range (k=%d)", u32(prefixesOff+i), h.k)
		}
	}
	checkStarts := func(off, total int, what string) error {
		if u32(off) != 0 {
			return fmt.Errorf("sisap: frozen bucket %s do not start at 0", what)
		}
		for i := 1; i <= nb; i++ {
			if u32(off+i) < u32(off+i-1) {
				return fmt.Errorf("sisap: frozen bucket %s not monotone at bucket %d", what, i-1)
			}
		}
		if int(u32(off+nb)) != total {
			return fmt.Errorf("sisap: frozen bucket %s end at %d, want %d", what, u32(off+nb), total)
		}
		return nil
	}
	if err := checkStarts(rowStartsOff, distinct, "row boundaries"); err != nil {
		return err
	}
	if err := checkStarts(ptStartsOff, n, "point boundaries"); err != nil {
		return err
	}
	// rankAt reads the stored rank of site s in table row r straight from
	// the verified ranks section.
	ranks := secs[frozenSecRanks]
	rankAt := func(r, s int) int {
		if h.rankWidth == 2 {
			return int(le.Uint16(ranks[2*(r*h.k+s):]))
		}
		return int(ranks[r*h.k+s])
	}
	rowBucket := make([]uint32, distinct)
	seenRow := make([]bool, distinct)
	for bkt := 0; bkt < nb; bkt++ {
		lo, hi := int(u32(rowStartsOff+bkt)), int(u32(rowStartsOff+bkt+1))
		for i := lo; i < hi; i++ {
			r := u32(rowOrderOff + i)
			if int(r) >= distinct || seenRow[r] {
				return fmt.Errorf("sisap: frozen bucket row list is not a permutation (row %d)", r)
			}
			seenRow[r] = true
			rowBucket[r] = uint32(bkt)
			for j := 0; j < ell; j++ {
				if rankAt(int(r), int(u32(prefixesOff+bkt*ell+j))) != j {
					return fmt.Errorf("sisap: frozen table row %d does not carry its bucket's prefix", r)
				}
			}
		}
	}
	ids := secs[frozenSecIDs]
	seenPt := make([]bool, n)
	for bkt := 0; bkt < nb; bkt++ {
		lo, hi := int(u32(ptStartsOff+bkt)), int(u32(ptStartsOff+bkt+1))
		for i := lo; i < hi; i++ {
			pt := u32(ptOrderOff + i)
			if int(pt) >= n || seenPt[pt] {
				return fmt.Errorf("sisap: frozen bucket point list is not a permutation (point %d)", pt)
			}
			seenPt[pt] = true
			if rowBucket[le.Uint32(ids[4*pt:])] != uint32(bkt) {
				return fmt.Errorf("sisap: frozen point %d listed under the wrong bucket", pt)
			}
		}
	}
	return nil
}

// --- writing ---

// frozenPoints encodes the database's coordinate block for embedding, if
// the database is self-describing: a ByName-resolvable metric over a packed
// block of equal-dimension float vectors. Otherwise it reports dims 0 and
// the container is written without points (ErrNeedDB on a db-less open).
func frozenPoints(db *DB) (points []byte, dims int, name string) {
	name = db.Metric.Name()
	if _, err := metric.ByName(name); err != nil || db.dim == 0 || db.dim > frozenMaxDims {
		return nil, 0, ""
	}
	buf := make([]byte, 8*len(db.block))
	for i, f := range db.block {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(f))
	}
	return buf, db.dim, name
}

// WriteOptions configures WriteIndexWith.
type WriteOptions struct {
	// Compact selects the bit-packed wire form — exactly what WriteIndex
	// emits, smallest on the wire but k ≤ 20 and decoded onto the heap.
	// The default (false) writes the sectioned frozen form, larger but
	// servable zero-copy via OpenMapped and unrestricted in k.
	Compact bool
}

// WriteIndexWith serialises x in the v2 container, in the form opts
// selects. The frozen form is only defined for the distperm kind; every
// other index kind writes compact regardless.
func WriteIndexWith(w io.Writer, x Index, opts WriteOptions) (int64, error) {
	if px, ok := x.(*PermIndex); ok && !opts.Compact {
		return WriteFrozen(w, px)
	}
	return WriteIndex(w, x)
}

// WriteFrozen serialises x in the sectioned frozen form (PFR2) of the v2
// container. Unlike WriteIndex's compact payload it has no k ≤ 20 cap,
// and when the database is self-describing (a named metric over
// equal-dimension vectors) the point vectors are embedded, making the
// file self-contained for OpenMapped. The prefix-bucket directory is
// built (if the index has not served an approximate query yet) and
// written as the fifth section, so mapped opens serve approximate queries
// zero-copy.
func WriteFrozen(w io.Writer, x *PermIndex) (int64, error) {
	k := x.K()
	n := uint64(x.db.N())
	if n == 0 || n >= 1<<32 {
		return 0, fmt.Errorf("sisap: cannot freeze an index over %d points", n)
	}
	distinct := x.table.rows
	pb := x.buckets()
	nb := pb.numBuckets()

	secs := make([][]byte, frozenNumSecs)
	sites := make([]byte, 8*k)
	for i, id := range x.siteIDs {
		binary.LittleEndian.PutUint64(sites[8*i:], uint64(id))
	}
	secs[frozenSecSites] = sites
	rankWidth := 1
	if x.table.wide() {
		rankWidth = 2
		ranks := make([]byte, 2*distinct*k)
		for i, r := range x.table.r16.data {
			binary.LittleEndian.PutUint16(ranks[2*i:], r)
		}
		secs[frozenSecRanks] = ranks
	} else {
		// The uint8 store is already the on-disk byte layout.
		secs[frozenSecRanks] = x.table.r8.data
	}
	ids := make([]byte, 4*len(x.tableIDs))
	for i, id := range x.tableIDs {
		binary.LittleEndian.PutUint32(ids[4*i:], id)
	}
	secs[frozenSecIDs] = ids
	points, dims, metricName := frozenPoints(x.db)
	secs[frozenSecPoints] = points
	buckets := make([]byte, 0, 4*(nb*pb.ell+2*(nb+1)+distinct+int(n)))
	for _, arr := range [][]uint32{pb.prefixes, pb.rowStarts, pb.rowOrder, pb.ptStarts, pb.ptOrder} {
		for _, v := range arr {
			buckets = binary.LittleEndian.AppendUint32(buckets, v)
		}
	}
	secs[frozenSecBuckets] = buckets

	headerOff := uint64(frozenPrefixLen)
	sec := make([]frozenSection, frozenNumSecs)
	pos := headerOff + 4 + frozenFixedLen + uint64(len(metricName))
	for i, b := range secs {
		off := align64(pos)
		sec[i] = frozenSection{off: off, length: uint64(len(b)), crc: crc32.Checksum(b, frozenCRC)}
		pos = off + uint64(len(b))
	}

	le := binary.LittleEndian
	hdr := make([]byte, 4+frozenFixedLen+len(metricName))
	le.PutUint32(hdr[0:], permFrozenV2Tag)
	le.PutUint64(hdr[4:], headerOff)
	le.PutUint32(hdr[12:], uint32(k))
	le.PutUint32(hdr[16:], uint32(x.dist))
	le.PutUint64(hdr[20:], n)
	le.PutUint32(hdr[28:], uint32(distinct))
	le.PutUint32(hdr[32:], uint32(rankWidth))
	le.PutUint32(hdr[36:], uint32(dims))
	le.PutUint32(hdr[40:], uint32(len(metricName)))
	for i, s := range sec {
		base := 44 + 24*i
		le.PutUint64(hdr[base:], s.off)
		le.PutUint64(hdr[base+8:], s.length)
		le.PutUint32(hdr[base+16:], s.crc)
	}
	le.PutUint32(hdr[44+24*frozenNumSecs:], uint32(pb.ell))
	le.PutUint32(hdr[48+24*frozenNumSecs:], uint32(nb))
	copy(hdr[4+frozenFixedLen:], metricName)

	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}
	werr := func() error {
		if _, err := io.WriteString(cw, codecMagic); err != nil {
			return err
		}
		if err := binary.Write(cw, le, uint32(codecVersion)); err != nil {
			return err
		}
		if err := binary.Write(cw, le, uint32(len(frozenKind))); err != nil {
			return err
		}
		if _, err := io.WriteString(cw, frozenKind); err != nil {
			return err
		}
		if _, err := cw.Write(hdr); err != nil {
			return err
		}
		for i, b := range secs {
			if err := writeZeros(cw, int64(sec[i].off)-cw.n); err != nil {
				return err
			}
			if _, err := cw.Write(b); err != nil {
				return err
			}
		}
		return bw.Flush()
	}()
	return cw.n, werr
}

var zeroPad [frozenAlign]byte

func writeZeros(w io.Writer, n int64) error {
	for n > 0 {
		chunk := n
		if chunk > frozenAlign {
			chunk = frozenAlign
		}
		if _, err := w.Write(zeroPad[:chunk]); err != nil {
			return err
		}
		n -= chunk
	}
	return nil
}

// --- decoding (shared by the stream and mapped paths) ---

// Zero-copy reinterpretations of a mapping section as its typed contents.
// Safe because the writer 64-byte-aligns every section, mappings are
// page-aligned (so section bases are at least 8-byte-aligned), and the
// callers gate on hostLittleEndian; the heap fallbacks below decode
// copies instead.

func viewUint16(b []byte) []uint16 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint16)(unsafe.Pointer(&b[0])), len(b)/2)
}

func viewUint32(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func viewFloat64(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func frozenUint16s(b []byte, zeroCopy bool) []uint16 {
	if zeroCopy {
		return viewUint16(b)
	}
	out := make([]uint16, len(b)/2)
	for i := range out {
		out[i] = binary.LittleEndian.Uint16(b[2*i:])
	}
	return out
}

func frozenUint32s(b []byte, zeroCopy bool) []uint32 {
	if zeroCopy {
		return viewUint32(b)
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

func frozenFloat64s(b []byte, zeroCopy bool) []float64 {
	if zeroCopy {
		return viewFloat64(b)
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// buildFrozenIndex assembles the index (and, for a self-contained
// container opened without a database, the database itself) from verified
// section bytes. With zeroCopy the rank matrix, row IDs, and point
// vectors are views into the section bytes — the mapped path; otherwise
// they are decoded copies and the section bytes may be discarded.
func buildFrozenIndex(h *frozenHeader, metricName string, secs [][]byte, db *DB, zeroCopy bool) (*PermIndex, *DB, error) {
	if db != nil {
		if uint64(db.N()) != h.n {
			return nil, nil, fmt.Errorf("sisap: index has %d points, database has %d", h.n, db.N())
		}
	} else {
		if h.dims == 0 {
			return nil, nil, fmt.Errorf("sisap: opening %d-point container: %w", h.n, ErrNeedDB)
		}
		m, err := metric.ByName(metricName)
		if err != nil {
			return nil, nil, fmt.Errorf("sisap: frozen container metric: %w", err)
		}
		// The points section is the database's coordinate block as stored:
		// on the mapped path no coordinate is copied or allocated.
		floats := frozenFloat64s(secs[frozenSecPoints], zeroCopy)
		db = packedDB(m, make([]metric.Point, h.n), floats, h.dims)
	}
	siteIDs := make([]int, h.k)
	for i := range siteIDs {
		siteIDs[i] = int(binary.LittleEndian.Uint64(secs[frozenSecSites][8*i:]))
	}
	var table *rankTable
	if h.rankWidth == 1 {
		// []uint8 is []byte: the section bytes are the store, both paths.
		table = newFrozenRankTable(h.k, h.distinct, secs[frozenSecRanks], nil)
	} else {
		table = newFrozenRankTable(h.k, h.distinct, nil, frozenUint16s(secs[frozenSecRanks], zeroCopy))
	}
	ids := frozenUint32s(secs[frozenSecIDs], zeroCopy)
	idx := newPermIndexFromTable(db, siteIDs, h.dist, table, ids)
	// The verified directory becomes the index's bucket directory directly —
	// views into the mapping on the zero-copy path — so no process ever
	// rebuilds what the file already stores.
	u := frozenUint32s(secs[frozenSecBuckets], zeroCopy)
	nb, ell := h.nbuckets, h.ell
	p := 0
	cut := func(n int) []uint32 { s := u[p : p+n : p+n]; p += n; return s }
	idx.lb.pb = &prefixBuckets{
		ell:       ell,
		prefixes:  cut(nb * ell),
		rowStarts: cut(nb + 1),
		rowOrder:  cut(h.distinct),
		ptStarts:  cut(nb + 1),
		ptOrder:   cut(int(h.n)),
	}
	return idx, db, nil
}

// readFrozenSection reads exactly length section bytes, growing the buffer
// in bounded chunks as data actually arrives. The header's field bounds cap
// most sections, but a corrupt points section can legitimately claim
// n×dims×8 bytes — far more than any real file holds — and a single
// make([]byte, length) up front would be an attacker-priced allocation.
// Chunked growth keeps memory proportional to the bytes the file really
// contains: a short file fails with io.ErrUnexpectedEOF after at most one
// chunk of slack.
func readFrozenSection(br io.Reader, length uint64) ([]byte, error) {
	const chunk = 1 << 20
	if length <= chunk {
		b := make([]byte, length)
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	b := make([]byte, 0, chunk)
	for uint64(len(b)) < length {
		n := length - uint64(len(b))
		if n > chunk {
			n = chunk
		}
		grown := append(b, make([]byte, n)...)
		if _, err := io.ReadFull(br, grown[len(b):]); err != nil {
			return nil, err
		}
		b = grown
	}
	return b, nil
}

// decodeFrozenStream reads a frozen payload sequentially — the
// compatibility path ReadIndex uses, materialising a heap-backed index;
// OpenMapped is the zero-copy path. The tag has already been consumed. The
// header stores absolute section offsets, but it also stores its own
// absolute offset, so the padding gaps can be derived without seeking.
func decodeFrozenStream(br io.Reader, db *DB) (*PermIndex, error) {
	if db == nil {
		return nil, errors.New("sisap: stream-decoding a frozen container requires a database")
	}
	fixed := make([]byte, frozenFixedLen)
	if _, err := io.ReadFull(br, fixed); err != nil {
		return nil, fmt.Errorf("sisap: reading frozen header: %w", err)
	}
	h := parseFrozenFixed(fixed)
	if err := h.check(); err != nil {
		return nil, err
	}
	if uint64(db.N()) != h.n {
		return nil, fmt.Errorf("sisap: index has %d points, database has %d", h.n, db.N())
	}
	name := make([]byte, h.metricLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("sisap: reading frozen metric name: %w", err)
	}
	pos := h.headerOff + 4 + frozenFixedLen + uint64(h.metricLen)
	secs := make([][]byte, len(h.sec))
	for i, s := range h.sec {
		// check pinned s.off to align64(pos), so the gap is < frozenAlign.
		if gap := int64(s.off - pos); gap > 0 {
			if _, err := io.CopyN(io.Discard, br, gap); err != nil {
				return nil, fmt.Errorf("sisap: reading frozen %s section padding: %w", frozenSectionName[i], err)
			}
		}
		b, err := readFrozenSection(br, s.length)
		if err != nil {
			return nil, fmt.Errorf("sisap: reading frozen %s section: %w", frozenSectionName[i], err)
		}
		secs[i] = b
		pos = s.off + s.length
	}
	if err := h.verifySections(secs); err != nil {
		return nil, err
	}
	idx, _, err := buildFrozenIndex(&h, string(name), secs, db, false)
	return idx, err
}

// --- mapped open ---

// Mapped is an open frozen container: an index (and, for self-contained
// containers, its database) whose rank matrix, row IDs, and point vectors
// are zero-copy views into one read-only file mapping. Close unmaps; the
// views — including every Engine replica sharing the table — must not be
// used after Close, so a server drains queries first (MutableConfig's
// BaseRelease hook and distpermd's drain path do exactly that).
type Mapped struct {
	m   *mmapping // nil when the open fell back to a heap read
	idx *PermIndex
	db  *DB
}

// Index returns the mapped index. Replicas share the mapping.
func (m *Mapped) Index() *PermIndex { return m.idx }

// DB returns the database the index is served against: the one supplied
// to OpenMapped, or the container-embedded one.
func (m *Mapped) DB() *DB { return m.db }

// Zero reports whether the open was truly zero-copy (a live mapping) as
// opposed to the heap fallback.
func (m *Mapped) Zero() bool { return m.m != nil }

// Close releases the mapping. It is idempotent and safe on the heap
// fallback; it is the caller's contract that no view is used afterwards.
func (m *Mapped) Close() error {
	if m.m == nil {
		return nil
	}
	// unmap nils the data slice, so capture the size first; idempotence
	// of the gauge update rides on unmap's own idempotence.
	released := int64(len(m.m.data))
	err := m.m.unmap()
	if released > 0 {
		mmapBytes.Add(-released)
	}
	return err
}

// OpenMapped opens a frozen container produced by WriteFrozen without
// copying it: the header and per-section checksums are verified (one
// sequential pass, no per-element decode or allocation), then the index
// is assembled from views into the read-only mapping. db may be nil for
// self-contained containers (embedded points); otherwise it must be the
// database the index was built on. On platforms without mmap support the
// same validation runs over a heap read of the file.
func OpenMapped(path string, db *DB) (*Mapped, error) {
	start := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	zeroCopy := mmapSupported && hostLittleEndian
	var m *mmapping
	var data []byte
	if zeroCopy {
		if m, err = mapFile(f, st.Size()); err != nil {
			return nil, err
		}
		data = m.data
	} else {
		if data, err = io.ReadAll(bufio.NewReader(f)); err != nil {
			return nil, fmt.Errorf("sisap: reading %s: %w", path, err)
		}
	}
	idx, fdb, err := openFrozenBytes(data, db, zeroCopy)
	if err != nil {
		if m != nil {
			m.unmap()
		}
		return nil, fmt.Errorf("sisap: open %s: %w", path, err)
	}
	mmapOpens.Add(1)
	if m != nil {
		mmapZeroCopy.Add(1)
		mmapBytes.Add(int64(len(m.data)))
	}
	mmapOpenLat.Observe(time.Since(start).Seconds())
	return &Mapped{m: m, idx: idx, db: fdb}, nil
}

// openFrozenBytes validates a complete frozen container image and builds
// the index over it (views when zeroCopy, decoded copies otherwise).
func openFrozenBytes(data []byte, db *DB, zeroCopy bool) (*PermIndex, *DB, error) {
	le := binary.LittleEndian
	if len(data) < frozenPrefixLen+4+frozenFixedLen {
		return nil, nil, fmt.Errorf("sisap: %d-byte file is too short for a frozen container", len(data))
	}
	if string(data[:len(codecMagic)]) != codecMagic {
		return nil, nil, fmt.Errorf("sisap: bad magic %q", data[:len(codecMagic)])
	}
	if v := le.Uint32(data[len(codecMagic):]); v != codecVersion {
		return nil, nil, fmt.Errorf("sisap: mapped open needs a v%d container, got version %d", codecVersion, v)
	}
	kindLen := le.Uint32(data[len(codecMagic)+4:])
	if int(kindLen) != len(frozenKind) || string(data[len(codecMagic)+8:frozenPrefixLen]) != frozenKind {
		return nil, nil, fmt.Errorf("sisap: mapped open supports only %q containers", frozenKind)
	}
	if tag := le.Uint32(data[frozenPrefixLen:]); tag != permFrozenV2Tag {
		return nil, nil, fmt.Errorf("sisap: container payload tag %#08x is not the frozen form PFR2 (write it with WriteFrozen, or stream-decode with ReadIndex)", tag)
	}
	h := parseFrozenFixed(data[frozenPrefixLen+4:])
	if err := h.check(); err != nil {
		return nil, nil, err
	}
	if h.headerOff != uint64(frozenPrefixLen) {
		return nil, nil, fmt.Errorf("sisap: frozen header claims offset %d, found at %d", h.headerOff, frozenPrefixLen)
	}
	nameOff := frozenPrefixLen + 4 + frozenFixedLen
	if h.end() != uint64(len(data)) {
		return nil, nil, fmt.Errorf("sisap: frozen container is %d bytes, header describes %d", len(data), h.end())
	}
	name := string(data[nameOff : nameOff+h.metricLen])
	secs := make([][]byte, len(h.sec))
	for i, s := range h.sec {
		secs[i] = data[s.off : s.off+s.length : s.off+s.length]
	}
	if err := h.verifySections(secs); err != nil {
		return nil, nil, err
	}
	return buildFrozenIndex(&h, name, secs, db, zeroCopy)
}
