package sisap

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
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
// decoding the container onto the heap. Restart cost over a frozen
// store is one sequential checksum pass, not a per-element decode, and
// every process serving the same file shares one page-cache copy.
//
// Frozen payload layout (little-endian), inside the standard v2 container
// (magic, version, kind "distperm"):
//
//	tag        uint32   permFrozenV3Tag ("PFR3"), or permFrozenV2Tag ("PFR2")
//	headerOff  uint64   absolute file offset of the tag: always
//	                    frozenPrefixLen — a frozen container is a file
//	                    image (section offsets below are absolute) and does
//	                    not nest inside another container
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
//	           points  n × dims × float64  vectors (optional): row j is
//	                   point ptOrder[j] under PFR3, point j under PFR2
//	           buckets 4·(nbuckets·ell + 2·(nbuckets+1) + distinct + n) bytes:
//	                   uint32 arrays [prefixes][rowStarts][rowOrder][ptStarts][ptOrder]
//
// Sections sit at ascending 64-byte-aligned offsets with zero padding
// between; each carries a CRC-32C (sectionCRC). Unlike the compact form, the
// frozen form has no k ≤ 20 cap: ranks are stored raw, not as packed factorials.
// The points section (plus the metric name) makes a container
// self-contained: OpenMapped can reconstruct the database from the
// mapping, so a serving process needs no separate data file. The buckets
// section is the permutation-prefix inverted-file directory of
// prefixbuckets.go, so mapped opens serve approximate queries zero-copy
// instead of rebuilding the directory per process.
//
// The two revisions differ in the order of the points section's rows alone.
// PFR3, the one WriteFrozen emits, lists the points as the directory does, so
// a mapped store reads every bucket it probes or walks as one run of the
// mapping and never copies a coordinate. PFR2 keeps ID order and still loads,
// to a store that makes the bucket-major copy a heap-built one makes
// (re-freeze it). "PFRZ", four sections and no directory, is rejected by tag.
const (
	permFrozenV2Tag = 0x32524650 // "PFR2" read little-endian
	permFrozenV3Tag = 0x33524650 // "PFR3"
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

// frozenHeader is the tag and the fixed header of a frozen payload.
type frozenHeader struct {
	tag       uint32 // permFrozenV3Tag or permFrozenV2Tag
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
	sec       [frozenNumSecs]frozenSection
}

// layout returns the one section table the header's counts allow: ascending
// 64-byte-aligned offsets and exact computed lengths (checksums left zero).
// The writer places sections by it and the reader accepts no other, so all
// factors are bounded by decodeFrozenHeader's field ranges before a reader
// multiplies them, and the uint64 products cannot overflow.
func (h *frozenHeader) layout() (sec [frozenNumSecs]frozenSection) {
	nb := uint64(h.nbuckets)
	lens := [frozenNumSecs]uint64{
		frozenSecSites:   uint64(h.k) * 8,
		frozenSecRanks:   uint64(h.distinct) * uint64(h.k) * uint64(h.rankWidth),
		frozenSecIDs:     h.n * 4,
		frozenSecPoints:  h.n * uint64(h.dims) * 8,
		frozenSecBuckets: 4 * (nb*uint64(h.ell) + 2*(nb+1) + uint64(h.distinct) + h.n),
	}
	pos := h.headerOff + 4 + frozenFixedLen + uint64(h.metricLen)
	for i, length := range lens {
		sec[i] = frozenSection{off: align64(pos), length: length}
		pos = sec[i].off + length
	}
	return sec
}

// end returns the file offset one past the last section.
func (h *frozenHeader) end() uint64 {
	last := h.sec[len(h.sec)-1]
	return last.off + last.length
}

// encode appends the tag and the frozenFixedLen header bytes that follow it.
func (h *frozenHeader) encode(e *enc) {
	e.u32(h.tag)
	e.u64(h.headerOff)
	e.u32(uint32(h.k))
	e.u32(uint32(h.dist))
	e.u64(h.n)
	e.u32(uint32(h.distinct))
	e.u32(uint32(h.rankWidth))
	e.u32(uint32(h.dims))
	e.u32(uint32(h.metricLen))
	for _, s := range h.sec {
		e.u64(s.off)
		e.u64(s.length)
		e.u32(s.crc)
		e.u32(0)
	}
	e.u32(uint32(h.ell))
	e.u32(uint32(h.nbuckets))
}

// decodeFrozenHeader reads the tag and the header that follows it and
// validates it as it goes: every field against its range, then the section
// table against the canonical layout — so a header that decodes cannot direct
// a reader out of bounds or into an oversized allocation.
func decodeFrozenHeader(d *dec) frozenHeader {
	var h frozenHeader
	if h.tag = d.u32(); d.err == nil && h.tag != permFrozenV3Tag && h.tag != permFrozenV2Tag {
		d.fail("container payload tag %#08x is not a frozen form, PFR3 or PFR2 (write it with WriteFrozen, or decode it with ReadIndex)", h.tag)
	}
	if h.headerOff = d.u64(); d.err == nil && h.headerOff != uint64(frozenPrefixLen) {
		d.fail("frozen header claims offset %d, found at %d", h.headerOff, frozenPrefixLen)
	}
	h.k = d.count("frozen k", uint64(d.u32()), 1, 65535)
	h.dist = PermDistance(d.count("frozen permutation distance", uint64(d.u32()), int(Footrule), int(SpearmanRho)))
	if h.n = d.u64(); d.err == nil && (h.n == 0 || h.n >= 1<<32) {
		d.fail("frozen point count %d out of range", h.n)
	}
	h.distinct = d.count("frozen distinct count", uint64(d.u32()), 1, int(min(h.n, math.MaxInt)))
	wantWidth := 1
	if h.k > 256 {
		wantWidth = 2
	}
	h.rankWidth = d.count("frozen rank width", uint64(d.u32()), wantWidth, wantWidth)
	h.dims = d.count("frozen point dimensionality", uint64(d.u32()), 0, frozenMaxDims)
	h.metricLen = d.count("frozen metric name length", uint64(d.u32()), 0, maxKindLen)
	for i := range h.sec {
		h.sec[i] = frozenSection{off: d.u64(), length: d.u64(), crc: d.u32()}
		d.u32() // reserved
	}
	h.ell = d.count("frozen bucket prefix length", uint64(d.u32()), 1, h.k)
	h.nbuckets = d.count("frozen bucket count", uint64(d.u32()), 1, h.distinct)
	if d.err == nil && h.dims > 0 && h.metricLen == 0 {
		d.fail("frozen container embeds points but no metric name")
	}
	for i, want := range h.layout() {
		if s := h.sec[i]; d.err == nil && (s.off != want.off || s.length != want.length) {
			d.fail("frozen %s section is %d bytes at offset %d, want %d at %d",
				frozenSectionName[i], s.length, s.off, want.length, want.off)
		}
	}
	return h
}

// sectionCRC returns the checksum section i carries over its bytes b. The
// tags are one bit apart, say which point every row is, and sit in a header
// with no checksum of its own: a PFR3 points section is summed behind its tag
// (PFR2's stays the plain sum its writer made), so a file re-tagged either
// way fails here instead of opening with every point mislabelled.
func (h *frozenHeader) sectionCRC(i int, b []byte) uint32 {
	if i == frozenSecPoints && h.tag == permFrozenV3Tag {
		tag := binary.LittleEndian.AppendUint32(nil, h.tag)
		return crc32.Update(CRC32C(tag), castagnoli, b)
	}
	return CRC32C(b)
}

// verifySections checks each section's CRC-32C and then the value bounds
// the query kernels index by without per-element checks: every rank < k and
// every row ID < distinct (buildFrozenIndex reads the site IDs through the
// cursor's own id rule). A file that passes cannot
// drive the kernels or the scatter loops out of bounds. (Duplicate rank
// rows — which the compact decoder rejects — are tolerated here: they
// waste table space but cannot corrupt an answer, and detecting them
// would cost the O(n·k) hashing pass this format exists to avoid.)
func (h *frozenHeader) verifySections(secs [][]byte) error {
	le := binary.LittleEndian
	for i, b := range secs {
		if got := h.sectionCRC(i, b); got != h.sec[i].crc {
			mmapCksumFail.Add(1)
			return fmt.Errorf("sisap: frozen %s section checksum mismatch (%08x, want %08x)", frozenSectionName[i], got, h.sec[i].crc)
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
// point must be listed under its own row's bucket, in ascending order. A hostile directory
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
	// Taken in ID order, every point must sit in the next slot of its own
	// row's bucket: n points in n distinct slots make ptOrder a permutation
	// that lists each point under its bucket and each bucket ascending — the
	// one directory buildPrefixBuckets builds, and what lets a PFR3 open label
	// its points section front to back (bucketMajorDB).
	ids := secs[frozenSecIDs]
	next := make([]uint32, nb)
	for bkt := range next {
		next[bkt] = u32(ptStartsOff + bkt)
	}
	for pt := 0; pt < n; pt++ {
		bkt := int(rowBucket[le.Uint32(ids[4*pt:])])
		j := int(next[bkt])
		if next[bkt]++; j >= int(u32(ptStartsOff+bkt+1)) || int(u32(ptOrderOff+j)) != pt {
			return fmt.Errorf("sisap: frozen point %d is not listed, in ascending order, under its row's bucket", pt)
		}
	}
	return nil
}

// --- writing ---

// frozenPointDims reports whether the database's coordinate block can be
// embedded — a ByName-resolvable metric over a packed block of
// equal-dimension float vectors — as its dimension and metric name.
// Otherwise it reports dims 0 and the container is written without points
// (ErrNeedDB on a db-less open).
func frozenPointDims(db *DB) (dims int, name string) {
	name = db.Metric.Name()
	if _, err := metric.ByName(name); err != nil || db.dim == 0 || db.dim > frozenMaxDims {
		return 0, ""
	}
	return db.dim, name
}

// WriteFrozen serialises x in the sectioned frozen form (PFR3) of the v2
// container. Unlike WriteIndex's compact payload it has no k ≤ 20 cap,
// and when the database is self-describing (a named metric over
// equal-dimension vectors) the point vectors are embedded, making the
// file self-contained for OpenMapped. The prefix-bucket directory is
// built (if the index has not served an approximate query yet) and
// written as the fifth section and the points in its order (gathered once
// here, so that no reader gathers): mapped opens serve every query zero-copy.
func WriteFrozen(w io.Writer, x *PermIndex) (int64, error) {
	n := uint64(x.db.N())
	if n == 0 || n >= 1<<32 {
		return 0, fmt.Errorf("sisap: cannot freeze an index over %d points", n)
	}
	pb := x.buckets()
	dims, metricName := frozenPointDims(x.db)
	h := frozenHeader{
		tag:       permFrozenV3Tag,
		headerOff: uint64(frozenPrefixLen),
		k:         x.K(),
		dist:      x.dist,
		n:         n,
		distinct:  x.table.rows,
		rankWidth: 1,
		dims:      dims,
		metricLen: len(metricName),
		ell:       pb.ell,
		nbuckets:  pb.numBuckets(),
	}
	if x.table.wide() {
		h.rankWidth = 2
	}
	h.sec = h.layout()

	// The sections go in first, behind room for the header; the header is
	// encoded last, over the front of the same image, once it can carry
	// their checksums.
	e := enc{b: make([]byte, h.sec[0].off, h.end())}
	fill := [frozenNumSecs]func(){
		frozenSecSites: func() { e.ids(x.siteIDs) },
		frozenSecRanks: func() {
			// The uint8 store is already the on-disk byte layout.
			e.b = append(e.b, x.table.r8.data...)
			for _, r := range x.table.r16.data {
				e.b = binary.LittleEndian.AppendUint16(e.b, r)
			}
		},
		frozenSecIDs: func() { e.u32s(x.tableIDs) },
		frozenSecPoints: func() {
			if dims > 0 {
				for _, id := range pb.ptOrder {
					e.f64s(x.db.row(int(id)))
				}
			}
		},
		frozenSecBuckets: func() {
			for _, arr := range [][]uint32{pb.prefixes, pb.rowStarts, pb.rowOrder, pb.ptStarts, pb.ptOrder} {
				e.u32s(arr)
			}
		},
	}
	for i, s := range h.sec {
		e.b = append(e.b, make([]byte, s.off-uint64(len(e.b)))...) // zero padding
		fill[i]()
		h.sec[i].crc = h.sectionCRC(i, e.b[s.off:])
	}
	hdr := enc{b: e.b[:0]}
	hdr.header(frozenKind)
	h.encode(&hdr)
	hdr.str(metricName)
	if uint64(len(e.b)) != h.end() || uint64(len(hdr.b)) > h.sec[0].off {
		panic("sisap: frozen writer and layout disagree")
	}
	nw, err := w.Write(e.b)
	return int64(nw), err
}

// --- decoding ---

// frozenView returns a section's bytes as its typed contents: with zeroCopy
// reinterpreted in place — safe because the writer 64-byte-aligns every
// section, mappings are page-aligned and the callers gate on hostLittleEndian
// — and otherwise decoded into a copy, whatever the host's byte order.
func frozenView[T uint16 | uint32 | float64](b []byte, zeroCopy bool) []T {
	size := int(unsafe.Sizeof(T(0)))
	if zeroCopy {
		return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/size)
	}
	out := make([]T, len(b)/size)
	raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(out))), len(out)*size)
	copy(raw, b)
	for i := 0; !hostLittleEndian && i < len(raw); i += size {
		slices.Reverse(raw[i : i+size])
	}
	return out
}

// buildFrozenIndex assembles the index (and, for a self-contained
// container opened without a database, the database itself) from verified
// section bytes. With zeroCopy the rank matrix, row IDs, directory and point
// vectors are views into the section bytes — the mapped path; otherwise
// they are decoded copies and the section bytes may be discarded.
func buildFrozenIndex(h *frozenHeader, metricName string, secs [][]byte, db *DB, zeroCopy bool) (*PermIndex, *DB, error) {
	// The verified directory becomes the index's bucket directory directly —
	// views into the mapping on the zero-copy path — so no process ever
	// rebuilds what the file already stores.
	u := frozenView[uint32](secs[frozenSecBuckets], zeroCopy)
	nb, ell := h.nbuckets, h.ell
	p := 0
	cut := func(n int) []uint32 { s := u[p : p+n : p+n]; p += n; return s }
	lb := &lazyBuckets{pb: &prefixBuckets{
		ell:       ell,
		prefixes:  cut(nb * ell),
		rowStarts: cut(nb + 1),
		rowOrder:  cut(h.distinct),
		ptStarts:  cut(nb + 1),
		ptOrder:   cut(int(h.n)),
	}}
	ids := frozenView[uint32](secs[frozenSecIDs], zeroCopy)
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
		// on the mapped path no coordinate is copied or allocated. Under PFR3
		// it is the bucket-major rows already.
		floats := frozenView[float64](secs[frozenSecPoints], zeroCopy)
		if h.tag == permFrozenV3Tag {
			db, lb.rows = bucketMajorDB(m, floats, h.dims, lb.pb, ids), floats
		} else {
			db = packedDB(m, make([]metric.Point, h.n), floats, h.dims)
		}
	}
	sites := newDec(secs[frozenSecSites])
	siteIDs := sites.ids("frozen site ID", h.k, int(h.n))
	if sites.err != nil {
		return nil, nil, sites.err
	}
	var table *rankTable
	if h.rankWidth == 1 {
		// []uint8 is []byte: the section bytes are the store — in place on
		// the mapped path, copied on the heap path so that a decoded index
		// does not pin the whole file image.
		ranks := secs[frozenSecRanks]
		if !zeroCopy {
			ranks = bytes.Clone(ranks)
		}
		table = newFrozenRankTable(h.k, h.distinct, ranks, nil)
	} else {
		table = newFrozenRankTable(h.k, h.distinct, nil, frozenView[uint16](secs[frozenSecRanks], zeroCopy))
	}
	idx := newPermIndexFromTable(db, siteIDs, h.dist, table, ids)
	idx.lb = lb
	return idx, db, nil
}

// bucketMajorDB assembles the database of a PFR3 container over its points
// section, whose row j holds point ptOrder[j]. Points is filled in ID order —
// scattered through ptOrder, 200k points cost the open half as much again —
// by re-running the directory's counting scatter: each point takes the next
// row of its bucket, which verifyBucketSection has proved carries its label.
func bucketMajorDB(m metric.Metric, block []float64, d int, pb *prefixBuckets, tableIDs []uint32) *DB {
	rowBucket := make([]uint32, len(pb.rowOrder))
	for b, end := range pb.rowStarts[1:] {
		for _, r := range pb.rowOrder[pb.rowStarts[b]:end] {
			rowBucket[r] = uint32(b)
		}
	}
	next := slices.Clone(pb.ptStarts)
	points := make([]metric.Point, len(tableIDs))
	for id, row := range tableIDs {
		j := int(next[rowBucket[row]])
		next[rowBucket[row]]++
		points[id] = metric.Vector(block[j*d : (j+1)*d : (j+1)*d])
	}
	return &DB{Metric: m, Points: points, block: block, dim: d, order: pb.ptOrder}
}

// --- mapped open ---

// Mapped is an open frozen container: an index (and, for self-contained
// containers, its database) whose rank matrix, row IDs, and point vectors
// are zero-copy views into one read-only file mapping. Close unmaps; the
// views — including every Engine serving the index — must not be
// used after Close, so a server drains queries and closes its engine first
// (distpermd's drain path does exactly that).
type Mapped struct {
	m   *mmapping // nil when the open fell back to a heap read
	idx *PermIndex
	db  *DB
}

// Index returns the mapped index, which any number of queries may read at once.
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
// the index over it (views when zeroCopy, decoded copies otherwise). It is
// the format's one reader: OpenMapped hands it the mapping, ReadIndex the
// bytes it read.
func openFrozenBytes(data []byte, db *DB, zeroCopy bool) (*PermIndex, *DB, error) {
	d := newDec(data)
	if kind := d.header(); d.err == nil && kind != frozenKind {
		d.fail("only %q containers have a frozen form, this one holds %q", frozenKind, kind)
	}
	h := decodeFrozenHeader(d)
	name := string(d.bytes(uint64(h.metricLen)))
	if d.err == nil && h.end() != uint64(len(data)) {
		d.fail("frozen container is %d bytes, header describes %d", len(data), h.end())
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	secs := make([][]byte, len(h.sec))
	for i, s := range h.sec {
		secs[i] = data[s.off : s.off+s.length : s.off+s.length]
	}
	if err := h.verifySections(secs); err != nil {
		return nil, nil, err
	}
	return buildFrozenIndex(&h, name, secs, db, zeroCopy)
}
