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
//	tag        uint32   permFrozenV4Tag ("PFR4")
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
//	sections   6 × {off uint64, len uint64, crc32c uint32, _ uint32}
//	ell        uint32   directory prefix length (1..k)
//	nbuckets   uint32   directory size (1..distinct)
//	cellEll    uint32   the cells' prefix length ℓ' (ell..k),
//	cells      uint32   their count (1..n) and the layout's flags: 0, 1
//	flags      uint32   (bounds) or 3 (bounds, the sweep's verdict offPrefix)
//	metric     metricLen bytes
//	sections:  sites   k × uint64        database IDs of the sites
//	           ranks   distinct×k ranks  raw row-major rank matrix
//	           ids     n × uint32        per-point table row IDs
//	           points  n × dims × float64  vectors (optional): row j is
//	                   point ptOrder[j]
//	           buckets 4·(nbuckets·ell + 2·(nbuckets+1) + distinct + n) bytes:
//	                   uint32 arrays [prefixes][rowStarts][rowOrder][ptStarts][ptOrder]
//	           layout  with bounds, float64 arrays [cell lo][cell hi]
//	                   (cells×k); without, empty
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
// PFR4 is the heap store's walk layout: points, ptOrder and each bucket's rows
// go by cell (cellLayout), which the reader re-derives from ℓ'
// (verifyDirectory), and the layout section carries the cells' bounds where
// the store had them, so a mapped store walks its cells in place, copying and
// sweeping nothing. The revisions before it, PFR3 and PFR2, are refused by
// name (retiredFrozen); "PFRZ" is rejected by tag.
const (
	permFrozenV4Tag = 0x34524650 // "PFR4" read little-endian
	frozenAlign     = 64
	frozenNumSecs   = 6
	frozenFixedLen  = 204 // header bytes after the tag, before the metric name
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
	frozenSecLayout
)

var frozenSectionName = [frozenNumSecs]string{"sites", "ranks", "ids", "points", "buckets", "layout"}

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
	tag       uint32 // permFrozenV4Tag
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
	cellEll   int // the cells' prefix length ℓ', their count and the flags
	cells     int
	flags     uint32
	sec       [frozenNumSecs]frozenSection
}

// layout returns the one section table the header's counts allow: ascending
// 64-byte-aligned offsets and exact computed lengths (checksums left zero).
// The writer places sections by it and the reader accepts no other, so all
// factors are bounded by decodeFrozenHeader's field ranges before a reader
// multiplies them, and the uint64 products cannot overflow.
func (h *frozenHeader) layout() (sec [frozenNumSecs]frozenSection) {
	nb, cells := uint64(h.nbuckets), uint64(h.cells)
	lens := [frozenNumSecs]uint64{
		frozenSecSites:   uint64(h.k) * 8,
		frozenSecRanks:   uint64(h.distinct) * uint64(h.k) * uint64(h.rankWidth),
		frozenSecIDs:     h.n * 4,
		frozenSecPoints:  h.n * uint64(h.dims) * 8,
		frozenSecBuckets: 4 * (nb*uint64(h.ell) + 2*(nb+1) + uint64(h.distinct) + h.n),
		frozenSecLayout:  16 * uint64(h.k) * cells * uint64(h.flags&1),
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
	last := h.sec[frozenNumSecs-1]
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
	e.u32s([]uint32{uint32(h.ell), uint32(h.nbuckets), uint32(h.cellEll), uint32(h.cells), h.flags})
}

// decodeFrozenHeader reads the tag and the header that follows it and
// validates it as it goes: every field against its range, then the section
// table against the canonical layout — so a header that decodes cannot direct
// a reader out of bounds or into an oversized allocation.
func decodeFrozenHeader(d *dec) frozenHeader {
	var h frozenHeader
	switch h.tag = d.u32(); {
	case d.err != nil || h.tag == permFrozenV4Tag:
	case retiredFrozen(h.tag):
		d.fail("unsupported frozen revision %s, no longer read: re-freeze it with an earlier build (distpermd <dataset flags> -load old -freeze new) or rebuild it from the data",
			binary.LittleEndian.AppendUint32(nil, h.tag))
	default:
		d.fail("container payload tag %#08x is not the frozen form, PFR4 (write it with WriteFrozen, or decode it with ReadIndex)", h.tag)
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
	h.cellEll = d.count("frozen cell prefix length", uint64(d.u32()), h.ell, h.k)
	h.cells = d.count("frozen cell count", uint64(d.u32()), 1, int(min(h.n, math.MaxInt)))
	if h.flags = d.u32(); d.err == nil && h.flags != 0 && h.flags != 1 && h.flags != 3 {
		d.fail("frozen layout flags %d are not 0, 1 or 3 (the bisector verdict, 2, needs bounds, 1)", h.flags)
	}
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

// retiredFrozen reports whether tag is PFR3 or PFR2, a frozen revision before
// PFR4 that earlier builds read and re-freeze.
func retiredFrozen(tag uint32) bool {
	rev := byte(tag >> 24)
	return tag&0xffffff == permFrozenV4Tag&0xffffff && (rev == '2' || rev == '3')
}

// sectionCRC returns the checksum section i carries over its bytes b. The
// points section is summed behind the tag, which says, in a header with no
// checksum of its own, which point every row is. The layout section is summed
// behind the sites' and points' sums, whose distances its bounds are, and its
// fields.
func (h *frozenHeader) sectionCRC(i int, b []byte) uint32 {
	var head []byte
	switch i {
	case frozenSecPoints:
		head = binary.LittleEndian.AppendUint32(nil, h.tag)
	case frozenSecLayout:
		for _, v := range []uint32{h.sec[frozenSecSites].crc, h.sec[frozenSecPoints].crc, uint32(h.cellEll), uint32(h.cells), h.flags} {
			head = binary.LittleEndian.AppendUint32(head, v)
		}
	default:
		return CRC32C(b)
	}
	return crc32.Update(CRC32C(head), castagnoli, b)
}

// verifySections checks each section's CRC-32C and then the values the query
// kernels and the scatter loops index by without per-element checks: every
// rank < k, every row ID < distinct (buildFrozenIndex reads the site IDs
// through the cursor's own id rule), the directory and its cells
// (verifyDirectory). It returns them as typed views of secs (zeroCopy) or
// decoded copies. Duplicate rank rows waste table space but cannot corrupt an
// answer; finding them would cost the O(n·k) pass this format exists to avoid.
func (h *frozenHeader) verifySections(secs [][]byte, zeroCopy bool) (*frozenParts, error) {
	le := binary.LittleEndian
	for i, b := range secs {
		if got := h.sectionCRC(i, b); got != h.sec[i].crc {
			mmapCksumFail.Add(1)
			return nil, fmt.Errorf("sisap: frozen %s section checksum mismatch (%08x, want %08x)", frozenSectionName[i], got, h.sec[i].crc)
		}
	}
	ranks := secs[frozenSecRanks]
	switch {
	case h.rankWidth == 1 && h.k < 256:
		for _, r := range ranks {
			if int(r) >= h.k {
				return nil, fmt.Errorf("sisap: frozen rank %d out of range (k=%d)", r, h.k)
			}
		}
	case h.rankWidth == 2:
		for off := 0; off < len(ranks); off += 2 {
			if r := le.Uint16(ranks[off:]); int(r) >= h.k {
				return nil, fmt.Errorf("sisap: frozen rank %d out of range (k=%d)", r, h.k)
			}
		}
	}
	p := &frozenParts{ranks: ranks, ids: frozenView[uint32](secs[frozenSecIDs], zeroCopy)}
	for _, id := range p.ids {
		if int(id) >= h.distinct {
			return nil, fmt.Errorf("sisap: frozen row ID %d out of range (distinct=%d)", id, h.distinct)
		}
	}
	u, nb, at := frozenView[uint32](secs[frozenSecBuckets], zeroCopy), h.nbuckets, 0
	cut := func(n int) []uint32 { s := u[at : at+n : at+n]; at += n; return s }
	p.pb = &prefixBuckets{ell: h.ell, prefixes: cut(nb * h.ell), rowStarts: cut(nb + 1), rowOrder: cut(h.distinct), ptStarts: cut(nb + 1), ptOrder: cut(int(h.n))}
	// No bound may run below 0 or backwards (a NaN never prunes; buildFrozenIndex).
	p.bounds = frozenView[float64](secs[frozenSecLayout], zeroCopy)
	for i, lo := range p.bounds[:len(p.bounds)/2] {
		if hi := p.bounds[len(p.bounds)/2+i]; lo < 0 || lo > hi {
			return nil, fmt.Errorf("sisap: frozen cell %d's range of site %d is [%v, %v]", i/h.k, i%h.k, lo, hi)
		}
	}
	return p, h.verifyDirectory(p)
}

// frozenParts is what verifySections read: the ranks section, row IDs,
// directory, the cells (verifyDirectory) and their bounds.
type frozenParts struct {
	ranks                        []byte
	ids, cellStarts, bucketCells []uint32
	pb                           *prefixBuckets
	bounds                       []float64
}

// rankAt reads the stored rank of site s in table row r straight from the
// verified ranks section.
func (h *frozenHeader) rankAt(p *frozenParts, r, s int) int {
	if h.rankWidth == 2 {
		return int(binary.LittleEndian.Uint16(p.ranks[2*(r*h.k+s):]))
	}
	return int(p.ranks[r*h.k+s])
}

// verifyDirectory validates the inverted-file directory far beyond memory
// safety, deriving the cells as it goes: the row boundaries must tile the rows,
// rowOrder must be a permutation and — the mis-probe guarantee — every row
// listed under a bucket must carry its prefix (read from the rank matrix). A
// bucket's rows open a cell at each row that does not carry the ℓ'-prefix of
// the row before, as many as the header gives; ptStarts must bound each
// bucket's cells, and ptOrder list each point under its row's cell, ascending.
// A directory that survives this is a correct one, so corruption fails decode
// instead of silently degrading answers. It sets p's cells.
func (h *frozenHeader) verifyDirectory(p *frozenParts) error {
	pb, nb, c := p.pb, h.nbuckets, -1
	for _, s := range pb.prefixes {
		if int(s) >= h.k {
			return fmt.Errorf("sisap: frozen bucket prefix site %d out of range (k=%d)", s, h.k)
		}
	}
	if pb.rowStarts[0] != 0 || int(pb.rowStarts[nb]) != h.distinct || !slices.IsSorted(pb.rowStarts) {
		return fmt.Errorf("sisap: frozen bucket row boundaries do not run from 0 to %d, monotone", h.distinct)
	}
	rowCell, seenRow, pref, cells := make([]uint32, h.distinct), make([]bool, h.distinct), make([]int, h.cellEll), make([]uint32, nb+1)
	for b := range nb {
		cells[b] = uint32(c + 1)
		for i, r := range pb.rowOrder[pb.rowStarts[b]:pb.rowStarts[b+1]] {
			if int(r) >= h.distinct || seenRow[r] {
				return fmt.Errorf("sisap: frozen bucket row list is not a permutation (row %d)", r)
			}
			seenRow[r] = true
			for j, s := range pb.prefix(b) {
				if h.rankAt(p, int(r), int(s)) != j {
					return fmt.Errorf("sisap: frozen table row %d does not carry its bucket's prefix", r)
				}
			}
			same := i > 0
			for m := h.ell; same && m < h.cellEll; m++ {
				same = h.rankAt(p, int(r), pref[m]) == m
			}
			for s := 0; !same && s < h.k; s++ {
				if m := h.rankAt(p, int(r), s); m < h.cellEll {
					pref[m] = s
				}
			}
			if !same {
				c++
			}
			rowCell[r] = uint32(c)
		}
	}
	if cells[nb] = uint32(c + 1); c+1 != h.cells {
		return fmt.Errorf("sisap: frozen rows fall in %d cells, not the %d the header gives", c+1, h.cells)
	}
	starts := make([]uint32, h.cells+1)
	for _, r := range p.ids {
		starts[rowCell[r]+1]++
	}
	for c := range h.cells {
		starts[c+1] += starts[c]
	}
	for b, c := range cells {
		if starts[c] != pb.ptStarts[b] {
			return fmt.Errorf("sisap: frozen bucket %d's point boundary is not its cells'", b)
		}
	}
	// Taken in ID order, every point must sit in the next slot of its row's
	// cell: n points in n slots make ptOrder the permutation cellLayout makes,
	// which lets a frozen open label its points section (buildFrozenIndex).
	next := slices.Clone(starts[:h.cells])
	for pt, row := range p.ids {
		g := rowCell[row]
		j := next[g]
		if next[g]++; j >= starts[g+1] || int(pb.ptOrder[j]) != pt {
			return fmt.Errorf("sisap: frozen point %d is not listed, in ascending order, under its row's cell", pt)
		}
	}
	p.cellStarts, p.bucketCells = starts, cells
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

// WriteFrozen serialises x in the sectioned frozen form (PFR4) of the v2
// container. Unlike WriteIndex's compact payload it has no k ≤ 20 cap, and
// when the database is self-describing (a named metric over equal-dimension
// vectors) the point vectors are embedded, making the file self-contained for
// OpenMapped. It writes x's walk layout — its directory, cells and bounds, and
// the points in cell order — or, before x has bounds, the one x's first query
// makes, made on a twin so that x is left to make its own.
func WriteFrozen(w io.Writer, x *PermIndex) (int64, error) {
	n := uint64(x.db.N())
	if n == 0 || n >= 1<<32 {
		return 0, fmt.Errorf("sisap: cannot freeze an index over %d points", n)
	}
	pb := x.buckets()
	if x.BoundCells() == 0 {
		twin := newPermIndexFromTable(x.db, x.siteIDs, x.dist, x.table, x.tableIDs)
		twin.lb.pb, x = pb, twin
	}
	bb, lb := x.bounds(), x.lb
	if bb == nil { // a store without bounds walks no cells: one a bucket
		lb.cellEll, lb.labels, lb.cellStarts, lb.bucketCells = pb.ell, pb.ptOrder, pb.ptStarts, ascending(pb.numBuckets()+1)
	}
	dims, metricName := frozenPointDims(x.db)
	h := frozenHeader{
		tag:       permFrozenV4Tag,
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
		cellEll:   lb.cellEll,
		cells:     len(lb.cellStarts) - 1,
	}
	if x.table.wide() {
		h.rankWidth = 2
	}
	if bb != nil {
		h.flags = 1
		if bb.offPrefix.Load() {
			h.flags = 3
		}
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
				for _, id := range lb.labels {
					e.f64s(x.db.row(int(id)))
				}
			}
		},
		frozenSecBuckets: func() {
			// Each bucket's rows go by cell, in the order its points do.
			rows, seen := make([]uint32, 0, x.table.rows), make([]bool, x.table.rows)
			for _, id := range lb.labels {
				if r := x.tableIDs[id]; !seen[r] {
					rows, seen[r] = append(rows, r), true
				}
			}
			for _, arr := range [][]uint32{pb.prefixes, pb.rowStarts, rows, pb.ptStarts, lb.labels} {
				e.u32s(arr)
			}
		},
		frozenSecLayout: func() {
			if bb != nil {
				e.f64s(bb.cells.lo)
				e.f64s(bb.cells.hi)
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
// section bytes and the parts verifySections read of them: views into the
// section bytes with zeroCopy, otherwise decoded copies.
//
// Opened without a database, a store walks the file's cells under the bounds
// it carries, or scans them in memory order if it carries none: it sweeps
// nothing. The bounds are trusted input — re-deriving them is the sweep the
// section saves — summed behind the sites and points sections just verified,
// so a section spliced in from another file fails the open; a file forged with
// the chained sum recomputed opens and can answer wrongly. Beside a caller's
// database, which need not be the one they were swept from, the store makes
// its own cells, copy and sweep.
func buildFrozenIndex(h *frozenHeader, metricName string, secs [][]byte, p *frozenParts, db *DB, zeroCopy bool) (*PermIndex, *DB, error) {
	// The verified directory becomes the index's bucket directory directly —
	// views into the mapping on the zero-copy path — so no process ever
	// rebuilds what the file already stores.
	lb, ids, own := &lazyBuckets{pb: p.pb}, p.ids, db == nil
	if !own {
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
		// The points section is the database's coordinate block as stored,
		// the bucket-major rows already, labelled by ptOrder, a permutation
		// (verifyDirectory): point id is row rowOf[id]. On the mapped path no
		// coordinate is copied and no point boxed.
		floats, order := frozenView[float64](secs[frozenSecPoints], zeroCopy), lb.pb.ptOrder
		rowOf := make([]uint32, len(order))
		for j, id := range order {
			rowOf[id] = uint32(j)
		}
		db = &DB{Metric: m, block: floats, dim: h.dims, n: len(order), order: order, rowOf: rowOf}
		lb.rowsOnce.Do(func() {
			lb.rows, lb.labels, lb.cellStarts, lb.bucketCells, lb.cellEll = floats, lb.pb.ptOrder, p.cellStarts, p.bucketCells, h.cellEll
		})
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
	if own { // the file's bounds, or none: nothing sweeps
		if lb.fileBounds = true; idx.newSiteKernel() == nil { // DB.measure's generic loop reads boxed points
			db.Points = db.points(0, db.n)
		}
		lb.boundsOnce.Do(func() {
			if r := p.bounds; len(r) > 0 {
				bb := &bucketBounds{cells: siteRanges{r[:len(r)/2], r[len(r)/2:]}}
				bb.offPrefix.Store(h.flags&2 != 0)
				lb.bounds = idx.finishBounds(bb)
			}
		})
	}
	return idx, db, nil
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
// self-contained containers (embedded points) — the store then walks the
// cells and bounds of the store it was frozen from, with no copy and no
// sweep, and those bounds are trusted input (buildFrozenIndex); otherwise db
// must be the database the index was built on, and the store lays out and
// bounds itself. On platforms without mmap support the same validation runs
// over a heap read of the file.
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
	secs := make([][]byte, frozenNumSecs)
	for i, s := range h.sec {
		secs[i] = data[s.off : s.off+s.length : s.off+s.length]
	}
	p, err := h.verifySections(secs, zeroCopy)
	if err != nil {
		return nil, nil, err
	}
	return buildFrozenIndex(&h, name, secs, p, db, zeroCopy)
}
