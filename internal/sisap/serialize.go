package sisap

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"distperm/internal/perm"
)

// Serialization of the distance-permutation index. Two payload formats are
// live, distinguished by the first uint32 of the payload (both travel inside
// the DPERMIDX container of codec.go, kind "distperm"):
//
//   - table (permTableTag, "PTBL"): the paper's §4 table encoding on disk.
//     The distinct occurring permutations are stored once each (bit-packed
//     Lehmer ranks) and every point stores only a table index of
//     ⌈lg(#distinct)⌉ bits. Containers shrink by the Corollary 8 margin
//     whenever distinct ≪ k!, and ReadIndex decodes #distinct permutations
//     instead of n, scattering the IDs straight into the in-memory table
//     encoding. This bit-packed form is the compact wire format WriteIndex
//     emits.
//   - frozen (permFrozenV2Tag, "PFR2", frozen.go): the table encoding laid
//     out raw in 64-byte-aligned checksummed sections so OpenMapped can
//     serve the file zero-copy out of the page cache; ReadIndex also
//     stream-decodes it. Written by WriteFrozen.
//
// Earlier generations — the per-point payload whose first uint32 was k
// itself, the standalone version-1 container, and the four-section "PFRZ"
// frozen revision — had no writer left and are rejected with an error.
//
// The database points themselves are never serialised — like the SISAP
// library, the index file accompanies the data file.
//
// Table payload format (little-endian):
//
//	tag      uint32   permTableTag
//	k        uint32   number of sites
//	n        uint64   number of points
//	dist     uint32   PermDistance
//	sites    k × uint64   database IDs of the sites
//	distinct uint32   number of distinct permutations (1 ≤ distinct ≤ n)
//	table    ceil(distinct·⌈lg k!⌉ / 64) × uint64   packed Lehmer ranks
//	ids      ceil(n·⌈lg distinct⌉ / 64) × uint64    packed table indexes
//
// permTableTag is "PTBL" read little-endian.
const permTableTag = 0x4C425450

// encodePayload writes the header-less table-format index body.
func (x *PermIndex) encodePayload(w io.Writer) error {
	// The packed encoding stores Lehmer ranks in a uint64, so the on-disk
	// format (like its decoder) caps k at 20; an in-memory index above that
	// is usable but not serialisable.
	if x.K() > 20 {
		return fmt.Errorf("sisap: cannot serialise distperm index with k=%d sites (format limit 20)", x.K())
	}
	put := func(v interface{}) error { return binary.Write(w, binary.LittleEndian, v) }
	for _, v := range []interface{}{
		uint32(permTableTag), uint32(x.K()), uint64(x.db.N()), uint32(x.dist),
	} {
		if err := put(v); err != nil {
			return err
		}
	}
	for _, id := range x.siteIDs {
		if err := put(uint64(id)); err != nil {
			return err
		}
	}
	distinct := x.table.rows
	if err := put(uint32(distinct)); err != nil {
		return err
	}
	// The distinct-permutation table, as forward-permutation Lehmer ranks.
	packed := perm.NewPackedArray(x.K())
	for r := 0; r < distinct; r++ {
		packed.Append(x.table.invAt(r).Inverse())
	}
	for _, w64 := range packWords(packed) {
		if err := put(w64); err != nil {
			return err
		}
	}
	// The per-point table indexes at ⌈lg distinct⌉ bits each.
	idWidth := tableIDBits(distinct)
	for _, w64 := range packUint32s(x.tableIDs, idWidth) {
		if err := put(w64); err != nil {
			return err
		}
	}
	return nil
}

// tableIDBits returns ⌈lg distinct⌉, the per-point index width of the table
// encoding (0 when a single permutation covers the whole database).
func tableIDBits(distinct int) uint {
	return uint(bits.Len(uint(distinct - 1)))
}

// packWords re-encodes a PackedArray's payload deterministically. It exists
// so the on-disk format is defined by this file alone (bit width ⌈lg k!⌉,
// little-endian 64-bit words, LSB-first within a word) rather than by the
// PackedArray internals.
func packWords(a *perm.PackedArray) []uint64 {
	w := uint64(a.BitsPerElement())
	if w == 0 {
		return nil
	}
	totalBits := uint64(a.Len()) * w
	words := make([]uint64, (totalBits+63)/64)
	for i := 0; i < a.Len(); i++ {
		putBits(words, uint64(i)*w, w, a.Rank64At(i))
	}
	return words
}

// packUint32s packs vals at width bits each into LSB-first little-endian
// words, the same layout packWords uses.
func packUint32s(vals []uint32, width uint) []uint64 {
	if width == 0 {
		return nil
	}
	w := uint64(width)
	totalBits := uint64(len(vals)) * w
	words := make([]uint64, (totalBits+63)/64)
	for i, v := range vals {
		putBits(words, uint64(i)*w, w, uint64(v))
	}
	return words
}

func putBits(words []uint64, bitPos, width, v uint64) {
	word := bitPos / 64
	off := bitPos % 64
	words[word] |= v << off
	if off+width > 64 {
		words[word+1] |= v >> (64 - off)
	}
}

func getBits(words []uint64, bitPos, width uint64) uint64 {
	word := bitPos / 64
	off := bitPos % 64
	v := words[word] >> off
	if off+width > 64 {
		v |= words[word+1] << (64 - off)
	}
	return v & (uint64(1)<<width - 1)
}

// decodePermPayload reads a header-less index body — table or frozen,
// self-described by the first uint32 — and reconstructs the index against
// db.
func decodePermPayload(br io.Reader, db *DB) (*PermIndex, error) {
	var tag uint32
	if err := binary.Read(br, binary.LittleEndian, &tag); err != nil {
		return nil, err
	}
	switch tag {
	case permTableTag:
		return decodeTablePayload(br, db)
	case permFrozenV2Tag:
		return decodeFrozenStream(br, db)
	}
	return nil, fmt.Errorf("sisap: unsupported distperm payload tag %#08x (want PTBL or PFR2; the per-point and PFRZ payloads are no longer read)", tag)
}

// readPermHeader reads the table payload's n/dist/sites fields (k has
// already been consumed and validated).
func readPermHeader(br io.Reader, db *DB, k uint32) (dist uint32, n uint64, siteIDs []int, err error) {
	if err = binary.Read(br, binary.LittleEndian, &n); err != nil {
		return
	}
	if err = binary.Read(br, binary.LittleEndian, &dist); err != nil {
		return
	}
	if int(n) != db.N() {
		err = fmt.Errorf("sisap: index has %d points, database has %d", n, db.N())
		return
	}
	siteIDs = make([]int, k)
	for i := range siteIDs {
		var id uint64
		if err = binary.Read(br, binary.LittleEndian, &id); err != nil {
			return
		}
		if id >= n {
			err = fmt.Errorf("sisap: site ID %d out of range", id)
			return
		}
		siteIDs[i] = int(id)
	}
	return
}

// readWords reads the packed bit vector covering count elements of the
// given width. The callers derive count and width from db-validated
// header fields; the explicit bounds here keep a corrupt header that
// slips past them an error rather than an overflowed allocation.
func readWords(br io.Reader, count, width uint64) ([]uint64, error) {
	if width > 64 {
		return nil, fmt.Errorf("sisap: packed element width %d out of range", width)
	}
	if width != 0 && count > (1<<40)/width {
		return nil, fmt.Errorf("sisap: packed section of %d×%d-bit elements out of range", count, width)
	}
	words := make([]uint64, (count*width+63)/64)
	for i := range words {
		if err := binary.Read(br, binary.LittleEndian, &words[i]); err != nil {
			return nil, err
		}
	}
	return words, nil
}

// decodeTablePayload reads the table-encoded body: the distinct
// permutations are decoded once each into a rankTable and the per-point
// table IDs are scattered — O(distinct·k + n), not O(n·k).
func decodeTablePayload(br io.Reader, db *DB) (*PermIndex, error) {
	var k uint32
	if err := binary.Read(br, binary.LittleEndian, &k); err != nil {
		return nil, err
	}
	if k == 0 || k > 20 {
		return nil, fmt.Errorf("sisap: k=%d out of range", k)
	}
	dist, n, siteIDs, err := readPermHeader(br, db, k)
	if err != nil {
		return nil, err
	}
	var distinct uint32
	if err := binary.Read(br, binary.LittleEndian, &distinct); err != nil {
		return nil, err
	}
	if distinct == 0 || uint64(distinct) > n {
		return nil, fmt.Errorf("sisap: distinct count %d out of range 1..%d", distinct, n)
	}
	permWidth := uint64(perm.NewPackedArray(int(k)).BitsPerElement())
	permWords, err := readWords(br, uint64(distinct), permWidth)
	if err != nil {
		return nil, err
	}
	table := newRankTable(int(k))
	maxRank := rankLimit(int(k))
	seen := make(map[uint64]bool, distinct)
	for r := uint64(0); r < uint64(distinct); r++ {
		var rank uint64
		if permWidth > 0 {
			rank = getBits(permWords, r*permWidth, permWidth)
		}
		if rank >= maxRank {
			return nil, fmt.Errorf("sisap: corrupt permutation rank %d in table row %d", rank, r)
		}
		if seen[rank] {
			return nil, fmt.Errorf("sisap: duplicate permutation in table row %d", r)
		}
		seen[rank] = true
		table.appendInverseOf(perm.Unrank64(int(k), rank))
	}
	idWidth := uint64(tableIDBits(int(distinct)))
	idWords, err := readWords(br, n, idWidth)
	if err != nil {
		return nil, err
	}
	ids := make([]uint32, n)
	for i := uint64(0); i < n; i++ {
		var id uint64
		if idWidth > 0 {
			id = getBits(idWords, i*idWidth, idWidth)
		}
		if id >= uint64(distinct) {
			return nil, fmt.Errorf("sisap: table index %d out of range at point %d", id, i)
		}
		ids[i] = uint32(id)
	}
	return newPermIndexFromTable(db, siteIDs, PermDistance(dist), table, ids), nil
}

func rankLimit(k int) uint64 {
	limit := uint64(1)
	for i := 2; i <= k; i++ {
		limit *= uint64(i)
	}
	return limit
}
