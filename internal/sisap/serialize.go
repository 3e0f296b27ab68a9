package sisap

import (
	"fmt"
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
//   - frozen (permFrozenV4Tag, "PFR4"; frozen.go): the table encoding laid
//     out raw in 64-byte-aligned checksummed sections so OpenMapped can
//     serve the file zero-copy out of the page cache; ReadIndex decodes the
//     same image onto the heap. Written by WriteFrozen.
//
// Earlier generations — the per-point payload whose first uint32 was k
// itself, the standalone version-1 container, and the "PFRZ", "PFR2" and
// "PFR3" frozen revisions — had no writer left and are rejected with an
// error, PFR2 and PFR3 by name (retiredFrozen).
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

// maxPackedSites is the table payload's site limit: a Lehmer rank is packed
// into one uint64, and 20! is the largest factorial below 2^64. An in-memory
// index above it is usable but not serialisable in this form (the frozen
// form stores ranks raw and has no such cap).
const maxPackedSites = 20

// CheckPackedSites reports whether a distance-permutation index with k sites
// fits the table payload. The encoder, Serialisable and the WAL's boot check
// all state the limit through it.
func CheckPackedSites(k int) error {
	if k > maxPackedSites {
		return fmt.Errorf("sisap: cannot serialise distperm index with k=%d sites (format limit %d)", k, maxPackedSites)
	}
	return nil
}

// Serialisable reports, from x's structure alone — nothing is encoded —
// whether WriteIndex can serialise it: every distance-permutation index in
// it, however deeply sharded and mutable containers nest it, must pass
// CheckPackedSites.
func Serialisable(x Index) error {
	switch x := x.(type) {
	case *PermIndex:
		return CheckPackedSites(x.K())
	case *ShardedIndex:
		for _, idx := range x.shards {
			if err := Serialisable(idx); err != nil {
				return err
			}
		}
	case *MutableIndex:
		return Serialisable(x.base)
	}
	return nil
}

// encodePayload writes the header-less table-format index body.
func (x *PermIndex) encodePayload(e *enc) error {
	if err := CheckPackedSites(x.K()); err != nil {
		return err
	}
	e.u32(permTableTag)
	e.u32(uint32(x.K()))
	e.u64(uint64(x.db.N()))
	e.u32(uint32(x.dist))
	e.ids(x.siteIDs)
	distinct := x.table.rows
	e.u32(uint32(distinct))
	// The distinct-permutation table, as forward-permutation Lehmer ranks.
	packed := perm.NewPackedArray(x.K())
	for r := 0; r < distinct; r++ {
		packed.Append(x.table.invAt(r).Inverse())
	}
	e.u64s(packWords(packed))
	// The per-point table indexes at ⌈lg distinct⌉ bits each.
	e.u64s(packUint32s(x.tableIDs, tableIDBits(distinct)))
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
func decodePermPayload(d *dec, db *DB) (*PermIndex, error) {
	switch tag := d.u32(); {
	case d.err != nil:
		return nil, d.err
	case tag == permTableTag:
		return decodeTablePayload(d, db)
	case tag == permFrozenV4Tag || retiredFrozen(tag):
		// A frozen container is a file image — its section offsets are
		// absolute — so it is validated and decoded whole, by the code that
		// opens a mapping, which refuses a retired revision by name.
		idx, _, err := openFrozenBytes(d.all, db, false)
		d.b = nil
		return idx, err
	default:
		return nil, fmt.Errorf("sisap: unsupported distperm payload tag %#08x (want PTBL or PFR4; the per-point and PFRZ payloads are no longer read)", tag)
	}
}

// packedWords reads the packed bit vector covering count elements of the
// given width.
func (d *dec) packedWords(count, width uint64) []uint64 {
	return d.u64s((count*width + 63) / 64)
}

// decodeTablePayload reads the table-encoded body: the distinct
// permutations are decoded once each into a rankTable and the per-point
// table IDs are scattered — O(distinct·k + n), not O(n·k).
func decodeTablePayload(d *dec, db *DB) (*PermIndex, error) {
	k := d.count("k", uint64(d.u32()), 1, maxPackedSites)
	checkN(d, db)
	n := db.N()
	dist := PermDistance(d.count("permutation distance", uint64(d.u32()), int(Footrule), int(SpearmanRho)))
	siteIDs := d.ids("site ID", k, n)
	distinct := d.count("distinct count", uint64(d.u32()), 1, n)
	if d.err != nil {
		return nil, d.err
	}
	permWidth := uint64(perm.NewPackedArray(k).BitsPerElement())
	permWords := d.packedWords(uint64(distinct), permWidth)
	idWidth := uint64(tableIDBits(distinct))
	idWords := d.packedWords(uint64(n), idWidth)
	if d.err != nil {
		return nil, d.err
	}
	table := newRankTable(k)
	maxRank := rankLimit(k)
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
		table.appendInverseOf(perm.Unrank64(k, rank))
	}
	ids := make([]uint32, n)
	for i := range ids {
		var id uint64
		if idWidth > 0 {
			id = getBits(idWords, uint64(i)*idWidth, idWidth)
		}
		if id >= uint64(distinct) {
			return nil, fmt.Errorf("sisap: table index %d out of range at point %d", id, i)
		}
		ids[i] = uint32(id)
	}
	return newPermIndexFromTable(db, siteIDs, dist, table, ids), nil
}

func rankLimit(k int) uint64 {
	limit := uint64(1)
	for i := 2; i <= k; i++ {
		limit *= uint64(i)
	}
	return limit
}
