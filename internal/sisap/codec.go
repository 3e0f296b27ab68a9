package sisap

import (
	"fmt"
	"io"
	"math"
)

// This file generalises the distance-permutation index's DPERMIDX format
// (serialize.go) into a versioned multi-index container: a common header
// naming the index kind, followed by a kind-specific payload. Every index in
// the family persists through the same two entry points, WriteIndex and
// ReadIndex. The kinds are a closed set — the two switches in enc.index and
// dec.index are the whole registry — and every payload is read and written
// through the cursor pair of cursor.go.
//
// Container format (little-endian):
//
//	magic   [8]byte  "DPERMIDX"
//	version uint32   2 (version 1, a PermIndex-only container with no kind
//	                  field, had no writer left and is rejected)
//	kindLen uint32   length of the kind name
//	kind    []byte   index kind, e.g. "distperm", "vptree"
//	payload …        kind-defined
//
// The database points themselves are never serialised: the index file
// accompanies the data file, and ReadIndex reconstructs against the
// caller-supplied DB without re-running the metric evaluations that built
// the index. A container is exactly its bytes: trailing input is an error.
const (
	codecMagic   = "DPERMIDX"
	codecVersion = 2
	maxKindLen   = 64
)

// WriteIndex serialises x in the v2 container format. It returns the number
// of bytes written.
func WriteIndex(w io.Writer, x Index) (int64, error) {
	buf, err := AppendIndex(nil, x)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// AppendIndex appends x's v2 container to dst.
func AppendIndex(dst []byte, x Index) ([]byte, error) {
	e := enc{b: dst}
	if err := e.index(x); err != nil {
		return dst, err
	}
	return e.b, nil
}

// ReadIndex deserialises an index written by WriteIndex (or WriteFrozen)
// against db, which must be the database the index was built on.
func ReadIndex(r io.Reader, db *DB) (Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sisap: reading container: %w", err)
	}
	return DecodeIndex(data, db)
}

// DecodeIndex is ReadIndex over a container already in memory. The decoded
// index shares nothing with data.
func DecodeIndex(data []byte, db *DB) (Index, error) {
	if db == nil {
		return nil, fmt.Errorf("sisap: decoding a container requires a database")
	}
	return newDec(data).index(db)
}

// header writes the container prefix for kind.
func (e *enc) header(kind string) {
	e.str(codecMagic)
	e.u32(codecVersion)
	e.u32(uint32(len(kind)))
	e.str(kind)
}

// header reads the container prefix and returns the kind it names.
func (d *dec) header() string {
	if magic := d.bytes(uint64(len(codecMagic))); d.err == nil && string(magic) != codecMagic {
		d.fail("bad magic %q", magic)
	}
	if v := d.u32(); d.err == nil && v != codecVersion {
		d.fail("unsupported container version %d (want %d)", v, codecVersion)
	}
	kindLen := d.count("kind length", uint64(d.u32()), 1, maxKindLen)
	return string(d.bytes(uint64(kindLen)))
}

// index appends x's container: the header, then the payload of its kind.
func (e *enc) index(x Index) error {
	e.header(x.Name())
	switch x := x.(type) {
	case *LinearScan:
		e.u64(uint64(x.db.N()))
	case *AESA:
		encodeMatrix(e, x.matrix)
	case *IAESA:
		encodeMatrix(e, x.matrix)
	case *LAESA:
		e.u64(uint64(x.db.N()))
		e.u32(uint32(len(x.pivots)))
		e.ids(x.pivots)
		for _, row := range x.table {
			e.f64s(row)
		}
	case *PermIndex:
		return x.encodePayload(e)
	case *VPTree:
		e.u64(uint64(x.db.N()))
		encodeVPNode(e, x.root)
	case *GHTree:
		e.u64(uint64(x.db.N()))
		encodeGHNode(e, x.root)
	case *ShardedIndex:
		return encodeSharded(e, x)
	case *MutableIndex:
		return encodeMutable(e, x)
	default:
		return fmt.Errorf("sisap: no codec for index kind %q (%T)", x.Name(), x)
	}
	return nil
}

// index decodes one whole container — d must hold nothing else — against db.
func (d *dec) index(db *DB) (Index, error) {
	kind := d.header()
	if d.err != nil {
		return nil, d.err
	}
	var x Index
	var err error
	switch kind {
	case "linear":
		checkN(d, db)
		x = NewLinearScan(db)
	case "aesa":
		x = &AESA{db: db, matrix: decodeMatrix(d, db)}
	case "iaesa":
		x = &IAESA{db: db, matrix: decodeMatrix(d, db)}
	case "laesa":
		x = decodeLAESA(d, db)
	case "distperm":
		x, err = decodePermPayload(d, db)
	case "vptree":
		checkN(d, db)
		t := &VPTree{db: db}
		t.root = decodeVPNode(d, db.N(), &t.size)
		x = t
	case "ghtree":
		checkN(d, db)
		t := &GHTree{db: db}
		t.root = decodeGHNode(d, db.N(), &t.size)
		x = t
	case "sharded":
		x, err = decodeSharded(d, db)
	case "mutable":
		x, err = decodeMutable(d, db)
	default:
		return nil, fmt.Errorf("sisap: no codec for index kind %q", kind)
	}
	if d.err != nil {
		err = d.err
	}
	if err == nil && len(d.b) != 0 {
		err = fmt.Errorf("sisap: %d trailing bytes after the %s payload", len(d.b), kind)
	}
	if err != nil {
		return nil, err
	}
	return x, nil
}

// checkN reads the point count stored at the front of every payload and
// verifies it matches the database the caller supplied.
func checkN(d *dec, db *DB) {
	if n := d.u64(); d.err == nil && n != uint64(db.N()) {
		d.fail("index has %d points, database has %d", n, db.N())
	}
}

// --- aesa / iaesa ---

// encodeMatrix writes the strict upper triangle of the n×n distance matrix
// shared by AESA and IAESA: n(n−1)/2 float64s, halving the on-disk
// footprint relative to the in-memory representation.
func encodeMatrix(e *enc, matrix [][]float64) {
	e.u64(uint64(len(matrix)))
	for i, row := range matrix {
		e.f64s(row[i+1:])
	}
}

func decodeMatrix(d *dec, db *DB) [][]float64 {
	checkN(d, db)
	n := db.N()
	// The whole triangle is claimed from the input before the n×n matrix is
	// allocated, so a short file costs nothing.
	tri := newDec(d.bytes(8 * uint64(n) * uint64(n-1) / 2))
	if d.err != nil {
		return nil
	}
	matrix := make([][]float64, n)
	for i := range matrix {
		matrix[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := tri.f64()
			if math.IsNaN(v) || v < 0 {
				d.fail("corrupt matrix entry (%d,%d) = %v", i, j, v)
				return nil
			}
			matrix[i][j], matrix[j][i] = v, v
		}
	}
	return matrix
}

// --- laesa ---

func decodeLAESA(d *dec, db *DB) *LAESA {
	checkN(d, db)
	n := db.N()
	m := d.count("pivot count", uint64(d.u32()), 1, n)
	l := &LAESA{db: db, pivots: d.ids("pivot ID", m, n), table: make([][]float64, m)}
	for p := range l.table {
		l.table[p] = d.f64s(n)
	}
	return l
}

// --- vptree / ghtree ---

// Tree payloads store a preorder walk. Each node is a flags byte (bit 0:
// inside/left child present, bit 1: outside/right child present) followed by
// the node fields; children follow recursively. Reconstruction therefore
// costs zero metric evaluations, unlike rebuilding the tree.

// nodeFlags encodes which children follow a tree node.
func nodeFlags(first, second bool) (flags uint8) {
	if first {
		flags |= 1
	}
	if second {
		flags |= 2
	}
	return flags
}

// treeNode reads a node's flags byte, having counted the node against the n
// a tree over n points can hold (which also bounds the recursion).
func (d *dec) treeNode(kind string, n int, size *int64) (flags uint8) {
	if *size >= int64(n) {
		d.fail("%s has more than %d nodes", kind, n)
	}
	*size++
	if flags = d.u8(); flags > 3 {
		d.fail("corrupt %s node flags %#x", kind, flags)
	}
	return flags
}

func encodeVPNode(e *enc, n *vpNode) {
	e.u8(nodeFlags(n.inside != nil, n.outside != nil))
	e.u64(uint64(n.id))
	e.f64(n.median)
	if n.inside != nil {
		encodeVPNode(e, n.inside)
	}
	if n.outside != nil {
		encodeVPNode(e, n.outside)
	}
}

func decodeVPNode(d *dec, n int, size *int64) *vpNode {
	flags := d.treeNode("vptree", n, size)
	node := &vpNode{id: d.id("vptree vantage point", n), median: d.f64()}
	if d.err != nil {
		return nil
	}
	if flags&1 != 0 {
		node.inside = decodeVPNode(d, n, size)
	}
	if flags&2 != 0 {
		node.outside = decodeVPNode(d, n, size)
	}
	return node
}

func encodeGHNode(e *enc, n *ghNode) {
	e.u8(nodeFlags(n.left != nil, n.right != nil))
	e.u64(uint64(n.a))
	e.u64(uint64(int64(n.b)))
	if n.left != nil {
		encodeGHNode(e, n.left)
	}
	if n.right != nil {
		encodeGHNode(e, n.right)
	}
}

func decodeGHNode(d *dec, n int, size *int64) *ghNode {
	flags := d.treeNode("ghtree", n, size)
	node := &ghNode{a: d.id("ghtree pivot", n), b: -1}
	// The second pivot is an int64 on disk: −1 marks a single-point node.
	if b := d.u64(); b != math.MaxUint64 {
		node.b = d.count("ghtree pivot", b, 0, n-1)
	}
	if d.err != nil {
		return nil
	}
	if flags&1 != 0 {
		node.left = decodeGHNode(d, n, size)
	}
	if flags&2 != 0 {
		node.right = decodeGHNode(d, n, size)
	}
	return node
}
