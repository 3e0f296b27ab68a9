package sisap

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// This file generalises the distance-permutation index's DPERMIDX format
// (serialize.go) into a versioned multi-index container: a common header
// naming the index kind, followed by a kind-specific payload supplied by a
// registered Codec. Every index in the family gains persistence through the
// same two entry points, WriteIndex and ReadIndex, and new index types join
// by calling RegisterCodec — the same extension seam the Build registry in
// pkg/distperm uses for construction.
//
// Container format (little-endian):
//
//	magic   [8]byte  "DPERMIDX"
//	version uint32   2 (version 1, a PermIndex-only container with no kind
//	                  field, had no writer left and is rejected)
//	kindLen uint32   length of the kind name
//	kind    []byte   codec kind, e.g. "distperm", "vptree"
//	payload …        codec-defined
//
// The database points themselves are never serialised: the index file
// accompanies the data file, and ReadIndex reconstructs against the
// caller-supplied DB without re-running the metric evaluations that built
// the index.
const (
	codecMagic   = "DPERMIDX"
	codecVersion = 2
	maxKindLen   = 64
)

// Codec serialises and deserialises one index kind.
type Codec struct {
	// Kind is the registry key; it must equal the Name() of the indexes the
	// codec handles so WriteIndex can dispatch on the index itself.
	Kind string
	// Encode writes the index payload (no container header).
	Encode func(w io.Writer, x Index) error
	// Decode reads the payload back and reconstructs the index against db.
	Decode func(r io.Reader, db *DB) (Index, error)
}

var (
	codecsMu sync.RWMutex
	codecs   = map[string]Codec{}
)

// RegisterCodec adds a codec to the registry. It panics on a duplicate or
// incomplete registration — misregistration is a programming error.
func RegisterCodec(c Codec) {
	if c.Kind == "" || len(c.Kind) > maxKindLen || c.Encode == nil || c.Decode == nil {
		panic("sisap: RegisterCodec requires a kind (≤64 bytes), an Encode, and a Decode")
	}
	codecsMu.Lock()
	defer codecsMu.Unlock()
	if _, dup := codecs[c.Kind]; dup {
		panic(fmt.Sprintf("sisap: codec %q registered twice", c.Kind))
	}
	codecs[c.Kind] = c
}

// Codecs returns the registered kinds, sorted.
func Codecs() []string {
	codecsMu.RLock()
	defer codecsMu.RUnlock()
	kinds := make([]string, 0, len(codecs))
	for k := range codecs {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

func lookupCodec(kind string) (Codec, bool) {
	codecsMu.RLock()
	defer codecsMu.RUnlock()
	c, ok := codecs[kind]
	return c, ok
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// WriteIndex serialises x in the v2 container format, dispatching to the
// codec registered under x.Name(). It returns the number of bytes written.
func WriteIndex(w io.Writer, x Index) (int64, error) {
	c, ok := lookupCodec(x.Name())
	if !ok {
		return 0, fmt.Errorf("sisap: no codec registered for index kind %q", x.Name())
	}
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}
	if _, err := io.WriteString(cw, codecMagic); err != nil {
		return cw.n, err
	}
	if err := binary.Write(cw, binary.LittleEndian, uint32(codecVersion)); err != nil {
		return cw.n, err
	}
	if err := binary.Write(cw, binary.LittleEndian, uint32(len(c.Kind))); err != nil {
		return cw.n, err
	}
	if _, err := io.WriteString(cw, c.Kind); err != nil {
		return cw.n, err
	}
	if err := c.Encode(cw, x); err != nil {
		return cw.n, err
	}
	return cw.n, bw.Flush()
}

// ReadIndex deserialises an index written by WriteIndex against db (which
// must be the same database the index was built on).
func ReadIndex(r io.Reader, db *DB) (Index, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(codecMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("sisap: reading magic: %w", err)
	}
	if string(magic) != codecMagic {
		return nil, fmt.Errorf("sisap: bad magic %q", magic)
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("sisap: reading version: %w", err)
	}
	if version != codecVersion {
		return nil, fmt.Errorf("sisap: unsupported container version %d (want %d)", version, codecVersion)
	}
	var kindLen uint32
	if err := binary.Read(br, binary.LittleEndian, &kindLen); err != nil {
		return nil, fmt.Errorf("sisap: reading kind length: %w", err)
	}
	if kindLen == 0 || kindLen > maxKindLen {
		return nil, fmt.Errorf("sisap: kind length %d out of range", kindLen)
	}
	kind := make([]byte, kindLen)
	if _, err := io.ReadFull(br, kind); err != nil {
		return nil, fmt.Errorf("sisap: reading kind: %w", err)
	}
	c, ok := lookupCodec(string(kind))
	if !ok {
		return nil, fmt.Errorf("sisap: no codec registered for index kind %q", kind)
	}
	return c.Decode(br, db)
}

func init() {
	RegisterCodec(Codec{Kind: "linear", Encode: encodeLinear, Decode: decodeLinear})
	RegisterCodec(Codec{Kind: "aesa", Encode: encodeMatrixIndex, Decode: decodeAESA})
	RegisterCodec(Codec{Kind: "iaesa", Encode: encodeMatrixIndex, Decode: decodeIAESA})
	RegisterCodec(Codec{Kind: "laesa", Encode: encodeLAESA, Decode: decodeLAESA})
	RegisterCodec(Codec{Kind: "distperm", Encode: encodeDistperm, Decode: decodeDistperm})
	RegisterCodec(Codec{Kind: "vptree", Encode: encodeVPTree, Decode: decodeVPTree})
	RegisterCodec(Codec{Kind: "ghtree", Encode: encodeGHTree, Decode: decodeGHTree})
}

// checkN reads the point count stored at the front of every payload and
// verifies it matches the database the caller supplied.
func checkN(r io.Reader, db *DB) error {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return fmt.Errorf("sisap: reading point count: %w", err)
	}
	if int(n) != db.N() {
		return fmt.Errorf("sisap: index has %d points, database has %d", n, db.N())
	}
	return nil
}

// --- linear ---

func encodeLinear(w io.Writer, x Index) error {
	s, ok := x.(*LinearScan)
	if !ok {
		return fmt.Errorf("sisap: linear codec given %T", x)
	}
	return binary.Write(w, binary.LittleEndian, uint64(s.db.N()))
}

func decodeLinear(r io.Reader, db *DB) (Index, error) {
	if err := checkN(r, db); err != nil {
		return nil, err
	}
	return NewLinearScan(db), nil
}

// --- aesa / iaesa ---

// encodeMatrixIndex writes the strict upper triangle of the n×n distance
// matrix shared by AESA and IAESA: n(n−1)/2 float64s, halving the on-disk
// footprint relative to the in-memory representation.
func encodeMatrixIndex(w io.Writer, x Index) error {
	var matrix [][]float64
	switch idx := x.(type) {
	case *AESA:
		matrix = idx.matrix
	case *IAESA:
		matrix = idx.matrix
	default:
		return fmt.Errorf("sisap: matrix codec given %T", x)
	}
	n := len(matrix)
	if err := binary.Write(w, binary.LittleEndian, uint64(n)); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := binary.Write(w, binary.LittleEndian, matrix[i][i+1:]); err != nil {
			return err
		}
	}
	return nil
}

func decodeMatrix(r io.Reader, db *DB) ([][]float64, error) {
	if err := checkN(r, db); err != nil {
		return nil, err
	}
	n := db.N()
	matrix := make([][]float64, n)
	for i := range matrix {
		matrix[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		row := matrix[i][i+1:]
		if err := binary.Read(r, binary.LittleEndian, row); err != nil {
			return nil, fmt.Errorf("sisap: reading matrix row %d: %w", i, err)
		}
		for j := i + 1; j < n; j++ {
			d := matrix[i][j]
			if math.IsNaN(d) || d < 0 {
				return nil, fmt.Errorf("sisap: corrupt matrix entry (%d,%d) = %v", i, j, d)
			}
			matrix[j][i] = d
		}
	}
	return matrix, nil
}

func decodeAESA(r io.Reader, db *DB) (Index, error) {
	m, err := decodeMatrix(r, db)
	if err != nil {
		return nil, err
	}
	return &AESA{db: db, matrix: m}, nil
}

func decodeIAESA(r io.Reader, db *DB) (Index, error) {
	m, err := decodeMatrix(r, db)
	if err != nil {
		return nil, err
	}
	return &IAESA{db: db, matrix: m}, nil
}

// --- laesa ---

func encodeLAESA(w io.Writer, x Index) error {
	l, ok := x.(*LAESA)
	if !ok {
		return fmt.Errorf("sisap: laesa codec given %T", x)
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(l.db.N())); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(l.pivots))); err != nil {
		return err
	}
	for _, id := range l.pivots {
		if err := binary.Write(w, binary.LittleEndian, uint64(id)); err != nil {
			return err
		}
	}
	for _, row := range l.table {
		if err := binary.Write(w, binary.LittleEndian, row); err != nil {
			return err
		}
	}
	return nil
}

func decodeLAESA(r io.Reader, db *DB) (Index, error) {
	if err := checkN(r, db); err != nil {
		return nil, err
	}
	var m uint32
	if err := binary.Read(r, binary.LittleEndian, &m); err != nil {
		return nil, fmt.Errorf("sisap: reading pivot count: %w", err)
	}
	if m == 0 || int(m) > db.N() {
		return nil, fmt.Errorf("sisap: pivot count %d out of range 1..%d", m, db.N())
	}
	pivots := make([]int, m)
	for i := range pivots {
		var id uint64
		if err := binary.Read(r, binary.LittleEndian, &id); err != nil {
			return nil, fmt.Errorf("sisap: reading pivot %d: %w", i, err)
		}
		if int(id) >= db.N() {
			return nil, fmt.Errorf("sisap: pivot ID %d out of range", id)
		}
		pivots[i] = int(id)
	}
	table := make([][]float64, m)
	for p := range table {
		row := make([]float64, db.N())
		if err := binary.Read(r, binary.LittleEndian, row); err != nil {
			return nil, fmt.Errorf("sisap: reading pivot table row %d: %w", p, err)
		}
		table[p] = row
	}
	return &LAESA{db: db, pivots: pivots, table: table}, nil
}

// --- distperm ---

func encodeDistperm(w io.Writer, x Index) error {
	p, ok := x.(*PermIndex)
	if !ok {
		return fmt.Errorf("sisap: distperm codec given %T", x)
	}
	return p.encodePayload(w)
}

func decodeDistperm(r io.Reader, db *DB) (Index, error) {
	return decodePermPayload(r, db)
}

// --- vptree ---

// Tree payloads store a preorder walk. Each node is a flags byte (bit 0:
// inside/left child present, bit 1: outside/right child present) followed by
// the node fields; children follow recursively. Reconstruction therefore
// costs zero metric evaluations, unlike rebuilding the tree.

func encodeVPTree(w io.Writer, x Index) error {
	t, ok := x.(*VPTree)
	if !ok {
		return fmt.Errorf("sisap: vptree codec given %T", x)
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(t.db.N())); err != nil {
		return err
	}
	return encodeVPNode(w, t.root)
}

func encodeVPNode(w io.Writer, n *vpNode) error {
	var flags byte
	if n.inside != nil {
		flags |= 1
	}
	if n.outside != nil {
		flags |= 2
	}
	if err := binary.Write(w, binary.LittleEndian, flags); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(n.id)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, n.median); err != nil {
		return err
	}
	if n.inside != nil {
		if err := encodeVPNode(w, n.inside); err != nil {
			return err
		}
	}
	if n.outside != nil {
		return encodeVPNode(w, n.outside)
	}
	return nil
}

func decodeVPTree(r io.Reader, db *DB) (Index, error) {
	if err := checkN(r, db); err != nil {
		return nil, err
	}
	t := &VPTree{db: db}
	root, err := decodeVPNode(r, db.N(), &t.size)
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

func decodeVPNode(r io.Reader, n int, size *int64) (*vpNode, error) {
	if *size >= int64(n) {
		return nil, fmt.Errorf("sisap: vptree has more than %d nodes", n)
	}
	*size++
	var flags byte
	if err := binary.Read(r, binary.LittleEndian, &flags); err != nil {
		return nil, fmt.Errorf("sisap: reading vptree node: %w", err)
	}
	if flags > 3 {
		return nil, fmt.Errorf("sisap: corrupt vptree node flags %#x", flags)
	}
	var id uint64
	if err := binary.Read(r, binary.LittleEndian, &id); err != nil {
		return nil, fmt.Errorf("sisap: reading vptree node: %w", err)
	}
	if int(id) >= n {
		return nil, fmt.Errorf("sisap: vptree vantage point %d out of range", id)
	}
	node := &vpNode{id: int(id)}
	if err := binary.Read(r, binary.LittleEndian, &node.median); err != nil {
		return nil, fmt.Errorf("sisap: reading vptree node: %w", err)
	}
	var err error
	if flags&1 != 0 {
		if node.inside, err = decodeVPNode(r, n, size); err != nil {
			return nil, err
		}
	}
	if flags&2 != 0 {
		if node.outside, err = decodeVPNode(r, n, size); err != nil {
			return nil, err
		}
	}
	return node, nil
}

// --- ghtree ---

func encodeGHTree(w io.Writer, x Index) error {
	t, ok := x.(*GHTree)
	if !ok {
		return fmt.Errorf("sisap: ghtree codec given %T", x)
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(t.db.N())); err != nil {
		return err
	}
	return encodeGHNode(w, t.root)
}

func encodeGHNode(w io.Writer, n *ghNode) error {
	var flags byte
	if n.left != nil {
		flags |= 1
	}
	if n.right != nil {
		flags |= 2
	}
	if err := binary.Write(w, binary.LittleEndian, flags); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(n.a)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, int64(n.b)); err != nil {
		return err
	}
	if n.left != nil {
		if err := encodeGHNode(w, n.left); err != nil {
			return err
		}
	}
	if n.right != nil {
		return encodeGHNode(w, n.right)
	}
	return nil
}

func decodeGHTree(r io.Reader, db *DB) (Index, error) {
	if err := checkN(r, db); err != nil {
		return nil, err
	}
	t := &GHTree{db: db}
	root, err := decodeGHNode(r, db.N(), &t.size)
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

func decodeGHNode(r io.Reader, n int, size *int64) (*ghNode, error) {
	if *size >= int64(n) {
		return nil, fmt.Errorf("sisap: ghtree has more than %d nodes", n)
	}
	*size++
	var flags byte
	if err := binary.Read(r, binary.LittleEndian, &flags); err != nil {
		return nil, fmt.Errorf("sisap: reading ghtree node: %w", err)
	}
	if flags > 3 {
		return nil, fmt.Errorf("sisap: corrupt ghtree node flags %#x", flags)
	}
	var a uint64
	var b int64
	if err := binary.Read(r, binary.LittleEndian, &a); err != nil {
		return nil, fmt.Errorf("sisap: reading ghtree node: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &b); err != nil {
		return nil, fmt.Errorf("sisap: reading ghtree node: %w", err)
	}
	if int(a) >= n || b >= int64(n) || b < -1 {
		return nil, fmt.Errorf("sisap: ghtree pivot (%d,%d) out of range", a, b)
	}
	node := &ghNode{a: int(a), b: int(b)}
	var err error
	if flags&1 != 0 {
		if node.left, err = decodeGHNode(r, n, size); err != nil {
			return nil, err
		}
	}
	if flags&2 != 0 {
		if node.right, err = decodeGHNode(r, n, size); err != nil {
			return nil, err
		}
	}
	return node, nil
}
