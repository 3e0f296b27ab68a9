package sisap

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"distperm/internal/metric"
)

// MutableIndex is one immutable state of a live-mutated store: a base index
// over its base points, a delta of unindexed points answered by linear scan,
// and a tombstone set of deleted points every query leaves out. Every point
// carries a stable global ID (gid) that survives rebuilds, deletions, and
// save/load; query results report gids, so answers stay comparable across
// snapshots of the same logical point set.
//
// Inside, a point is named by its position in base ++ delta, and the
// tombstones are a set of positions (Dead); gids strictly increase with
// position, so (distance, gid) tie-breaking agrees with (distance,
// position). A query walks the base in positions, skipping the tombstones
// (so a kNN walk prunes at its k-th live distance), and Overlay measures the
// delta into the base's answer and names it by gids — exactly the answer an
// index built from scratch over the logical point set would give, with the
// logical set ordered by gid. pkg/distperm's engines lay the same Overlay
// over their answers from the base's shards; a writable Engine publishes a
// MutableIndex, and Insert, Delete and Rebase return its successors, sharing
// whatever did not change.
type MutableIndex struct {
	base    Index
	baseDB  *DB
	delta   []metric.Point // the delta points, positions BaseN()…
	gids    []int          // per position
	dead    Tombs          // the tombstoned positions
	ntombs  int
	nextGid int
}

// NewMutableIndex assembles a snapshot from its parts: the full database
// (base points then delta points), the base prefix length nb, the base
// index (built over the first nb points), the per-point gids (strictly
// increasing, all below nextGid), the tombstoned gids (ascending, each naming
// a point), and the next gid an insert would take. Violations are errors, not
// panics, because the codec feeds this from untrusted bytes.
func NewMutableIndex(full *DB, nb int, base Index, gids []int, tombs []int, nextGid int) (*MutableIndex, error) {
	if full == nil || full.N() == 0 {
		return nil, fmt.Errorf("sisap: mutable index requires a non-empty database")
	}
	if !Walks(base) {
		return nil, fmt.Errorf("sisap: mutable index requires a base index of this package")
	}
	n := full.N()
	if nb < 1 || nb > n {
		return nil, fmt.Errorf("sisap: base prefix %d out of range 1..%d", nb, n)
	}
	if len(gids) != n {
		return nil, fmt.Errorf("sisap: %d gids for %d points", len(gids), n)
	}
	prev := -1
	for i, g := range gids {
		if g <= prev {
			return nil, fmt.Errorf("sisap: gids not strictly increasing at local %d", i)
		}
		prev = g
	}
	if prev >= nextGid {
		return nil, fmt.Errorf("sisap: max gid %d ≥ next gid %d", prev, nextGid)
	}
	dead := make([]int, len(tombs))
	prev = -1
	for j, g := range tombs {
		if g <= prev {
			return nil, fmt.Errorf("sisap: tombstones not strictly increasing at %d", g)
		}
		prev = g
		i := sort.SearchInts(gids, g)
		if i >= n || gids[i] != g {
			return nil, fmt.Errorf("sisap: tombstone %d names no point", g)
		}
		dead[j] = i
	}
	return &MutableIndex{
		base:    base,
		baseDB:  full.prefix(nb),
		delta:   full.points(nb, n),
		gids:    slices.Clip(gids),
		dead:    Tombs{}.With(dead...),
		ntombs:  len(tombs),
		nextGid: nextGid,
	}, nil
}

// Name identifies the snapshot kind.
func (x *MutableIndex) Name() string { return "mutable" }

// Base returns the base index.
func (x *MutableIndex) Base() Index { return x.base }

// BaseDB returns the database the base index was built on.
func (x *MutableIndex) BaseDB() *DB { return x.baseDB }

// BaseN returns the number of indexed base points.
func (x *MutableIndex) BaseN() int { return x.baseDB.N() }

// LiveN returns the logical point count: all points minus tombstones.
func (x *MutableIndex) LiveN() int { return len(x.gids) - x.ntombs }

// NextGID returns the gid the next insert would take.
func (x *MutableIndex) NextGID() int { return x.nextGid }

// GIDs returns the per-point global IDs in position order. The caller must
// not modify the slice.
func (x *MutableIndex) GIDs() []int { return x.gids }

// Delta returns the delta points' gids and the points. The caller must not
// modify them.
func (x *MutableIndex) Delta() ([]int, []metric.Point) { return x.gids[x.BaseN():], x.delta }

// Dead returns the tombstoned positions: the dead set of a walk over the base
// in x's positions.
func (x *MutableIndex) Dead() Tombs { return x.dead }

// Tombstones returns the tombstoned gids in ascending order.
func (x *MutableIndex) Tombstones() []int {
	tombs := make([]int, 0, x.ntombs)
	for pos, g := range x.gids {
		if x.dead.Has(pos) {
			tombs = append(tombs, g)
		}
	}
	return tombs
}

// DB returns the full database, made on every call: base points then delta
// points, including tombstoned ones (the base index is built over them;
// every query skips them).
func (x *MutableIndex) DB() *DB {
	return NewDB(x.baseDB.Metric, slices.Concat(x.baseDB.points(0, x.BaseN()), x.delta))
}

// Live returns the live points' gids and the points, in gid order: the point
// set a rebuild indexes.
func (x *MutableIndex) Live() ([]int, []metric.Point) {
	all := slices.Concat(x.baseDB.points(0, x.BaseN()), x.delta)
	gids, pts := make([]int, 0, x.LiveN()), make([]metric.Point, 0, x.LiveN())
	for pos, g := range x.gids {
		if !x.dead.Has(pos) {
			gids, pts = append(gids, g), append(pts, all[pos])
		}
	}
	return gids, pts
}

// Insert returns x with p added to the delta under gid NextGID(). It may
// share x's storage, so only the newest snapshot of a store is inserted
// into, by its one writer (a writable Engine, under its write lock).
func (x *MutableIndex) Insert(p metric.Point) *MutableIndex {
	y := *x
	y.delta, y.gids, y.nextGid = append(x.delta, p), append(x.gids, x.nextGid), x.nextGid+1
	return &y
}

// Delete returns x without the live point gid names, and false when it names
// none: a base point is tombstoned (which copies the dead set, n/64 words), a
// delta point leaves the delta.
func (x *MutableIndex) Delete(gid int) (*MutableIndex, bool) {
	pos := sort.SearchInts(x.gids, gid)
	if pos == len(x.gids) || x.gids[pos] != gid || x.dead.Has(pos) {
		return nil, false
	}
	y, nb := *x, x.BaseN()
	if pos < nb {
		y.dead, y.ntombs = x.dead.With(pos), x.ntombs+1
		return &y, true
	}
	for p := nb; p < len(x.gids); p++ {
		if x.dead.Has(p) {
			// A tombstoned delta point (only a snapshot read back holds one)
			// would move down a position: drop it first.
			return x.Rebase(x.baseDB, x.base, x.gids[:nb]).Delete(gid)
		}
	}
	y.delta = slices.Delete(slices.Clone(x.delta), pos-nb, pos-nb+1)
	y.gids = slices.Delete(slices.Clone(x.gids), pos, pos+1)
	return &y, true
}

// Rebase returns x's live point set over a new base index, built over baseDB,
// whose point i has gid gids[i] (ascending): base points no longer live in x
// are tombstoned, and x's live delta points newer than the base stay its
// delta. A rebuild's base is an earlier snapshot's live set, and writes since
// have only tombstoned its points or added newer ones; x's own base drops the
// tombstoned points of x's delta.
func (x *MutableIndex) Rebase(baseDB *DB, base Index, gids []int) *MutableIndex {
	y := &MutableIndex{base: base, baseDB: baseDB, gids: slices.Clip(gids), nextGid: x.nextGid}
	var dead []int
	pos := 0
	for i, g := range gids {
		for pos < len(x.gids) && x.gids[pos] < g {
			pos++
		}
		if pos == len(x.gids) || x.gids[pos] != g || x.dead.Has(pos) {
			dead = append(dead, i)
		}
	}
	y.dead, y.ntombs = Tombs{}.With(dead...), len(dead)
	for j, p := range x.delta {
		if pos := x.BaseN() + j; x.gids[pos] > gids[len(gids)-1] && !x.dead.Has(pos) {
			y.delta, y.gids = append(y.delta, p), append(y.gids, x.gids[pos])
		}
	}
	return y
}

// IndexBits counts the base index plus the snapshot bookkeeping: 64 bits of
// gid per point and per tombstone. Delta points are unindexed and free.
func (x *MutableIndex) IndexBits() int64 {
	return x.base.IndexBits() + 64*int64(len(x.gids)) + 64*int64(x.ntombs)
}

// KNN returns the k nearest live points by (distance, gid), with Result.ID
// carrying gids. Fewer than k results are returned when fewer than k points
// are live.
func (x *MutableIndex) KNN(q metric.Point, k int) ([]Result, Stats) {
	checkK(k, len(x.gids))
	return x.search(q, k, 0)
}

// Range returns all live points within radius r, in (distance, gid) order.
func (x *MutableIndex) Range(q metric.Point, r float64) ([]Result, Stats) {
	return x.search(q, 0, r)
}

// search walks the base in x's positions, skipping the tombstones, and lays
// the delta over its answer; the delta's evaluations count with the base's.
func (x *MutableIndex) search(q metric.Point, k int, r float64) ([]Result, Stats) {
	rs, st := Scope{Dead: x.dead}.Search(x.base, q, min(k, x.BaseN()), r)
	st.DistanceEvals += len(x.delta)
	return x.Overlay(q, rs, k, r), st
}

// Overlay returns x's answer to q — the k nearest or, with k = 0, every point
// within r — given rs, the base's answer in x's positions with the tombstones
// left out: the delta is measured into it (len(delta) evaluations, the
// caller's to count) and the answer is named by gids.
func (x *MutableIndex) Overlay(q metric.Point, rs []Result, k int, r float64) []Result {
	w := NewWalk(k, r, x.dead)
	w.offer(rs)
	for j, p := range x.delta {
		w.c.add(x.BaseN()+j, x.baseDB.Metric.Distance(q, p))
	}
	return RemapShardResults(w.Results(), x.gids)
}

// --- mutable codec ---

// The mutable container payload — the delta/tombstone section the DPERMIDX
// format gains so a mutated store survives save/load. The accompanying
// database must hold the base points first and the delta points after them,
// exactly as DB() reports; as everywhere else in the format, the points
// themselves live in the data file, not the index file.
//
//	n       uint64   total point count (base + delta; == db.N())
//	nb      uint64   base prefix length
//	nextGid uint64   next gid an insert would take
//	gids    n × uint64   per-point global IDs, strictly increasing
//	nt      uint64   tombstone count
//	tombs   nt × uint64  tombstoned gids, ascending
//	blen    uint64   embedded base container length
//	base    blen bytes   WriteIndex container over the base prefix
func encodeMutable(e *enc, m *MutableIndex) error {
	e.u64(uint64(len(m.gids)))
	e.u64(uint64(m.BaseN()))
	e.u64(uint64(m.nextGid))
	e.ids(m.gids)
	e.u64(uint64(m.ntombs))
	e.ids(m.Tombstones())
	if err := e.sub(m.base); err != nil {
		return fmt.Errorf("sisap: encoding mutable base: %w", err)
	}
	return nil
}

func decodeMutable(d *dec, db *DB) (Index, error) {
	checkN(d, db)
	n := db.N()
	nb := d.count("base prefix", d.u64(), 1, n)
	nextGid := d.count("next gid", d.u64(), 1, math.MaxInt)
	gids := d.ids("gid", n, nextGid)
	tombs := d.ids("tombstone", d.count("tombstone count", d.u64(), 0, n), nextGid)
	payload := d.sub()
	if d.err != nil {
		return nil, d.err
	}
	base, err := newDec(payload).index(db.prefix(nb))
	if err != nil {
		return nil, fmt.Errorf("sisap: decoding mutable base: %w", err)
	}
	return NewMutableIndex(db, nb, base, gids, tombs, nextGid)
}
