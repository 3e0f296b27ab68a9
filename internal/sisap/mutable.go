package sisap

import (
	"fmt"
	"math"
	"sort"

	"distperm/internal/metric"
)

// MutableIndex is the snapshot form of a live-mutated store: an immutable
// base index over the first nb points of the database, a delta of unindexed
// points (the rest of the database) answered by linear scan, and a tombstone
// set of deleted points every query leaves out (Scope). Every point carries
// a stable global ID (gid) that survives rebuilds, deletions, and save/load;
// query results report gids, so answers stay comparable across snapshots of
// the same logical point set.
//
// The invariants (validated by NewMutableIndex):
//
//   - the database holds the base points first, then the delta points;
//   - gids are strictly increasing in local order (so base gids < delta
//     gids, and (distance, gid) tie-breaking agrees with (distance, local))
//     and all below nextGid;
//   - tombstones name gids present in the database.
//
// A query collects the base answer and a linear scan of the delta, skipping
// tombstones, and remaps IDs to gids — exactly the answer an index
// built from scratch over the logical point set would give, with the
// logical set ordered by gid. MutableIndex satisfies Index and Replicable,
// so a plain engine can serve a loaded snapshot read-only; the live write
// path around it is pkg/distperm's MutableEngine.
type MutableIndex struct {
	full    *DB
	baseDB  *DB
	nb      int
	base    Index
	gids    []int
	dead    Tombs // tombs as a set
	tombs   []int // ascending, the serialised form of dead
	nextGid int
}

// NewMutableIndex assembles a snapshot from its parts: the full database
// (base points then delta points), the base prefix length nb, the base
// index (built over the first nb points), the per-point gids, the
// tombstoned gids (ascending), and the next gid an insert would take. The
// invariants above are validated; violations are errors, not panics,
// because the codec feeds this from untrusted bytes.
func NewMutableIndex(full *DB, nb int, base Index, gids []int, tombs []int, nextGid int) (*MutableIndex, error) {
	if full == nil || full.N() == 0 {
		return nil, fmt.Errorf("sisap: mutable index requires a non-empty database")
	}
	if !Walks(base) {
		return nil, fmt.Errorf("sisap: mutable index requires a base index of this package")
	}
	if nb < 1 || nb > full.N() {
		return nil, fmt.Errorf("sisap: base prefix %d out of range 1..%d", nb, full.N())
	}
	if len(gids) != full.N() {
		return nil, fmt.Errorf("sisap: %d gids for %d points", len(gids), full.N())
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
	prev = -1
	for _, g := range tombs {
		if g <= prev {
			return nil, fmt.Errorf("sisap: tombstones not strictly increasing at %d", g)
		}
		prev = g
		i := sort.SearchInts(gids, g)
		if i >= len(gids) || gids[i] != g {
			return nil, fmt.Errorf("sisap: tombstone %d names no point", g)
		}
	}
	return &MutableIndex{
		full:    full,
		baseDB:  full.prefix(nb),
		nb:      nb,
		base:    base,
		gids:    gids,
		dead:    Tombs{}.With(tombs...),
		tombs:   append([]int(nil), tombs...),
		nextGid: nextGid,
	}, nil
}

// Name identifies the snapshot kind.
func (x *MutableIndex) Name() string { return "mutable" }

// Base returns the base index.
func (x *MutableIndex) Base() Index { return x.base }

// BaseDB returns the database the base index was built on (the first BaseN
// points of DB).
func (x *MutableIndex) BaseDB() *DB { return x.baseDB }

// BaseN returns the number of indexed base points.
func (x *MutableIndex) BaseN() int { return x.nb }

// LiveN returns the logical point count: all points minus tombstones.
func (x *MutableIndex) LiveN() int { return x.full.N() - len(x.tombs) }

// NextGID returns the gid the next insert would take.
func (x *MutableIndex) NextGID() int { return x.nextGid }

// GIDs returns the per-point global IDs in local order. The caller must not
// modify the slice.
func (x *MutableIndex) GIDs() []int { return x.gids }

// Tombstones returns the tombstoned gids in ascending order. The caller
// must not modify the slice.
func (x *MutableIndex) Tombstones() []int { return x.tombs }

// Tombstoned reports whether gid is deleted.
func (x *MutableIndex) Tombstoned(gid int) bool { return x.dead.Has(gid) }

// DB returns the full database: base points then delta points, including
// tombstoned ones (the base index is built over them; every query skips
// them).
func (x *MutableIndex) DB() *DB { return x.full }

// IndexBits counts the base index plus the snapshot bookkeeping: 64 bits of
// gid per point and per tombstone. Delta points are unindexed and free.
func (x *MutableIndex) IndexBits() int64 {
	return x.base.IndexBits() + 64*int64(x.full.N()) + 64*int64(len(x.tombs))
}

// Replica satisfies Replicable: the base index's scratch state is cloned,
// everything else is immutable and shared.
func (x *MutableIndex) Replica() Index {
	r := *x
	r.base = QueryReplica(x.base)
	return &r
}

// KNN returns the k nearest live points by (distance, gid), with Result.ID
// carrying gids. Fewer than k results are returned when fewer than k points
// are live.
func (x *MutableIndex) KNN(q metric.Point, k int) ([]Result, Stats) {
	return searchKNN(x, x.full.N(), q, k)
}

// Range returns all live points within radius r, in (distance, gid) order.
func (x *MutableIndex) Range(q metric.Point, r float64) ([]Result, Stats) {
	return searchRange(x, q, r)
}

// search walks the base and scans the delta into c in the snapshot's own
// scope (gids for names, the tombstones left out), so the base walk prunes at
// the k-th live distance; the delta's evaluations count with the base's.
// pkg/distperm's MutableEngine has the same semantics (Scope, Overlay).
func (x *MutableIndex) search(q metric.Point, c *collector) Stats {
	outer := c.sc
	c.sc = Scope{Dead: x.dead, Part: x.gids}
	st := x.base.(searcher).search(q, c)
	x.full.measure(q, nil, nil, x.nb, x.full.N(), c)
	st.DistanceEvals += x.full.N() - x.nb
	c.sc = outer
	return st
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
	e.u64(uint64(m.full.N()))
	e.u64(uint64(m.nb))
	e.u64(uint64(m.nextGid))
	e.ids(m.gids)
	e.u64(uint64(len(m.tombs)))
	e.ids(m.tombs)
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
