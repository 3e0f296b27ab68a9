package sisap

import (
	"fmt"

	"distperm/internal/metric"
)

// ShardedIndex partitions one database across S disjoint shards and holds
// one member-family index per shard. A query walks the shards in turn into
// one collector, so a kNN shard prunes at the k-th distance of the shards
// before it — exactly the answer the unpartitioned index would give, because
// each shard's local ID order mirrors the global ID order (parts are strictly
// increasing), so per-shard (distance, ID) tie-breaking agrees with global.
//
// The per-shard Stats sum to the query's global cost: the metric-evaluation
// cost model of the paper composes additively across shards.
//
// ShardedIndex itself satisfies Index; pkg/distperm's engines walk its
// shards through Walk, to book each shard's cost apart.
type ShardedIndex struct {
	db     *DB
	parts  [][]int // parts[s][local] = global ID, strictly increasing
	dbs    []*DB   // shard-local databases, points shared with db
	shards []Index
}

// NewShardedIndex partitions db by parts (parts[s] lists the global IDs of
// shard s, strictly increasing; the parts must cover every ID exactly once
// and be non-empty) and builds one index per shard via build, which receives
// the shard number and the shard-local database.
func NewShardedIndex(db *DB, parts [][]int, build func(shard int, sdb *DB) (Index, error)) (*ShardedIndex, error) {
	if db == nil || db.N() == 0 {
		return nil, fmt.Errorf("sisap: sharded index requires a non-empty database")
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("sisap: sharded index requires at least one shard")
	}
	n := db.N()
	seen := make([]bool, n)
	total := 0
	for s, part := range parts {
		if len(part) == 0 {
			return nil, fmt.Errorf("sisap: shard %d is empty", s)
		}
		prev := -1
		for _, id := range part {
			if id < 0 || id >= n {
				return nil, fmt.Errorf("sisap: shard %d: ID %d out of range 0..%d", s, id, n-1)
			}
			if id <= prev {
				return nil, fmt.Errorf("sisap: shard %d: IDs not strictly increasing at %d", s, id)
			}
			if seen[id] {
				return nil, fmt.Errorf("sisap: ID %d assigned to two shards", id)
			}
			seen[id] = true
			prev = id
			total++
		}
	}
	if total != n {
		return nil, fmt.Errorf("sisap: partition covers %d of %d points", total, n)
	}
	x := &ShardedIndex{
		db:     db,
		parts:  parts,
		dbs:    make([]*DB, len(parts)),
		shards: make([]Index, len(parts)),
	}
	for s, part := range parts {
		pts := make([]metric.Point, len(part))
		for i, id := range part {
			pts[i] = db.Point(id)
		}
		x.dbs[s] = NewDB(db.Metric, pts)
		idx, err := build(s, x.dbs[s])
		if err != nil {
			return nil, fmt.Errorf("sisap: building shard %d: %w", s, err)
		}
		if !Walks(idx) {
			return nil, fmt.Errorf("sisap: shard %d built a nil index or one of another package", s)
		}
		x.shards[s] = idx
	}
	return x, nil
}

// Name identifies the container kind.
func (x *ShardedIndex) Name() string { return "sharded" }

// NumShards returns the shard count.
func (x *ShardedIndex) NumShards() int { return len(x.parts) }

// Shard returns shard s's index.
func (x *ShardedIndex) Shard(s int) Index { return x.shards[s] }

// ShardDB returns shard s's local database.
func (x *ShardedIndex) ShardDB(s int) *DB { return x.dbs[s] }

// Part returns shard s's local→global ID map. The caller must not modify it.
func (x *ShardedIndex) Part(s int) []int { return x.parts[s] }

// DB returns the global database the index partitions.
func (x *ShardedIndex) DB() *DB { return x.db }

// KNN returns the global top k over every shard.
func (x *ShardedIndex) KNN(q metric.Point, k int) ([]Result, Stats) {
	return searchKNN(x, x.db.N(), q, k)
}

// Range returns every shard's points within r in global (distance, ID) order.
func (x *ShardedIndex) Range(q metric.Point, r float64) ([]Result, Stats) {
	return searchRange(x, q, r)
}

// search walks every shard into c, each under c's scope composed with its
// part, so a kNN shard prunes at the k-th distance of every shard before it.
// Stats sum across shards.
func (x *ShardedIndex) search(q metric.Point, c *collector) Stats {
	var st Stats
	outer := c.sc
	for s, idx := range x.shards {
		c.sc = outer.under(x.parts[s])
		sst := idx.(searcher).search(q, c)
		st.DistanceEvals += sst.DistanceEvals
		st.PrunedEvals += sst.PrunedEvals
	}
	c.sc = outer
	return st
}

// IndexBits sums the shard indexes plus the partition map (⌈lg S⌉ bits per
// point to name its shard).
func (x *ShardedIndex) IndexBits() int64 {
	var bits int64
	for _, idx := range x.shards {
		bits += idx.IndexBits()
	}
	shardBits := 0
	for 1<<shardBits < len(x.shards) {
		shardBits++
	}
	return bits + int64(x.db.N())*int64(shardBits)
}

// RemapShardResults rewrites shard-local result IDs to global IDs via the
// shard's local→global part (nil: the identity), in place.
func RemapShardResults(rs []Result, part []int) []Result {
	for i := 0; part != nil && i < len(rs); i++ {
		rs[i].ID = part[rs[i].ID]
	}
	return rs
}

// MergeKNN gathers per-shard kNN answers (already remapped to global IDs)
// into the global top k in (distance, ID) order; with k = 0 it merges
// per-shard range answers, keeping all. No serving path merges: it prices
// the merge that one walk across the shards saves.
func MergeKNN(perShard [][]Result, k int) []Result {
	var all []Result
	for _, rs := range perShard {
		all = append(all, rs...)
	}
	sortResults(all)
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all
}

// --- sharded codec ---

// The sharded container payload: the partition map, then each shard's index
// as a length-prefixed embedded DPERMIDX container, so any kind (including
// another sharded container) can be a shard member.
//
//	n       uint64   global point count
//	S       uint32   shard count
//	parts   S × (len uint64, len × uint64 global IDs)
//	shards  S × (len uint64, len bytes: WriteIndex container)
func encodeSharded(e *enc, sx *ShardedIndex) error {
	e.u64(uint64(sx.db.N()))
	e.u32(uint32(len(sx.parts)))
	for _, part := range sx.parts {
		e.u64(uint64(len(part)))
		e.ids(part)
	}
	for s, idx := range sx.shards {
		if err := e.sub(idx); err != nil {
			return fmt.Errorf("sisap: encoding shard %d: %w", s, err)
		}
	}
	return nil
}

func decodeSharded(d *dec, db *DB) (Index, error) {
	checkN(d, db)
	n := db.N()
	parts := make([][]int, d.count("shard count", uint64(d.u32()), 1, n))
	for s := range parts {
		parts[s] = d.ids("shard member ID", d.count("shard size", d.u64(), 1, n), n)
	}
	if d.err != nil {
		return nil, d.err
	}
	// NewShardedIndex re-validates the partition (coverage, monotonicity)
	// before any shard payload is trusted.
	return NewShardedIndex(db, parts, func(s int, sdb *DB) (Index, error) {
		payload := d.sub()
		if d.err != nil {
			return nil, d.err
		}
		return newDec(payload).index(sdb)
	})
}
