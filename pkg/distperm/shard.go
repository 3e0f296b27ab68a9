package distperm

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strings"

	"distperm/internal/sisap"
)

// ShardedIndex partitions one database across disjoint shards, one index per
// shard; see BuildSharded. It satisfies Index, so WriteIndex/ReadIndex
// round-trip it through the "sharded" codec; an Engine serves it with every
// shard a segment of its view, a query walking them in turn.
type ShardedIndex = sisap.ShardedIndex

// Partitioner assigns database points to shards — the placement seam of the
// sharded layer. Implementations must be deterministic: the partition map is
// serialised with the index, rebuilding with the same inputs must shard
// identically, and a writable Engine counts its pending inserts per shard by
// asking again (from any goroutine).
type Partitioner interface {
	// Name identifies the strategy (e.g. for CLI flags).
	Name() string
	// Shard returns the shard in [0, shards) for the point with global ID
	// id. Implementations may use the ID, the point's content, or both.
	Shard(id int, p Point, shards int) int
}

// RoundRobin deals points to shards in ID order (id mod shards): perfectly
// balanced shard sizes, placement independent of point content.
type RoundRobin struct{}

// Name returns "roundrobin".
func (RoundRobin) Name() string { return "roundrobin" }

// Shard returns id mod shards.
func (RoundRobin) Shard(id int, _ Point, shards int) int { return id % shards }

// HashPoint places each point by an FNV-1a hash of its content, so a point's
// shard is stable under database reordering or growth. It supports the
// package's point types (Vector, String); other dynamic types panic, because
// no generic fallback (e.g. formatting the value) could honour the
// Partitioner determinism contract for pointer-typed points. Balance is
// statistical, not exact, and a pathological dataset can leave a shard
// empty — Partition reports that as an error.
type HashPoint struct{}

// Name returns "hash".
func (HashPoint) Name() string { return "hash" }

// Shard hashes the point's content into [0, shards).
func (HashPoint) Shard(_ int, p Point, shards int) int {
	h := fnv.New64a()
	switch v := p.(type) {
	case Vector:
		var b [8]byte
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	case String:
		h.Write([]byte(v))
	default:
		panic(fmt.Sprintf("distperm: HashPoint cannot hash %T points; use RoundRobin or a custom Partitioner", p))
	}
	return int(h.Sum64() % uint64(shards))
}

// partitioners maps the built-in strategies' names — what the CLI and the
// daemon select by — to their Partitioners. A caller's own Partitioner needs
// no name here: it is passed to BuildSharded or MutableConfig directly.
var partitioners = map[string]Partitioner{
	RoundRobin{}.Name(): RoundRobin{},
	HashPoint{}.Name():  HashPoint{},
}

// Partitioners returns the built-in strategy names, sorted.
func Partitioners() []string {
	names := make([]string, 0, len(partitioners))
	for name := range partitioners {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// PartitionerByName maps a built-in strategy name ("roundrobin", "hash") to
// its Partitioner.
func PartitionerByName(name string) (Partitioner, error) {
	p, ok := partitioners[name]
	if !ok {
		return nil, fmt.Errorf("distperm: unknown partitioner %q (have %s)",
			name, strings.Join(Partitioners(), ", "))
	}
	return p, nil
}

// byGID asks a Partitioner about a rebuilt base's point i by its global ID,
// gids[i]: the point the contract names, and where MutationStats predicted a
// pending insert would land.
type byGID struct {
	Partitioner
	gids []int
}

func (b byGID) Shard(i int, p Point, shards int) int {
	return b.Partitioner.Shard(b.gids[i], p, shards)
}

// Partition assigns every point of db to one of shards shards via p,
// returning per-shard global ID lists in increasing order (so shard-local
// tie-breaking agrees with global tie-breaking). Every shard must end up
// non-empty; a partitioner that leaves one empty (possible with HashPoint)
// is an error, not a silent degradation — except in a rebuild, whose shard
// may have lost every point to deletes and is left out.
func Partition(db *DB, shards int, p Partitioner) ([][]int, error) {
	if db == nil || db.N() == 0 {
		return nil, fmt.Errorf("distperm: Partition requires a non-empty database")
	}
	if p == nil {
		return nil, fmt.Errorf("distperm: Partition requires a Partitioner")
	}
	if shards < 1 || shards > db.N() {
		return nil, fmt.Errorf("distperm: shards=%d out of range 1..%d", shards, db.N())
	}
	parts := make([][]int, shards)
	for id := 0; id < db.N(); id++ {
		s := p.Shard(id, db.Point(id), shards)
		if s < 0 || s >= shards {
			return nil, fmt.Errorf("distperm: partitioner %s sent ID %d to shard %d of %d", p.Name(), id, s, shards)
		}
		parts[s] = append(parts[s], id)
	}
	for s, part := range parts {
		if _, rebuild := p.(byGID); len(part) == 0 && !rebuild {
			return nil, fmt.Errorf("distperm: partitioner %s left shard %d of %d empty; use fewer shards or roundrobin", p.Name(), s, shards)
		}
	}
	return slices.DeleteFunc(parts, func(part []int) bool { return len(part) == 0 }), nil
}

// BuildSharded partitions db with p and builds one index per shard through
// Build. Each shard builds from spec with the seed offset by
// the shard number (decorrelating per-shard random choices while keeping the
// whole build reproducible) and K capped at the shard size.
func BuildSharded(db *DB, spec Spec, shards int, p Partitioner) (*ShardedIndex, error) {
	parts, err := Partition(db, shards, p)
	if err != nil {
		return nil, err
	}
	return sisap.NewShardedIndex(db, parts, func(s int, sdb *sisap.DB) (sisap.Index, error) {
		shardSpec := spec
		shardSpec.Seed = spec.Seed + int64(s)
		if shardSpec.K > sdb.N() {
			shardSpec.K = sdb.N()
		}
		return Build(sdb, shardSpec)
	})
}

// NewShardedEngine is NewEngine(sx.DB(), sx, workersPerShard), kept for
// callers that hold the index by its concrete type; workersPerShard is
// ignored.
func NewShardedEngine(sx *ShardedIndex, workersPerShard int) (*Engine, error) {
	if sx == nil {
		return nil, fmt.Errorf("distperm: NewShardedEngine requires a sharded index")
	}
	return NewEngine(sx.DB(), sx, workersPerShard)
}
