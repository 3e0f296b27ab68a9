package distperm

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"sync"

	"distperm/internal/sisap"
	"distperm/pkg/obs"
)

// ShardedIndex partitions one database across disjoint shards, one index per
// shard; see BuildSharded. It satisfies Index, so WriteIndex/ReadIndex
// round-trip it through the "sharded" codec, and a plain Engine can serve
// it; ShardedEngine serves it with one worker pool per shard instead.
type ShardedIndex = sisap.ShardedIndex

// Partitioner assigns database points to shards — the placement seam of the
// sharded layer. Implementations must be deterministic: the partition map is
// serialised with the index, and rebuilding with the same inputs must shard
// identically.
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

var (
	partitionersMu sync.RWMutex
	partitioners   = map[string]Partitioner{}
)

// RegisterPartitioner adds a placement strategy to the partitioner registry
// under its Name(), making it selectable by name from the CLI and the
// serving daemon — the same extension seam Register gives index kinds. It
// panics on a duplicate or incomplete registration; misregistration is a
// programming error, not a runtime condition. RoundRobin and HashPoint are
// pre-registered.
func RegisterPartitioner(p Partitioner) {
	if p == nil || p.Name() == "" {
		panic("distperm: RegisterPartitioner requires a named Partitioner")
	}
	partitionersMu.Lock()
	defer partitionersMu.Unlock()
	if _, dup := partitioners[p.Name()]; dup {
		panic(fmt.Sprintf("distperm: partitioner %q registered twice", p.Name()))
	}
	partitioners[p.Name()] = p
}

// Partitioners returns the registered strategy names, sorted.
func Partitioners() []string {
	partitionersMu.RLock()
	defer partitionersMu.RUnlock()
	names := make([]string, 0, len(partitioners))
	for name := range partitioners {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// PartitionerByName maps a registered strategy name ("roundrobin", "hash",
// plus any caller-registered strategies) to its Partitioner.
func PartitionerByName(name string) (Partitioner, error) {
	partitionersMu.RLock()
	p, ok := partitioners[name]
	partitionersMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("distperm: unknown partitioner %q (have %s)",
			name, strings.Join(Partitioners(), ", "))
	}
	return p, nil
}

func init() {
	RegisterPartitioner(RoundRobin{})
	RegisterPartitioner(HashPoint{})
}

// Partition assigns every point of db to one of shards shards via p,
// returning per-shard global ID lists in increasing order (so shard-local
// tie-breaking agrees with global tie-breaking). Every shard must end up
// non-empty; a partitioner that leaves one empty (possible with HashPoint)
// is an error, not a silent degradation.
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
		s := p.Shard(id, db.Points[id], shards)
		if s < 0 || s >= shards {
			return nil, fmt.Errorf("distperm: partitioner %s sent ID %d to shard %d of %d", p.Name(), id, s, shards)
		}
		parts[s] = append(parts[s], id)
	}
	for s, part := range parts {
		if len(part) == 0 {
			return nil, fmt.Errorf("distperm: partitioner %s left shard %d of %d empty; use fewer shards or roundrobin", p.Name(), s, shards)
		}
	}
	return parts, nil
}

// BuildSharded partitions db with p and builds one index per shard through
// the Build registry. Each shard builds from spec with the seed offset by
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

// ShardedEngine is the scatter-gather serving layer: one worker-pool Engine
// per shard of a ShardedIndex. Each Search is scattered to every shard's
// pool concurrently and the per-shard answers are merged — top-k by
// (distance, global ID) for kNN, concatenation in (distance, global ID)
// order for range — so answers are identical to a single Engine over the
// unpartitioned database. Search and its wrappers are safe for concurrent
// use; Close is safe to race with in-flight batches (each shard Engine
// drains before stopping).
type ShardedEngine struct {
	engineAPI
	sx      *ShardedIndex
	engines []*Engine
}

// NewShardedEngine starts one Engine of workersPerShard workers (≤ 0 means
// runtime.NumCPU()) over each shard of sx.
func NewShardedEngine(sx *ShardedIndex, workersPerShard int) (*ShardedEngine, error) {
	if sx == nil {
		return nil, fmt.Errorf("distperm: NewShardedEngine requires a sharded index")
	}
	s := &ShardedEngine{sx: sx, engines: make([]*Engine, sx.NumShards())}
	s.engineAPI = engineAPI{s}
	for i := range s.engines {
		e, err := NewEngine(sx.ShardDB(i), sx.Shard(i), workersPerShard)
		if err != nil {
			for _, prev := range s.engines[:i] {
				prev.Close()
			}
			return nil, err
		}
		s.engines[i] = e
	}
	return s, nil
}

// Shards returns the shard count.
func (s *ShardedEngine) Shards() int { return len(s.engines) }

// Workers returns the total worker count across all shard pools.
func (s *ShardedEngine) Workers() int { return s.sum((*Engine).Workers) }

// Index returns the engine's sharded index.
func (s *ShardedEngine) Index() *ShardedIndex { return s.sx }

// sum adds one per-engine figure across the shard pools.
func (s *ShardedEngine) sum(f func(*Engine) int) int {
	total := 0
	for _, e := range s.engines {
		total += f(e)
	}
	return total
}

// Search answers q for every point of qs: each query is scattered to every
// shard — a kNN query asking each for its min(K, shard size) best — the
// shard answers are remapped to global IDs, and the gather merges them into
// the global top K (kNN) or the global (distance, ID) order (range),
// identical to a single Engine over the unpartitioned database. For an
// approximate query every shard probes the NProbe nearest prefix buckets of
// its own directory; the returned per-query stats sum the shard probe
// accounting, and Exact is true only when every shard's probe set covered
// its whole directory — in which case the answers are byte-identical to the
// exact query. Any shard without the ApproxIndex capability fails the batch
// with ErrNoApprox.
func (s *ShardedEngine) Search(qs []Point, q Query) ([][]Result, []ApproxStats, error) {
	if err := q.validate(s.sx.DB().N()); err != nil {
		return nil, nil, err
	}
	if len(qs) == 0 {
		return [][]Result{}, nil, nil
	}
	perShard := make([][][]Result, len(s.engines)) // [shard][query][result]
	perStats := make([][]ApproxStats, len(s.engines))
	errs := make([]error, len(s.engines))
	var wg sync.WaitGroup
	for i, e := range s.engines {
		wg.Add(1)
		go func(i int, e *Engine) {
			defer wg.Done()
			sq := q
			sq.K = min(q.K, s.sx.ShardDB(i).N())
			perShard[i], perStats[i], errs[i] = e.Search(qs, sq)
			part := s.sx.Part(i)
			for _, qr := range perShard[i] {
				sisap.RemapShardResults(qr, part)
			}
		}(i, e)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	out := make([][]Result, len(qs))
	var asts []ApproxStats
	if q.Approx {
		asts = make([]ApproxStats, len(qs))
	}
	gather := make([][]Result, len(s.engines))
	for qi := range qs {
		for i := range s.engines {
			gather[i] = perShard[i][qi]
		}
		if q.knn() {
			out[qi] = sisap.MergeKNN(gather, q.K)
		} else {
			out[qi] = sisap.MergeRange(gather)
		}
		if q.Approx {
			agg := ApproxStats{Exact: true}
			for i := range s.engines {
				st := perStats[i][qi]
				agg.DistanceEvals += st.DistanceEvals
				agg.ProbedBuckets += st.ProbedBuckets
				agg.TotalBuckets += st.TotalBuckets
				agg.Candidates += st.Candidates
				agg.Exact = agg.Exact && st.Exact
			}
			asts[qi] = agg
		}
	}
	return out, asts, nil
}

// ApproxBuckets sums the shard directories' bucket counts — the bound the
// per-query TotalBuckets stat reports. 0 when no shard has the capability.
func (s *ShardedEngine) ApproxBuckets() int { return s.sum((*Engine).ApproxBuckets) }

// DistinctRows sums the shard indexes' distinct permutation-row counts.
func (s *ShardedEngine) DistinctRows() int { return s.sum((*Engine).DistinctRows) }

// BusyWorkers sums the busy-worker counts across shard pools.
func (s *ShardedEngine) BusyWorkers() int { return s.sum((*Engine).BusyWorkers) }

// ShardStats returns one EngineStats snapshot per shard pool. Each shard
// answers every scattered query, so per-shard Queries count sub-queries: S
// shards serving a B-query batch record B sub-queries each.
func (s *ShardedEngine) ShardStats() []EngineStats {
	stats := make([]EngineStats, len(s.engines))
	for i, e := range s.engines {
		stats[i] = e.Stats()
	}
	return stats
}

// counters sums the shard counters (so DistanceEvals is exactly the global
// cost of the sharded serving, the paper's cost model composing additively)
// and merges the per-shard latency histograms.
func (s *ShardedEngine) counters() (EngineStats, obs.HistogramSnapshot) {
	var agg EngineStats
	var lat obs.HistogramSnapshot
	for _, e := range s.engines {
		c, snap := e.counters()
		agg.add(c)
		lat.Merge(snap)
	}
	return agg, lat
}

// Close shuts every shard pool down after in-flight queries finish. It is
// idempotent; batches submitted after Close return an error.
func (s *ShardedEngine) Close() {
	var wg sync.WaitGroup
	for _, e := range s.engines {
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			e.Close()
		}(e)
	}
	wg.Wait()
}
