package distperm

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"distperm/internal/sisap"
	"distperm/pkg/obs"
)

// ErrNoApprox tags approximate searches against an index without the
// ApproxIndex capability, so serving layers can report the request as
// unsupported rather than failed. Match with errors.Is.
var ErrNoApprox = errors.New("index has no approximate-search support")

// Query says what one Search asks of every point in its batch. It is
// comparable, so serving layers can group requests by it.
//
// K ≥ 1 asks for the K nearest neighbours (Radius is ignored); K == 0 asks
// for every point within Radius instead, a range query. Approx routes a kNN
// query through the index's ApproxIndex capability, probing the NProbe
// nearest permutation-prefix buckets (≤ 0 selects the index default; ≥ the
// directory size degrades to the exact scan, byte-identical answers).
type Query struct {
	K      int
	Radius float64
	Approx bool
	NProbe int
}

// knn reports whether q is a kNN query (as opposed to a range query).
func (q Query) knn() bool { return q.K != 0 || q.Approx }

// validate rejects a Query no engine over n points can serve, and a NaN
// radius or query coordinate, which no distance orders, tagging the error
// ErrOutOfRange.
func (q Query) validate(n int, qs []Point) error {
	switch {
	case q.knn() && (q.K < 1 || q.K > n):
		return fmt.Errorf("distperm: k=%d %w 1..%d", q.K, ErrOutOfRange, n)
	case !q.knn() && !(q.Radius >= 0):
		return fmt.Errorf("distperm: radius %g is %w (need r ≥ 0)", q.Radius, ErrOutOfRange)
	}
	if i := slices.IndexFunc(qs, hasNaN); i >= 0 {
		return fmt.Errorf("distperm: query %d has a NaN coordinate: %w", i, ErrOutOfRange)
	}
	return nil
}

// hasNaN reports whether p is a Vector with a NaN coordinate.
func hasNaN(p Point) bool {
	v, ok := p.(Vector)
	return ok && slices.ContainsFunc(v, math.IsNaN)
}

// state is what a search answers over: the view of a built index and, over a
// mutated store, the snapshot laid on that index (nil: the view's index as it
// is). Every snapshot over one base shares the base's view.
type state struct {
	*view
	mi *MutableIndex
}

// liveN returns how many points a search over s may answer with.
func (s *state) liveN() int {
	if s.mi != nil {
		return s.mi.LiveN()
	}
	return s.db.N()
}

// Engine is a concurrent query engine over one store. Search runs on its
// caller's goroutine — a multi-query batch fans out over at most GOMAXPROCS
// goroutines, all gone when it returns — over the view of the published
// state: one segment for a plain index, one per shard of a *ShardedIndex,
// walked one after another into one collector per query, so each shard
// prunes at the K-th distance of the shards before it and the answer is
// exactly what one index over the unpartitioned database returns. Per-query
// Stats fold into engine-level counters, kept per segment (ShardStats).
//
// NewEngine and NewShardedEngine make a read-only engine, whose state never
// changes: Insert, Delete, Rebuild, ReplayWAL and CheckpointSnapshot return
// ErrReadOnly. A *MutableIndex (a saved mutated store) is served read-only
// over its base's segments, with k checked against its live points.
// WrapMutable and NewMutableEngine make an engine that takes writes, and
// Open boots either kind from durable state.
//
// Search (and the KNNBatch/KNNApproxBatch wrappers over it) is safe to call
// from many goroutines at once; bounding how many run is the caller's
// business (dpserver's admission gate). Close is safe to race with
// in-flight searches: it waits for every search that observed the engine
// open to finish.
type Engine struct {
	// cur is the published state: stored under writeMu, loaded by anyone.
	cur atomic.Pointer[state]

	// mu, closed and inflight serialise searches and rebuilds against Close:
	// one enters inflight under mu while closed is still false, so once Close
	// has set closed under mu and inflight has drained, nothing reads the
	// store any more. The write path reads closed under writeMu.
	mu       sync.Mutex
	closed   atomic.Bool
	inflight sync.WaitGroup
	// slots[s] counts what segment number s of any view has served, so the
	// counters carry across rebuilds; deltaEvals counts the delta scans of
	// mutated stores, costed into Stats on top of them.
	slots      []slot
	deltaEvals atomic.Int64
	// boot is what Open opened for the engine (nil otherwise), released by
	// Close once every search and rebuild has drained.
	boot *boot

	// The write path (mutable.go). kick is nil on a read-only engine.
	cfg MutableConfig
	// writeMu serialises Insert/Delete/ReplayWAL/rebuild-swap/Close.
	writeMu sync.Mutex
	// wal, when non-nil, is appended to under writeMu before a mutation
	// publishes — the durability handshake: no acknowledgement without a
	// logged record. MutableConfig.WAL, fixed for the engine's lifetime.
	wal *WAL
	// rebuildMu serialises whole rebuilds (capture → build → swap) against
	// each other — the background loop and manual Rebuild calls. The swap
	// arithmetic relies on the base being unchanged between its snapshot
	// capture and its swap, which only holds with one rebuild in flight.
	rebuildMu sync.Mutex

	kick, done chan struct{}
	rebuilder  sync.WaitGroup

	inserts, deletes atomic.Int64
	rebuilds         atomic.Int64
	rebuildFailures  atomic.Int64
	lastRebuildNanos atomic.Int64
	lastRebuildErr   atomic.Pointer[string]
}

// MutableEngine is another name for Engine, kept for callers that name it.
type MutableEngine = Engine

// newEngine makes an engine over s with a counter slot for each of segments
// segment numbers; the caller makes it writable.
func newEngine(s *state, segments int) *Engine {
	e := &Engine{slots: make([]slot, segments), done: make(chan struct{})}
	for i := range e.slots {
		e.slots[i].lat = obs.NewHistogram(obs.DefLatencyBuckets)
	}
	e.cur.Store(s)
	return e
}

// Search answers q for every point of qs over the store the engine serves:
// outs[i] is the answer for qs[i], and asts[i] its probe statistics when
// q.Approx (nil otherwise). The state is loaded once for the batch; see
// search for how a query walks a sharded index's shards in turn. Over
// a mutated store every walk leaves the tombstones out (so a kNN walk prunes
// at the K-th live distance) and the snapshot's delta is laid over each
// merged answer (MutableIndex.Overlay), which names it by stable global IDs.
//
// Only the base answers approximately — the delta is always scanned exactly,
// so a freshly inserted point is never missed by a probe; mutation costs
// distance evaluations, never recall beyond the base's own probe trade. The
// per-query stats of an approximate search carry the delta scan in
// DistanceEvals and Candidates, and Exact refers to the base answer.
func (e *Engine) Search(qs []Point, q Query) ([][]Result, []ApproxStats, error) {
	s := e.cur.Load()
	if err := q.validate(s.liveN(), qs); err != nil {
		return nil, nil, err
	}
	// A closed engine answers the empty batch too: there is no work to do.
	if len(qs) == 0 {
		return [][]Result{}, nil, nil
	}
	if err := e.enter(); err != nil {
		return nil, nil, err
	}
	defer e.inflight.Done()
	if s.mi == nil {
		return e.search(s.view, qs, q, nil)
	}
	outs, asts, err := e.search(s.view, qs, q, s.mi.Dead())
	if err != nil {
		return nil, nil, err
	}
	_, delta := s.mi.Delta()
	for i, p := range qs {
		outs[i] = s.mi.Overlay(p, outs[i], q.K, q.Radius)
		if q.Approx {
			asts[i].DistanceEvals += len(delta)
			asts[i].Candidates += len(delta)
		}
	}
	e.deltaEvals.Add(int64(len(qs) * len(delta)))
	return outs, asts, rangeFits(outs)
}

// KNNBatch is Search(qs, Query{K: k}): out[i] holds the k nearest database
// points to qs[i] in increasing (distance, ID) order — identical to
// querying the index sequentially.
func (e *Engine) KNNBatch(qs []Point, k int) ([][]Result, error) {
	if k < 1 {
		// Query{K: 0} would be a range query; k = 0 stays the error it was.
		return nil, fmt.Errorf("distperm: k=%d %w (need k ≥ 1)", k, ErrOutOfRange)
	}
	outs, _, err := e.Search(qs, Query{K: k})
	return outs, err
}

// KNNApproxBatch is Search(qs, Query{K: k, Approx: true, NProbe: nprobe}),
// returning the per-query probe statistics too.
func (e *Engine) KNNApproxBatch(qs []Point, k, nprobe int) ([][]Result, []ApproxStats, error) {
	return e.Search(qs, Query{K: k, Approx: true, NProbe: nprobe})
}

// Stats returns a snapshot of the engine-level counters. Across shards the
// counts sum (every query walks every shard, so Queries counts sub-queries);
// across rebuilds they accumulate, with the delta scans costed into
// DistanceEvals.
func (e *Engine) Stats() EngineStats {
	st, lat := e.counters()
	st.finish(lat)
	for _, sh := range e.ShardStats() {
		st.DistinctRows += sh.DistinctRows
		st.BucketRowsHeapBytes += sh.BucketRowsHeapBytes
		st.BoundCells += sh.BoundCells
	}
	return st
}

// LiveN returns the logical point count: what k is checked against.
func (e *Engine) LiveN() int { return e.cur.Load().liveN() }

// Shards returns how many segments serve the index: its shard count, 1 for a
// plain index — of a mutated store, its base's. It can change across a
// rebuild.
func (e *Engine) Shards() int { return len(e.cur.Load().segs) }

// ApproxBuckets returns the served index's inverted-file directory size, the
// bound nprobe is measured against, summed across shards (0: no such capability).
func (e *Engine) ApproxBuckets() (total int) {
	for _, seg := range e.cur.Load().segs {
		if ax, ok := seg.idx.(sisap.ApproxIndex); ok {
			total += ax.ApproxBuckets()
		}
	}
	return total
}

// LatencySnapshot returns the per-query latency histogram, merged across
// shards and covering every view served — the source /metrics exposes and
// Stats reads its percentiles from.
func (e *Engine) LatencySnapshot() obs.HistogramSnapshot {
	_, lat := e.counters()
	return lat
}

// Index returns the index the engine serves: the one a read-only engine was
// made over, a writable engine's current snapshot. Like every index, it may
// be queried from any number of goroutines at once.
func (e *Engine) Index() Index {
	s := e.cur.Load()
	if s.mi != nil {
		return s.mi
	}
	return s.idx
}

// BaseKind returns the kind of the index under the served view: a mutated
// store's base.
func (e *Engine) BaseKind() string { return e.cur.Load().idx.Name() }

// Metric returns the store's metric.
func (e *Engine) Metric() Metric { return e.cur.Load().db.Metric }

// Proto returns a representative point of the store — the shape inserts
// and queries are validated against.
func (e *Engine) Proto() Point { return e.cur.Load().proto }

// IndexBits reports the storage cost of the index under the served view.
func (e *Engine) IndexBits() int64 { return e.cur.Load().idx.IndexBits() }

// Mutable reports whether the engine takes writes.
func (e *Engine) Mutable() bool { return e.kick != nil }

// histQuantile reads the q-quantile from a latency histogram snapshot as
// a Duration — the nearest-rank bucket edge, see
// obs.HistogramSnapshot.Quantile.
func histQuantile(s obs.HistogramSnapshot, q float64) time.Duration {
	return time.Duration(math.Round(s.Quantile(q) * 1e9))
}

// segment is one built index of a view and the database it indexes; part,
// when non-nil, maps the segment's local IDs to the view's global IDs.
type segment struct {
	db   *DB
	idx  Index
	part []int
}

// view is an immutable list of segments served together as the one database
// db indexed by idx, and db's point 0, boxed once for Proto. A writable
// Engine publishes a new view per rebuild; a superseded one lives as long as
// a search still holds it and is then the garbage collector's. Storage a view
// only borrows — a mapped container — belongs to whoever opened it (see
// Store.Close).
type view struct {
	db    *DB
	idx   Index
	segs  []segment
	proto Point
}

// newView lays idx out for serving: a *ShardedIndex becomes one segment per
// shard with the shard's local→global ID map, any other index the
// one-segment identity view.
func newView(db *DB, idx Index) *view {
	v := &view{db: db, idx: idx, segs: []segment{{db: db, idx: idx}}, proto: db.Point(0)}
	if sx, ok := idx.(*ShardedIndex); ok {
		v.segs = make([]segment, sx.NumShards())
		for s := range v.segs {
			v.segs[s] = segment{db: sx.ShardDB(s), idx: sx.Shard(s), part: sx.Part(s)}
		}
	}
	return v
}

// describe sets the fields of st that describe idx, not its queries: the
// distinct permutation rows (the paper's table size, the universe of the
// bucket directory) and a PermIndex's bucket-major heap and bound cells.
func (st *EngineStats) describe(idx Index) {
	if d, ok := idx.(interface{ DistinctPermutations() int }); ok {
		st.DistinctRows = d.DistinctPermutations()
	}
	if px, ok := idx.(*sisap.PermIndex); ok {
		st.BucketRowsHeapBytes, st.BoundCells = px.RowsHeapBytes(), px.BoundCells()
	}
}

// slot holds one segment number's counters. lat holds every per-query
// latency in a fixed-bucket histogram (obs.DefLatencyBuckets): constant
// memory regardless of lifetime, lock-free to observe, mergeable across
// slots, and the one source Stats percentiles and /metrics exposition read.
type slot struct {
	mu   sync.Mutex
	sums EngineStats // the summed fields only; see EngineStats.add
	lat  *obs.Histogram
}

// NewEngine makes a read-only engine over idx, which must have been built on
// db. workers is ignored: a search runs on its caller (see Workers).
func NewEngine(db *DB, idx Index, workers int) (*Engine, error) {
	if db == nil || idx == nil {
		return nil, fmt.Errorf("distperm: NewEngine requires a database and an index")
	}
	s := &state{view: newView(db, idx)}
	if mi, ok := idx.(*MutableIndex); ok {
		s = &state{view: newView(mi.BaseDB(), mi.Base()), mi: mi}
	}
	return newEngine(s, len(s.segs)), nil
}

// Workers returns how many goroutines one Search fans out over at most:
// GOMAXPROCS, the caller's included.
func (e *Engine) Workers() int { return runtime.GOMAXPROCS(0) }

// enter registers one search or rebuild; it fails once Close has begun.
func (e *Engine) enter() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return fmt.Errorf("distperm: engine is closed")
	}
	e.inflight.Add(1)
	return nil
}

// search answers q for every point of qs over v, leaving out the points dead
// names; the caller has entered the engine and validated q. The caller and
// up to min(len(qs), GOMAXPROCS) − 1 goroutines each take the next query off
// one shared counter until none is left, all on the view's own indexes.
// A query is one walk of the view's segments in turn into one collector
// (sisap.Walk), so segment s prunes at the K-th live distance of segments
// 0…s−1 and the answer comes out merged, in the view's global IDs. Each
// segment's slot books every query as a sub-query, with the Stats (and probe
// statistics) and the wall time of that segment's own walk; a multi-query
// exact kNN counts in BatchedQueries. Every segment of an approximate search
// probes the NProbe nearest buckets of its own directory for its own
// min(K, segment size) best: the per-query stats sum the segments' probe
// accounting, Exact only when every segment's probe covered its whole
// directory (then the answers are the exact query's); a segment without the
// capability fails the batch with ErrNoApprox.
func (e *Engine) search(v *view, qs []Point, q Query, dead sisap.Tombs) ([][]Result, []ApproxStats, error) {
	for _, seg := range v.segs {
		if _, ok := seg.idx.(sisap.ApproxIndex); q.Approx && !ok {
			return nil, nil, fmt.Errorf("distperm: %w", ErrNoApprox)
		}
	}
	outs := make([][]Result, len(qs))
	var asts []ApproxStats
	if q.Approx {
		asts = make([]ApproxStats, len(qs))
	}
	batched := q.knn() && !q.Approx && len(qs) > 1
	var next atomic.Int64
	serve := func() {
		sums := make([]EngineStats, len(v.segs))
		for i := int(next.Add(1) - 1); i < len(qs); i = int(next.Add(1) - 1) {
			w := sisap.NewWalk(q.K, q.Radius, dead)
			if q.Approx {
				asts[i] = ApproxStats{Exact: true}
			}
			for s, seg := range v.segs {
				start := time.Now()
				var st Stats
				if q.Approx {
					// Every segment is approx-capable (checked above).
					a := w.Approx(seg.idx.(sisap.ApproxIndex), seg.part, qs[i], min(q.K, seg.db.N()), q.NProbe)
					st = a.Stats
					sums[s].ProbedBuckets += int64(a.ProbedBuckets)
					sums[s].ApproxCandidates += int64(a.Candidates)
					t := &asts[i]
					t.DistanceEvals, t.PrunedEvals = t.DistanceEvals+a.DistanceEvals, t.PrunedEvals+a.PrunedEvals
					t.ProbedBuckets, t.TotalBuckets = t.ProbedBuckets+a.ProbedBuckets, t.TotalBuckets+a.TotalBuckets
					t.Candidates, t.Exact = t.Candidates+a.Candidates, t.Exact && a.Exact
				} else {
					st = w.Search(seg.idx, seg.part, qs[i])
				}
				sums[s].DistanceEvals += int64(st.DistanceEvals)
				sums[s].PrunedEvals += int64(st.PrunedEvals)
				sums[s].Queries++
				e.slots[s].lat.Observe(time.Since(start).Seconds())
			}
			outs[i] = w.Results()
		}
		for s, c := range sums {
			if batched {
				c.BatchedQueries = c.Queries
			}
			if q.Approx {
				c.ApproxQueries = c.Queries
			}
			sl := &e.slots[s]
			sl.mu.Lock()
			sl.sums.add(c)
			sl.mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for range min(len(qs), runtime.GOMAXPROCS(0)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			serve()
		}()
	}
	serve()
	wg.Wait()
	return outs, asts, rangeFits(outs)
}

// rangeFits fails a search with an answer a range collector cut short.
func rangeFits(outs [][]Result) error {
	for _, rs := range outs {
		if len(rs) > sisap.MaxResults {
			return fmt.Errorf("distperm: a range answer holds more than %d results: %w", sisap.MaxResults, ErrOutOfRange)
		}
	}
	return nil
}

// EngineStats aggregates per-query Stats across everything the engine has
// answered — the paper's cost model (distance evaluations) lifted to the
// serving layer, plus wall-clock latency percentiles.
type EngineStats struct {
	// Queries is the number of queries answered.
	Queries int64
	// BatchedQueries is how many of those came in a multi-query exact kNN
	// search; 0 means every exact query came alone.
	BatchedQueries int64
	// ApproxQueries is how many queries were served through the approximate
	// path (KNNApproxBatch), including those whose probe set covered the
	// whole directory and degraded to the exact scan.
	ApproxQueries int64
	// ProbedBuckets sums the per-query probed-bucket counts of the
	// approximate path; ApproxCandidates sums the per-query candidate-set
	// sizes (ApproxCandidates / (ApproxQueries·N) is the aggregate candidate
	// fraction).
	ProbedBuckets    int64
	ApproxCandidates int64
	// DistinctRows is the index's distinct permutation-row count (0 when the
	// index does not expose one) — the table size of the paper's counting
	// bounds and the row universe of the prefix-bucket directory.
	DistinctRows int
	// BucketRowsHeapBytes is the heap held by bucket-major copies of the
	// coordinates and labels under the served view (PermIndex.RowsHeapBytes).
	BucketRowsHeapBytes int64
	// BoundCells is the cells its exact walks bound (PermIndex.BoundCells).
	BoundCells int
	// DistanceEvals is the total metric evaluations spent; PrunedEvals the
	// points exact queries did not measure because a bucket bound excluded
	// them (the prune rate is PrunedEvals / (PrunedEvals + DistanceEvals)).
	DistanceEvals, PrunedEvals int64
	// MeanEvals is DistanceEvals / Queries.
	MeanEvals float64
	// P50 and P99 are per-query latency percentiles read from the engine's
	// latency histogram: nearest-rank quantiles resolved to the histogram's
	// bucket edges (obs.DefLatencyBuckets, 2× steps from 1µs), covering
	// every query the engine has ever answered.
	P50, P99 time.Duration
}

// add sums o's counts into s — what a search does per goroutine and
// counters does across slots. MeanEvals and the percentiles are finish's to derive,
// DistinctRows, BucketRowsHeapBytes and BoundCells describe's.
func (s *EngineStats) add(o EngineStats) {
	s.Queries += o.Queries
	s.BatchedQueries += o.BatchedQueries
	s.ApproxQueries += o.ApproxQueries
	s.ProbedBuckets += o.ProbedBuckets
	s.ApproxCandidates += o.ApproxCandidates
	s.DistanceEvals += o.DistanceEvals
	s.PrunedEvals += o.PrunedEvals
}

// finish derives the mean from the sums and the percentiles from lat.
func (s *EngineStats) finish(lat obs.HistogramSnapshot) {
	if s.Queries > 0 {
		s.MeanEvals = float64(s.DistanceEvals) / float64(s.Queries)
	}
	if lat.Count > 0 {
		s.P50 = histQuantile(lat, 0.50)
		s.P99 = histQuantile(lat, 0.99)
	}
}

// counters sums the slots (so DistanceEvals is exactly the global cost of
// sharded serving, the paper's cost model composing additively), with the
// delta scans costed in, and merges their latency histograms. They belong to
// the engine, not to any one view, so they accumulate across rebuilds.
func (e *Engine) counters() (EngineStats, obs.HistogramSnapshot) {
	agg := EngineStats{DistanceEvals: e.deltaEvals.Load()}
	var lat obs.HistogramSnapshot
	for s := range e.slots {
		c, snap := e.slots[s].counters()
		agg.add(c)
		lat.Merge(snap)
	}
	return agg, lat
}

// counters snapshots one slot's summed counts and latency histogram.
func (sl *slot) counters() (EngineStats, obs.HistogramSnapshot) {
	sl.mu.Lock()
	c := sl.sums
	sl.mu.Unlock()
	return c, sl.lat.Snapshot()
}

// ScanSegments returns how many of the served view's segments are
// distance-permutation indexes, and which are too small to bound (Bounded).
func (e *Engine) ScanSegments() (perm int, scans []int) {
	for s, seg := range e.cur.Load().segs {
		if px, ok := seg.idx.(*sisap.PermIndex); ok {
			perm++
			if !px.Bounded() {
				scans = append(scans, s)
			}
		}
	}
	return perm, scans
}

// ShardStats returns one EngineStats snapshot per shard (a single entry for
// a plain index). Every query walks every shard, so per-shard Queries count
// sub-queries: S shards serving a B-query batch record B sub-queries each,
// and a shard's DistanceEvals, PrunedEvals and latencies are its own walks'.
// DistinctRows, BucketRowsHeapBytes and BoundCells are the shard index's
// own, and Stats reports their sums.
func (e *Engine) ShardStats() []EngineStats {
	segs := e.cur.Load().segs
	stats := make([]EngineStats, len(segs))
	for s, seg := range segs {
		c, lat := e.slots[s].counters()
		c.finish(lat)
		c.describe(seg.idx)
		stats[s] = c
	}
	return stats
}
