package distperm

import (
	"errors"
	"fmt"
	"math"
	"runtime"
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

// validate rejects a Query no engine over n points can serve, tagging the
// error ErrOutOfRange.
func (q Query) validate(n int) error {
	switch {
	case q.knn() && (q.K < 1 || q.K > n):
		return fmt.Errorf("distperm: k=%d %w 1..%d", q.K, ErrOutOfRange, n)
	case !q.knn() && q.Radius < 0:
		return fmt.Errorf("distperm: negative radius %g is %w", q.Radius, ErrOutOfRange)
	}
	return nil
}

// searcher is what each engine implements itself; the rest of the shared
// query/stats surface is engineAPI, written once over it.
type searcher interface {
	Search(qs []Point, q Query) ([][]Result, []ApproxStats, error)
	counters() (EngineStats, obs.HistogramSnapshot)
	DistinctRows() int
}

// engineAPI is the method family Engine, ShardedEngine, and MutableEngine
// share; each engine embeds one pointing back at itself.
type engineAPI struct{ self searcher }

// KNNBatch is Search(qs, Query{K: k}): out[i] holds the k nearest database
// points to qs[i] in increasing (distance, ID) order — identical to
// querying the index sequentially.
func (a engineAPI) KNNBatch(qs []Point, k int) ([][]Result, error) {
	if k < 1 {
		// Query{K: 0} would be a range query; k = 0 stays the error it was.
		return nil, fmt.Errorf("distperm: k=%d %w (need k ≥ 1)", k, ErrOutOfRange)
	}
	outs, _, err := a.self.Search(qs, Query{K: k})
	return outs, err
}

// RangeBatch is Search(qs, Query{Radius: r}): out[i] holds every point
// within r of qs[i], in (distance, ID) order.
func (a engineAPI) RangeBatch(qs []Point, r float64) ([][]Result, error) {
	outs, _, err := a.self.Search(qs, Query{Radius: r})
	return outs, err
}

// KNNApproxBatch is Search(qs, Query{K: k, Approx: true, NProbe: nprobe}),
// returning the per-query probe statistics too.
func (a engineAPI) KNNApproxBatch(qs []Point, k, nprobe int) ([][]Result, []ApproxStats, error) {
	return a.self.Search(qs, Query{K: k, Approx: true, NProbe: nprobe})
}

// Stats returns a snapshot of the engine-level counters. Across shards the
// counts sum (each shard answers every scattered query, so Queries counts
// sub-queries); across a MutableEngine's rebuilds they accumulate, with the
// gather-time delta scans costed into DistanceEvals.
func (a engineAPI) Stats() EngineStats {
	st, lat := a.self.counters()
	st.finish(lat)
	st.DistinctRows = a.self.DistinctRows()
	return st
}

// LatencySnapshot returns the per-query latency histogram, merged across
// shards and (on a MutableEngine) across every epoch served — the source
// /metrics exposes and Stats reads its percentiles from.
func (a engineAPI) LatencySnapshot() obs.HistogramSnapshot {
	_, lat := a.self.counters()
	return lat
}

// histQuantile reads the q-quantile from a latency histogram snapshot as
// a Duration — the nearest-rank bucket edge, see
// obs.HistogramSnapshot.Quantile.
func histQuantile(s obs.HistogramSnapshot, q float64) time.Duration {
	return time.Duration(math.Round(s.Quantile(q) * 1e9))
}

// Engine is a concurrent query engine over one built index: a pool of
// worker goroutines, each holding its own query replica of the index (the
// distance-permutation index's Permuter carries scratch buffers and is not
// goroutine-safe; sisap.QueryReplica clones it per worker, while the
// read-only indexes are shared). Each Search fans its query points out
// across the pool and per-query Stats fold into engine-level counters.
//
// Search (and the KNNBatch/RangeBatch/KNNApproxBatch wrappers over it) is
// safe to call from many goroutines at once; queries from concurrent
// batches interleave on the same pool. Close is safe to race with in-flight
// batches: it waits for every batch that observed the engine open to finish
// sending before the job channel closes.
type Engine struct {
	engineAPI
	db      *DB
	idx     Index
	workers int
	jobs    chan job

	workerWG  sync.WaitGroup
	closeOnce sync.Once

	mu sync.Mutex
	// closed and inflight together serialise submission against Close:
	// Search registers with inflight under mu while closed is still false,
	// so once Close flips closed and inflight drains, no batch can be
	// sending on jobs and closing the channel is safe.
	closed   bool
	inflight sync.WaitGroup
	sums     EngineStats // the summed fields only; see EngineStats.add
	// lat holds every per-query latency in a fixed-bucket histogram
	// (obs.DefLatencyBuckets): constant memory regardless of lifetime,
	// lock-free to observe, mergeable across shards and epochs, and the
	// one source Stats percentiles and /metrics exposition both read.
	lat *obs.Histogram
	// busy counts workers currently serving a job — the pool-utilization
	// gauge (0..workers).
	busy atomic.Int64
}

// job is one worker's share of a Search: a contiguous slice of its query
// points, the Query they all carry, and the caller's result (and, for
// approximate queries, stats) slots for exactly those points.
type job struct {
	qs   []Point
	q    Query
	outs [][]Result
	asts []ApproxStats // non-nil iff q.Approx
	// batched routes an exact kNN job through the replica's KNNBatch (one
	// walk of the coordinate tiles for the whole job) and counts it in
	// BatchedQueries. It belongs to the Search call, not this job: a
	// 2-query batch on 2 workers is two batched 1-query jobs.
	batched bool
	wg      *sync.WaitGroup
}

// engineChunkCap bounds the queries a single sub-batch job carries. A
// coordinate tile is already read from L1 by every query after the first,
// so a longer job amortises nothing more and only worsens load balance.
const engineChunkCap = 64

// NewEngine starts a worker pool of the given size (≤ 0 means
// runtime.NumCPU()) over idx, which must have been built on db.
func NewEngine(db *DB, idx Index, workers int) (*Engine, error) {
	if db == nil || idx == nil {
		return nil, fmt.Errorf("distperm: NewEngine requires a database and an index")
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	e := &Engine{
		db:      db,
		idx:     idx,
		workers: workers,
		jobs:    make(chan job, 4*workers),
		lat:     obs.NewHistogram(obs.DefLatencyBuckets),
	}
	e.engineAPI = engineAPI{e}
	for i := 0; i < workers; i++ {
		replica := sisap.QueryReplica(idx)
		e.workerWG.Add(1)
		go e.worker(replica)
	}
	return e, nil
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// Index returns the engine's underlying index.
func (e *Engine) Index() Index { return e.idx }

func (e *Engine) worker(idx Index) {
	defer e.workerWG.Done()
	for j := range e.jobs {
		e.busy.Add(1)
		e.serve(idx, j)
		e.busy.Add(-1)
		j.wg.Done()
	}
}

// serve answers one job on the worker's replica. Stats stay per-query:
// each query contributes its own DistanceEvals (and probe statistics), and
// the job's wall time is attributed evenly across its queries in the
// latency histogram (queries inside one kernel pass have no individual
// wall times).
func (e *Engine) serve(idx Index, j job) {
	start := time.Now()
	c := EngineStats{Queries: int64(len(j.qs))}
	switch {
	case j.q.Approx:
		c.ApproxQueries = c.Queries
		if a, ok := idx.(sisap.ApproxIndex); ok {
			rs, sts := a.KNNApproxBatch(j.qs, j.q.K, j.q.NProbe)
			copy(j.outs, rs)
			copy(j.asts, sts)
		} else {
			// The engine's index was approx-capable but this worker's replica
			// is not (a custom Replicable could downgrade); serve exactly and
			// report full coverage — correct answers at the cost of the
			// speedup.
			for i, q := range j.qs {
				var st Stats
				j.outs[i], st = idx.KNN(q, j.q.K)
				j.asts[i] = ApproxStats{Stats: st, Candidates: e.db.N(), Exact: true}
			}
		}
		for _, st := range j.asts {
			c.DistanceEvals += int64(st.DistanceEvals)
			c.ProbedBuckets += int64(st.ProbedBuckets)
			c.ApproxCandidates += int64(st.Candidates)
		}
	case j.batched:
		c.BatchedQueries = c.Queries
		if b, ok := idx.(sisap.BatchIndex); ok {
			rs, sts := b.KNNBatch(j.qs, j.q.K)
			copy(j.outs, rs)
			for _, st := range sts {
				c.DistanceEvals += int64(st.DistanceEvals)
			}
			break
		}
		// The engine's index was batch-native but this worker's replica is
		// not (the same downgrade); serve the sub-batch query by query with
		// identical answers.
		fallthrough
	default:
		for i, q := range j.qs {
			var st Stats
			if j.q.knn() {
				j.outs[i], st = idx.KNN(q, j.q.K)
			} else {
				j.outs[i], st = idx.Range(q, j.q.Radius)
			}
			c.DistanceEvals += int64(st.DistanceEvals)
		}
	}
	sec := (time.Since(start) / time.Duration(len(j.qs))).Seconds()

	e.mu.Lock()
	e.sums.add(c)
	e.mu.Unlock()
	for range j.qs {
		e.lat.Observe(sec)
	}
}

// Search answers q for every point of qs, fanned out across the worker
// pool: outs[i] is the answer for qs[i], and asts[i] its probe statistics
// when q.Approx (nil otherwise). Multi-query kNN over a batch-native index,
// and every approximate search, travel as contiguous sub-batches: an exact
// chunk shares each coordinate tile across its queries (KNNBatch), an
// approximate chunk is answered query by query on one replica's scratch;
// the chunk size spreads the batch across the full pool (⌈B/workers⌉) and
// is capped at engineChunkCap — per-query cost is homogeneous there, so
// equal-size contiguous chunks load-balance. Everything else travels one
// query per job.
func (e *Engine) Search(qs []Point, q Query) ([][]Result, []ApproxStats, error) {
	if _, ok := e.idx.(sisap.ApproxIndex); q.Approx && !ok {
		return nil, nil, fmt.Errorf("distperm: %w", ErrNoApprox)
	}
	if err := q.validate(e.db.N()); err != nil {
		return nil, nil, err
	}
	// A closed engine answers the empty batch too — there is no work a
	// worker would have to do.
	if len(qs) == 0 {
		return [][]Result{}, nil, nil
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, nil, fmt.Errorf("distperm: engine is closed")
	}
	e.inflight.Add(1)
	e.mu.Unlock()
	defer e.inflight.Done()

	_, batchNative := e.idx.(sisap.BatchIndex)
	batched := batchNative && q.knn() && !q.Approx && len(qs) > 1
	chunk := 1
	if batched || q.Approx {
		chunk = min((len(qs)+e.workers-1)/e.workers, engineChunkCap)
	}
	outs := make([][]Result, len(qs))
	var asts []ApproxStats
	if q.Approx {
		asts = make([]ApproxStats, len(qs))
	}
	var wg sync.WaitGroup
	for base := 0; base < len(qs); base += chunk {
		end := min(base+chunk, len(qs))
		j := job{qs: qs[base:end], q: q, outs: outs[base:end], batched: batched, wg: &wg}
		if q.Approx {
			j.asts = asts[base:end]
		}
		wg.Add(1)
		e.jobs <- j
	}
	wg.Wait()
	return outs, asts, nil
}

// ApproxBuckets returns the index's inverted-file directory size — the
// bound nprobe is measured against — or 0 when the index has no
// approximate-search capability.
func (e *Engine) ApproxBuckets() int {
	if a, ok := e.idx.(sisap.ApproxIndex); ok {
		return a.ApproxBuckets()
	}
	return 0
}

// DistinctRows returns the index's distinct permutation-row count — the
// paper's table size and the universe the prefix-bucket directory is built
// over — or 0 when the index does not expose it.
func (e *Engine) DistinctRows() int {
	if d, ok := e.idx.(interface{ DistinctPermutations() int }); ok {
		return d.DistinctPermutations()
	}
	return 0
}

// Close shuts the pool down after in-flight queries finish. It is
// idempotent; batches submitted after Close return an error.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.mu.Lock()
		e.closed = true
		e.mu.Unlock()
		// New submissions are now refused; wait for batches that got in
		// before the flip to finish sending, then closing jobs is safe.
		e.inflight.Wait()
		close(e.jobs)
	})
	e.workerWG.Wait()
}

// EngineStats aggregates per-query Stats across everything the engine has
// answered — the paper's cost model (distance evaluations) lifted to the
// serving layer, plus wall-clock latency percentiles.
type EngineStats struct {
	// Queries is the number of queries answered.
	Queries int64
	// BatchedQueries is how many of those were served through the sub-batch
	// fast path (batch-native index kernels); 0 means every query ran the
	// per-query path.
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
	// DistanceEvals is the total metric evaluations spent.
	DistanceEvals int64
	// MeanEvals is DistanceEvals / Queries.
	MeanEvals float64
	// P50 and P99 are per-query latency percentiles read from the engine's
	// latency histogram: nearest-rank quantiles resolved to the histogram's
	// bucket edges (obs.DefLatencyBuckets, 2× steps from 1µs), covering
	// every query the engine has ever answered.
	P50, P99 time.Duration
}

// add sums o's counts into s — what a worker does per job, the sharded
// layer across shards, and the mutable layer across epochs. MeanEvals and
// the percentiles are finish's to derive, DistinctRows the caller's to set.
func (s *EngineStats) add(o EngineStats) {
	s.Queries += o.Queries
	s.BatchedQueries += o.BatchedQueries
	s.ApproxQueries += o.ApproxQueries
	s.ProbedBuckets += o.ProbedBuckets
	s.ApproxCandidates += o.ApproxCandidates
	s.DistanceEvals += o.DistanceEvals
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

// counters snapshots the summed counts and the latency histogram.
func (e *Engine) counters() (EngineStats, obs.HistogramSnapshot) {
	e.mu.Lock()
	c := e.sums
	e.mu.Unlock()
	return c, e.lat.Snapshot()
}

// BusyWorkers returns how many pool workers are serving a job right now,
// in [0, Workers()] — the utilization gauge exposed on /metrics.
func (e *Engine) BusyWorkers() int { return int(e.busy.Load()) }

// Percentile reads the q-quantile from an ascending-sorted non-empty sample
// by the nearest-rank method: the smallest value with at least q·n samples
// at or below it, index ⌈q·n⌉−1. It is the single definition every latency
// percentile in the repo uses — the engine, the sharded aggregate, and the
// load driver (pkg/dpserver/client) — so they cannot drift.
func Percentile(sorted []time.Duration, q float64) time.Duration {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
