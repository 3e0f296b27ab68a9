package dpserver

import (
	"errors"
	"math"
	"sync"
	"time"

	"distperm/pkg/distperm"
	"distperm/pkg/obs"
)

// Searcher is the one query method the serving layer asks of an engine —
// all the Coalescer needs; *distperm.Engine, *distperm.ShardedEngine, and
// *distperm.MutableEngine all provide it.
type Searcher interface {
	Search(qs []distperm.Point, q distperm.Query) ([][]distperm.Result, []distperm.ApproxStats, error)
}

// Backend is everything the Server calls on whichever engine it fronts:
// the query path, the counters behind /v1/stats and /metrics, and Close.
// An index without approximate-search support reports it per request
// (distperm.ErrNoApprox from Search, answered 400).
type Backend interface {
	Searcher
	Stats() distperm.EngineStats
	LatencySnapshot() obs.HistogramSnapshot
	Workers() int
	BusyWorkers() int
	Close()
}

// MutableBackend extends Backend with the live write path;
// *distperm.MutableEngine satisfies it. A Server whose backend is mutable
// serves POST /v1/insert and /v1/delete. WALStats reports Enabled=false
// when no log is attached.
type MutableBackend interface {
	Backend
	Insert(p distperm.Point) (int, error)
	Delete(id int) error
	MutationStats() distperm.MutationStats
	WALStats() distperm.WALStats
}

// ErrCoalescerClosed is returned by Search (and KNN) after Close.
var ErrCoalescerClosed = errors.New("dpserver: coalescer is closed")

// Coalescer turns concurrent single-query calls into engine batches: calls
// sharing the same distperm.Query accumulate in a pending batch that flushes
// when it reaches max queries or when wait elapses since the batch opened,
// whichever comes first. Every caller gets
// exactly the answer a direct one-query engine batch would return, but the
// engine sees max-query batches, amortising the per-batch submission cost
// (in-flight registration, WaitGroup traffic, lock acquisitions) that
// dominates per-request serving at high concurrency.
//
// All methods are safe for concurrent use. Close flushes the pending
// batches through the backend so no caller is left waiting, then refuses
// further calls; it does not close the backend.
type Coalescer struct {
	backend Searcher
	max     int
	wait    time.Duration
	// OnFlush, when set before the first call, observes every flushed
	// batch: its size and why it flushed ("full", "timer", "direct",
	// "close"). The server hooks its batch-size histogram and flush-reason
	// counters here.
	OnFlush func(size int, reason string)

	mu      sync.Mutex
	pending map[batchKey]*pendingBatch
	closed  bool
	batches int64 // flushed batches
	queries int64 // queries enqueued
}

// Flush reasons reported to OnFlush and in FlushInfo.
const (
	// FlushFull: the batch reached BatchMax and the filling caller ran it.
	FlushFull = "full"
	// FlushTimer: BatchWait elapsed before the batch filled.
	FlushTimer = "timer"
	// FlushDirect: no batching window was configured; the call ran alone.
	FlushDirect = "direct"
	// FlushClose: Close flushed a still-open batch during shutdown.
	FlushClose = "close"
)

// FlushInfo describes the engine batch a coalesced call was answered in —
// the slow-query log's view of what the request shared its fate with.
type FlushInfo struct {
	// Size is how many queries the flushed batch carried.
	Size int
	// Reason is why the batch flushed: one of the Flush* constants.
	Reason string
	// RequestIDs holds the request IDs coalesced into the batch, capped at
	// coalesceTracedIDs entries to bound the log line.
	RequestIDs []string
}

// coalesceTracedIDs caps FlushInfo.RequestIDs.
const coalesceTracedIDs = 16

// batchKey groups coalescable calls: points answer as one engine batch only
// if they carry the same Query. The radius is keyed by its bit pattern, not
// its float value — a NaN radius must still equal itself as a map key, or
// its pending batch could never be found again.
type batchKey struct {
	q distperm.Query // with Radius zeroed; r carries it
	r uint64         // math.Float64bits of the radius
}

func keyOf(q distperm.Query) batchKey {
	k := batchKey{q: q, r: math.Float64bits(q.Radius)}
	k.q.Radius = 0
	return k
}

// pendingBatch accumulates the queries of one future engine batch. Appends
// happen under the coalescer lock while the batch is in the pending map;
// the flusher removes it from the map (under the same lock) before reading
// qs, so flush needs no further synchronisation. done closes after out,
// err, and info are set, so waiters read them without locking.
type pendingBatch struct {
	q     distperm.Query
	qs    []distperm.Point
	ids   []string // request IDs of the coalesced calls, capped
	out   [][]distperm.Result
	err   error
	info  FlushInfo
	done  chan struct{}
	timer *time.Timer
}

// NewCoalescer batches single queries for backend, flushing at max queries
// or after wait, whichever comes first. max < 1 is treated as 1 and wait ≤ 0
// as "no window" — both degrade to per-call submission, which keeps the
// zero Config servable.
func NewCoalescer(backend Searcher, max int, wait time.Duration) *Coalescer {
	if max < 1 {
		max = 1
	}
	if wait < 0 {
		wait = 0
	}
	return &Coalescer{
		backend: backend,
		max:     max,
		wait:    wait,
		pending: make(map[batchKey]*pendingBatch),
	}
}

// KNN answers one kNN query through the coalescer: identical to
// backend.Search([]Point{p}, Query{K: k}) with the submission cost shared
// across the batch it lands in.
func (c *Coalescer) KNN(p distperm.Point, k int) ([]distperm.Result, error) {
	rs, _, err := c.Search(p, distperm.Query{K: k}, "")
	return rs, err
}

// Counters reports how many engine batches have been flushed and how many
// queries they carried; their ratio is the achieved fill.
func (c *Coalescer) Counters() (batches, queries int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.batches, c.queries
}

// Search answers q for the one point p through the coalescer, carrying the
// caller's request ID (if any) into the batch and reporting, alongside the
// answer, which flush served it — what the server's slow-query log reads.
func (c *Coalescer) Search(p distperm.Point, q distperm.Query, reqID string) ([]distperm.Result, FlushInfo, error) {
	key := keyOf(q)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, FlushInfo{}, ErrCoalescerClosed
	}
	b, open := c.pending[key]
	if !open {
		b = &pendingBatch{q: q, done: make(chan struct{})}
		if c.max > 1 && c.wait > 0 {
			c.pending[key] = b
			open = true
			b.timer = time.AfterFunc(c.wait, func() { c.flushTimed(key, b) })
		}
		// Otherwise there is no batching window: the batch never enters the
		// pending map and this call flushes it alone below.
	}
	idx := len(b.qs)
	b.qs = append(b.qs, p)
	if reqID != "" && len(b.ids) < coalesceTracedIDs {
		b.ids = append(b.ids, reqID)
	}
	c.queries++
	full := len(b.qs) >= c.max || !open
	if full && open {
		delete(c.pending, key)
	}
	c.mu.Unlock()

	if full {
		// The caller that filled the batch runs it; the timer, if racing,
		// sees the batch gone from the pending map and stands down.
		if b.timer != nil {
			b.timer.Stop()
		}
		reason := FlushFull
		if !open {
			reason = FlushDirect
		}
		c.flush(b, reason)
	}
	<-b.done
	if b.err != nil {
		return nil, b.info, b.err
	}
	return b.out[idx], b.info, nil
}

// flushTimed is the wait-window path: flush the batch if the fill path has
// not already taken it.
func (c *Coalescer) flushTimed(key batchKey, b *pendingBatch) {
	c.mu.Lock()
	if c.pending[key] != b {
		c.mu.Unlock()
		return
	}
	delete(c.pending, key)
	c.mu.Unlock()
	c.flush(b, FlushTimer)
}

// flush submits the batch to the backend and wakes its waiters. The caller
// must have removed b from the pending map (or never published it), so b.qs
// is frozen here.
func (c *Coalescer) flush(b *pendingBatch, reason string) {
	b.info = FlushInfo{Size: len(b.qs), Reason: reason, RequestIDs: b.ids}
	defer close(b.done)
	b.out, _, b.err = c.backend.Search(b.qs, b.q)
	c.mu.Lock()
	c.batches++
	c.mu.Unlock()
	if c.OnFlush != nil {
		c.OnFlush(len(b.qs), reason)
	}
}

// Close flushes every pending batch through the backend — callers blocked
// in Search get real answers (or the backend's error, if it is already
// closed) — and fails calls arriving afterwards with ErrCoalescerClosed.
// Idempotent; does not close the backend.
func (c *Coalescer) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	stale := c.pending
	c.pending = nil
	c.mu.Unlock()
	for _, b := range stale {
		if b.timer != nil {
			b.timer.Stop()
		}
		c.flush(b, FlushClose)
	}
}
