package dpserver

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"time"

	"distperm/pkg/distperm"
)

// Searcher is the one query method the Coalescer asks of an engine;
// *distperm.Engine provides it.
type Searcher interface {
	Search(qs []distperm.Point, q distperm.Query) ([][]distperm.Result, []distperm.ApproxStats, error)
}

// ErrCoalescerClosed is returned by Search (and KNN) after Close.
var ErrCoalescerClosed = errors.New("dpserver: coalescer is closed")

// Coalescer turns concurrent single-query calls into engine batches, but
// only while the engine is busy. It counts the batches it has inside
// backend.Search: while that count is below capacity (the number that can
// make progress at once) an arriving call runs immediately and alone, so an
// idle server never waits for company. Once capacity is taken, calls
// sharing the same distperm.Query accumulate in a pending batch, and every
// finishing flush submits the pending batches that now fit — batch size is
// clocked by engine latency: 1 when idle, up to max under load. A
// pending batch also flushes when it reaches max queries, and wait bounds
// how long it can sit behind a slow backend. Every caller gets exactly the
// answer a direct one-query engine batch would return; under load the
// engine sees multi-query batches, amortising the per-batch submission cost
// (in-flight registration, WaitGroup traffic, lock acquisitions) that
// dominates per-request serving at high concurrency.
//
// All methods are safe for concurrent use. Close flushes the pending
// batches through the backend so no caller is left waiting, waits for every
// flush still running, then refuses further calls; it does not close the
// backend.
type Coalescer struct {
	backend Searcher
	max     int
	wait    time.Duration
	// capacity is how many batches may be inside the backend before arrivals
	// start to queue: GOMAXPROCS, not backend.Workers() (which a sharded
	// engine reports as shards × workers). Batches, not queries: with a
	// second batch already submitted when the first finishes, the engine's
	// workers never idle across a batch boundary.
	capacity int
	// OnFlush, when set before the first call, observes every flushed
	// batch: its size and why it flushed (one of FlushReasons). The server
	// hooks its batch-size histogram and flush-reason counters here.
	OnFlush func(size int, reason string)

	mu       sync.Mutex
	pending  map[batchKey]*pendingBatch
	inflight int // batches inside backend.Search
	closed   bool
	batches  int64 // batches submitted to the backend
	queries  int64 // queries enqueued
	// flushes tracks every submitted batch until its waiters are woken, so
	// Close can outwait flushes it does not run itself. Add happens under mu
	// while !closed; Close waits after setting closed.
	flushes sync.WaitGroup
}

// Flush reasons reported to OnFlush and in FlushInfo.
const (
	// FlushIdle: capacity was free on arrival; the call ran at once, alone.
	FlushIdle = "idle"
	// FlushDrain: a finishing flush freed capacity and submitted the batch.
	FlushDrain = "drain"
	// FlushFull: the batch reached BatchMax and the filling caller ran it.
	FlushFull = "full"
	// FlushTimer: the batch sat pending for BatchWait behind a busy backend.
	FlushTimer = "timer"
	// FlushDirect: batching is off (BatchMax ≤ 1 or BatchWait ≤ 0).
	FlushDirect = "direct"
	// FlushClose: Close flushed a still-pending batch during shutdown.
	FlushClose = "close"
)

// FlushReasons lists every Flush* constant: the label values of
// dpserver_coalescer_flushes_total{reason=…}.
var FlushReasons = []string{FlushIdle, FlushDrain, FlushFull, FlushTimer, FlushDirect, FlushClose}

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
// whoever flushes it removes it from the map (under the same lock) before
// reading qs, so flush needs no further synchronisation. done closes after
// out, err, and info are set, so waiters read them without locking.
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

// NewCoalescer batches single queries for backend while it is busy, flushing
// a pending batch at max queries or after wait at the latest. max < 1 is
// treated as 1 and wait ≤ 0 as "no batching" — both degrade to per-call
// submission, which keeps the zero Config servable.
func NewCoalescer(backend Searcher, max int, wait time.Duration) *Coalescer {
	if max < 1 {
		max = 1
	}
	if wait < 0 {
		wait = 0
	}
	return &Coalescer{
		backend:  backend,
		max:      max,
		wait:     wait,
		capacity: runtime.GOMAXPROCS(0),
		pending:  make(map[batchKey]*pendingBatch),
	}
}

// KNN answers one kNN query through the coalescer: identical to
// backend.Search([]Point{p}, Query{K: k}) with the submission cost shared
// across the batch it lands in.
func (c *Coalescer) KNN(p distperm.Point, k int) ([]distperm.Result, error) {
	rs, _, err := c.Search(p, distperm.Query{K: k}, "")
	return rs, err
}

// Counters reports how many engine batches have been submitted and how many
// queries have been enqueued; their ratio is the achieved fill.
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
	// reason is set when this call must run the batch itself.
	reason := ""
	if !open {
		b = &pendingBatch{q: q, done: make(chan struct{})}
		switch {
		case c.max <= 1 || c.wait <= 0:
			reason = FlushDirect
		case c.inflight < c.capacity:
			reason = FlushIdle
		default:
			c.pending[key] = b
			b.timer = time.AfterFunc(c.wait, func() { c.flushTimed(key, b) })
		}
	}
	idx := len(b.qs)
	b.qs = append(b.qs, p)
	if reqID != "" && len(b.ids) < coalesceTracedIDs {
		b.ids = append(b.ids, reqID)
	}
	c.queries++
	if open && len(b.qs) >= c.max {
		delete(c.pending, key)
		reason = FlushFull
	}
	if reason != "" {
		c.submit(b)
	}
	c.mu.Unlock()

	if reason != "" {
		c.flush(b, reason)
	}
	<-b.done
	if b.err != nil {
		return nil, b.info, b.err
	}
	return b.out[idx], b.info, nil
}

// submit accounts for b as on its way to the backend. The caller holds mu,
// has removed b from the pending map (or never published it), and must call
// flush(b, …) after unlocking. The timer, if racing, sees the batch gone
// from the pending map and stands down.
func (c *Coalescer) submit(b *pendingBatch) {
	if b.timer != nil {
		b.timer.Stop()
	}
	c.inflight++
	c.batches++
	c.flushes.Add(1)
}

// flushTimed is the backstop: flush the batch if it is still pending wait
// after it opened — the backend has been busy that long.
func (c *Coalescer) flushTimed(key batchKey, b *pendingBatch) {
	c.mu.Lock()
	if c.pending[key] != b {
		c.mu.Unlock()
		return
	}
	delete(c.pending, key)
	c.submit(b)
	c.mu.Unlock()
	c.flush(b, FlushTimer)
}

// flush runs a submitted batch through the backend, hands the capacity it
// frees to the pending batches that fit, and wakes its waiters. b.qs is
// frozen here.
func (c *Coalescer) flush(b *pendingBatch, reason string) {
	defer c.flushes.Done()
	b.info = FlushInfo{Size: len(b.qs), Reason: reason, RequestIDs: b.ids}
	b.out, _, b.err = c.backend.Search(b.qs, b.q)
	c.mu.Lock()
	c.inflight--
	for key, next := range c.pending {
		if c.inflight >= c.capacity {
			break
		}
		delete(c.pending, key)
		c.submit(next)
		go c.flush(next, FlushDrain)
	}
	c.mu.Unlock()
	if c.OnFlush != nil {
		c.OnFlush(len(b.qs), reason)
	}
	close(b.done)
}

// Close flushes every pending batch through the backend — callers blocked
// in Search get real answers (or the backend's error, if it is already
// closed) — waits for every flush still running, and fails calls arriving
// afterwards with ErrCoalescerClosed. Idempotent (a repeated Close still
// returns only once no flush is running); does not close the backend.
func (c *Coalescer) Close() {
	c.mu.Lock()
	stale := c.pending
	c.pending = nil
	c.closed = true
	for _, b := range stale {
		c.submit(b)
	}
	c.mu.Unlock()
	for _, b := range stale {
		c.flush(b, FlushClose)
	}
	c.flushes.Wait()
}
