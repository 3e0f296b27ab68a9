// Package dpserver is the network serving subsystem over the distperm
// query-engine layer: it exposes a distperm.Engine as a JSON HTTP service,
// the step that takes the index family from in-process batches to
// multi-user traffic.
//
// Endpoints:
//
//	POST /v1/knn    kNN queries, single ({"query": ..., "k": 3}) or batched
//	                ({"queries": [...], "k": 3})
//	POST /v1/range  range queries, single or batched, radius in "r"
//	POST /v1/insert add points ({"point": ...} or {"points": [...]});
//	                answers carry the stable global IDs granted
//	POST /v1/delete remove points by global ID ({"id": 4} or {"ids": [...]})
//	GET  /v1/stats  engine counters (queries, distance evaluations, latency
//	                percentiles) plus server counters (requests, cache
//	                hits/misses) and, on mutable servers, the write path
//	                (delta size, tombstones, rebuilds)
//	GET  /v1/index  what is being served (kind, bits, live points, shards,
//	                fan-out width), read off the engine at each request
//	GET  /healthz   liveness (200 whenever the process can answer HTTP)
//	GET  /readyz    readiness (the Gate answers 503 until the index loads)
//	GET  /metrics   Prometheus text exposition (see the Observability
//	                section of the README for the metric inventory)
//
// The write endpoints are live when the engine takes writes
// (distperm.WrapMutable, or Open with a log or a rebuild threshold); a
// read-only engine's server answers them 409. A write
// returns only after the mutation is visible to every subsequent query
// (read-your-writes) and after the result cache is invalidated — the cache
// is generation-stamped, so a query racing the mutation cannot re-poison
// it with a pre-mutation answer.
//
// A bounded LRU result cache answers a repeated exact single query without
// any engine work. Every other query request — single or batch, exact or
// approximate — is one Engine.Search behind an admission gate: at most
// GOMAXPROCS requests are inside the engine at once, the rest wait for a
// slot in arrival order, and one whose client leaves while it waits never
// reaches the engine. An idle gate admits at once. Writes bypass the gate.
//
// Serve runs the server with graceful shutdown: in-flight requests drain,
// and only then does the engine close. Command distpermd is the daemon
// around this package, and pkg/dpserver/client is the matching Go client.
package dpserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"distperm/pkg/distperm"
	"distperm/pkg/obs"
)

// Config tunes the serving layers. The zero value serves correctly:
// CacheSize ≤ 0 disables the result cache.
type Config struct {
	// Deprecated: ignored; nothing batches queries across requests.
	BatchMax int
	// Deprecated: ignored; nothing batches queries across requests.
	BatchWait time.Duration
	// CacheSize bounds the LRU result cache in entries.
	CacheSize int
	// Registry receives the server's metric families (exported on
	// GET /metrics). nil gives the server a private registry, so multiple
	// servers in one process never collide on registration.
	Registry *obs.Registry
	// SlowQuery is the slow-query threshold: single queries slower than
	// this are logged as one-line JSON records. ≤ 0 disables the log.
	SlowQuery time.Duration
	// SlowQueryLog receives the slow-query records; nil means os.Stderr.
	SlowQueryLog io.Writer
}

// Server is the HTTP serving layer over one engine. Create with New, serve
// with Serve (or mount it as an http.Handler and call Close yourself).
type Server struct {
	engine *distperm.Engine
	admit  *admission
	cache  *Cache
	mux    *http.ServeMux

	metrics *serverMetrics
	slow    *slowLogger
	// ridPrefix + ridSeq mint request IDs for requests that arrive without
	// an X-Request-ID; the prefix keeps IDs unique across server restarts.
	ridPrefix string
	ridSeq    atomic.Uint64

	// What /v1/stats reports beyond the per-endpoint request and error
	// counters of metrics: queries by request form and accepted mutations.
	singleQueries, batchQueries, inserts, deletes atomic.Int64
}

// New wraps e in a Server with an admission gate and cfg's cache. What it
// serves — kind, base, bits, metric, shards, workers, whether writes are
// taken and the point shape — is read off the engine. The Server owns the engine:
// Close (or Serve's shutdown path) closes it.
func New(e *distperm.Engine, cfg Config) (*Server, error) {
	if e == nil {
		return nil, fmt.Errorf("dpserver: New requires an engine")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		engine:    e,
		cache:     NewCache(cfg.CacheSize),
		mux:       http.NewServeMux(),
		ridPrefix: fmt.Sprintf("%x-", time.Now().UnixNano()),
	}
	s.metrics = newServerMetrics(reg, e, s.cache)
	s.admit = newAdmission(e, s.metrics.admissionWait)
	slowOut := cfg.SlowQueryLog
	if slowOut == nil {
		slowOut = os.Stderr
	}
	s.slow = newSlowLogger(cfg.SlowQuery, slowOut, s.metrics.slowQueries)
	s.mux.HandleFunc("POST /v1/knn", s.handleKNN)
	s.mux.HandleFunc("POST /v1/range", s.handleRange)
	s.mux.HandleFunc("POST /v1/insert", s.handleInsert)
	s.mux.HandleFunc("POST /v1/delete", s.handleDelete)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/index", s.handleIndex)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.Handle("GET /metrics", reg)
	return s, nil
}

// Registry returns the registry the server's metric families live on, for
// mounting /metrics on an ops listener alongside the serving port.
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }

// NewFromIndex is New over NewEngine(db, idx, workers); workers is ignored.
func NewFromIndex(db *distperm.DB, idx distperm.Index, workers int, cfg Config) (*Server, error) {
	e, err := distperm.NewEngine(db, idx, workers)
	if err != nil {
		return nil, err
	}
	return New(e, cfg)
}

// NewFromMutable is New(me, cfg).
func NewFromMutable(me *distperm.Engine, cfg Config) (*Server, error) { return New(me, cfg) }

// Info returns what the server is serving now: the body of GET /v1/index.
// N is the live point count; a writable store's Kind is "mutable", and its
// Base and Bits are those of the index under its delta.
func (s *Server) Info() IndexInfo {
	e := s.engine
	info := IndexInfo{
		Kind:    e.Index().Name(),
		Bits:    e.Index().IndexBits(),
		N:       e.LiveN(),
		Metric:  e.Metric().Name(),
		Shards:  e.Shards(),
		Workers: e.Workers(),
		Mutable: e.Mutable(),
	}
	if info.Mutable {
		info.Base, info.Bits = e.BaseKind(), e.IndexBits()
	}
	return info
}

// ridHeader is X-Request-ID in its canonical form, which net/http looks up
// without allocating.
const ridHeader = "X-Request-Id"

// ServeHTTP implements http.Handler. It is the instrumentation middleware:
// every request gets an ID (the client's X-Request-ID when it is at most
// maxRequestIDBytes long, else a minted one), set on the response header —
// where the handler reads it back — and is counted into its endpoint's
// request/error/latency series — the only request accounting there is;
// /v1/stats sums them — and the in-flight gauge.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	em := s.metrics.endpoint(r.URL.Path)
	reqID := r.Header.Get(ridHeader)
	if reqID == "" || len(reqID) > maxRequestIDBytes {
		var buf [48]byte
		reqID = string(strconv.AppendUint(append(buf[:0], s.ridPrefix...), s.ridSeq.Add(1), 10))
	}
	w.Header().Set(ridHeader, reqID)

	em.requests.Inc()
	s.metrics.inflight.Add(1)
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	s.mux.ServeHTTP(sw, r)
	s.metrics.inflight.Add(-1)
	if sw.code >= 400 {
		em.errors.Inc()
	}
	em.latency.Observe(time.Since(start).Seconds())
}

// Close closes the engine. Idempotent. Callers using Serve never need it.
func (s *Server) Close() { s.engine.Close() }

// Serve answers HTTP on ln until ctx is cancelled, then shuts down
// gracefully: stop accepting, drain in-flight handlers, close the engine.
// It returns nil after a clean shutdown.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	return Serve(ctx, ln, s, drainTimeout, s.Close)
}

// Serve is the one serve loop of the package and its daemon: it answers
// HTTP on ln with h until ctx is cancelled, then stops accepting, gives
// in-flight handlers up to drain to finish, and only then runs after (nil
// for none) — so whatever after closes is out of every handler's reach. A
// listener failure skips the drain and runs after at once. It returns nil
// after a clean shutdown.
func Serve(ctx context.Context, ln net.Listener, h http.Handler, drain time.Duration, after func()) error {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	var err error
	select {
	case err = <-errc:
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		err = hs.Shutdown(sctx) // in-flight handlers finish before this returns
	}
	if after != nil {
		after()
	}
	return err
}

// WriteStatus answers the probes' one JSON shape, {"status": status}, under
// code.
func WriteStatus(w http.ResponseWriter, code int, status string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"status\":%q}\n", status)
}

// --- handlers ---

// Fixed limits on what a client may send: maxBodyBytes bounds a POST body
// (a larger one is answered 413 before it is buffered whole), maxBatch the
// queries, points or IDs of one request (400: a body-sized batch of exact
// queries would hold the engine for minutes after its client has gone),
// maxResults the answers one request may ask for (queries × k) or find (400:
// the engine holds every one before the first byte is written),
// maxRequestIDBytes the X-Request-ID a client may choose (it is echoed and
// copied into the slow-query record), readHeaderTimeout how long a
// connection may take to send its headers and idleTimeout how long a
// kept-alive one may sit between requests; drainTimeout is what a shutdown
// grants in-flight handlers.
const (
	maxBodyBytes      = 8 << 20
	maxBatch          = 4096
	maxResults        = 1 << 20
	maxRequestIDBytes = 128
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	drainTimeout      = 15 * time.Second
)

// batchFits answers 400 for a batched request of more than maxBatch items
// and reports whether the handler may go on.
func (s *Server) batchFits(w http.ResponseWriter, field string, n int) bool {
	if n > maxBatch {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("%d %s in one request, limit %d", n, field, maxBatch))
	}
	return n <= maxBatch
}

// decodeBody decodes the JSON request body of a write into req, answering
// as badBody does when it cannot. It reports whether the handler may go on.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, req any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(req)
	if err != nil {
		s.badBody(w, err)
	}
	return err == nil
}

// badBody answers a body that could not be read or decoded: 413 for one
// over maxBodyBytes, 400 otherwise.
func (s *Server) badBody(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.fail(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		return
	}
	s.fail(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	qb, ok := s.readQuery(w, r, false)
	if !ok {
		return
	}
	// A writable store's count can move before the query runs; there the
	// bound check falls to the engine, whose range errors surface as 400s.
	if k, n := qb.q.K, s.engine.LiveN(); k < 1 || (!s.engine.Mutable() && k > n) {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("k=%d out of range 1..%d", k, n))
		return
	}
	s.answer(w, r, "knn", qb)
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	qb, ok := s.readQuery(w, r, true)
	if !ok {
		return
	}
	if rad := qb.q.Radius; rad < 0 || math.IsNaN(rad) {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("bad radius %g", rad))
		return
	}
	s.answer(w, r, "range", qb)
}

// answer runs the shared request shape of /v1/knn and /v1/range: exactly
// one of single/batch, at most maxResults answers, points decoded and
// validated, then answered: an exact single query from the cache if it
// can be, everything else — a cache miss, a batch, and any approximate
// request, whose answer depends on nprobe and on the live directory — by
// one Engine.Search through the admission gate. Computed (non-cache-hit)
// answers are timed against the slow-query threshold, and approximate
// answers carry their aggregated probe accounting.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, endpoint string, qb queryBody) {
	q := qb.q
	rec := slowQueryRecord{Endpoint: endpoint, K: q.K, Radius: q.Radius, RequestID: w.Header().Get(ridHeader)}
	n := len(qb.pts) + len(qb.raws)
	switch {
	case qb.single && qb.batch:
		s.fail(w, http.StatusBadRequest, `"query" and "queries" are mutually exclusive`)
		return
	case !qb.single && !qb.batch:
		s.fail(w, http.StatusBadRequest, `one of "query" or "queries" is required`)
		return
	case qb.batch && !s.batchFits(w, "queries", n):
		return
	case n > 0 && q.K > maxResults/n:
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("%d queries × k=%d results in one request, limit %d", n, q.K, maxResults))
		return
	}
	qs := qb.pts
	if qb.raws != nil {
		qs = make([]distperm.Point, n)
	}
	for i := range qs {
		var err error
		if qb.raws != nil {
			qs[i], err = DecodePoint(qb.raws[i])
		}
		if err == nil {
			err = s.checkPoint(qs[i])
		}
		if err != nil {
			msg := err.Error()
			if !qb.single {
				msg = fmt.Sprintf("queries[%d]: %v", i, err)
			}
			s.fail(w, http.StatusBadRequest, msg)
			return
		}
	}

	// Only an exact single query is cacheable.
	var key string
	var cacheable bool
	var gen uint64
	if qb.single && !q.Approx {
		key, cacheable = cacheKey(qs[0], q)
		if rs, ok := s.cache.Get(key); cacheable && ok {
			s.singleQueries.Add(1)
			s.reply(w, &QueryResponse{Results: rs})
			return
		}
		// The generation is read before computing: if a mutation lands
		// while the query runs, the stamp no longer matches and the Put is
		// dropped, so the cache cannot serve the pre-mutation answer.
		gen = s.cache.Generation()
	}
	evals, start := s.traceStart()
	outs, sts, waited, err := s.admit.search(r.Context(), qs, q)
	rec.Queries, rec.WaitMS = len(qs), float64(waited)/float64(time.Millisecond)
	if err != nil {
		s.fail(w, engineErrorCode(err), err.Error())
		return
	}
	found := 0
	for _, rs := range outs {
		found += len(rs)
	}
	if found > maxResults {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("%d results in one request, limit %d", found, maxResults))
		return
	}
	s.traceEnd(rec, evals, start)
	if cacheable {
		s.cache.Put(key, gen, outs[0])
	}

	var resp QueryResponse
	if q.Approx {
		resp.Approx = s.approxWire(q.NProbe, sts)
	}
	if qb.single {
		resp.Results = outs[0]
		s.singleQueries.Add(1)
	} else {
		// An empty answer inside a batch is "[]" on the wire, never "null".
		for i, rs := range outs {
			if rs == nil {
				outs[i] = []Result{}
			}
		}
		resp.Batches = outs
		s.batchQueries.Add(int64(len(qs)))
	}
	s.reply(w, &resp)
}

// approxWire aggregates the per-query probe accounting of one approximate
// request into its wire form.
func (s *Server) approxWire(nprobe int, sts []distperm.ApproxStats) *ApproxWire {
	aw := &ApproxWire{NProbe: nprobe, Exact: true}
	for _, st := range sts {
		aw.ProbedBuckets += st.ProbedBuckets
		aw.Candidates += st.Candidates
		aw.TotalBuckets = st.TotalBuckets // identical across the batch
		aw.Exact = aw.Exact && st.Exact
	}
	// The fraction's denominator is the current logical database size.
	if n := s.engine.LiveN(); n > 0 && len(sts) > 0 {
		aw.CandidateFraction = float64(aw.Candidates) / float64(len(sts)*n)
	}
	return aw
}

// traceStart opens a slow-query measurement: the engine's distance-eval
// counter (so the record can report the evals this query's batch spent)
// and the clock. Free when the slow-query log is disabled.
func (s *Server) traceStart() (evalsBefore int64, start time.Time) {
	if !s.slow.enabled() {
		return 0, time.Time{}
	}
	return s.engine.Stats().DistanceEvals, time.Now()
}

// traceEnd closes the measurement and emits the record if over threshold.
// The evals figure is a process-wide delta, so concurrent queries inflate
// each other's — it bounds, rather than isolates, this query's work.
func (s *Server) traceEnd(rec slowQueryRecord, evalsBefore int64, start time.Time) {
	if !s.slow.enabled() {
		return
	}
	d := time.Since(start)
	if d < s.slow.threshold {
		return
	}
	rec.Shards = s.engine.Shards()
	rec.Evals = s.engine.Stats().DistanceEvals - evalsBefore
	s.slow.emit(rec, d)
}

// decodePoint decodes a wire point and checks it.
func (s *Server) decodePoint(raw json.RawMessage) (distperm.Point, error) {
	q, err := DecodePoint(raw)
	if err != nil {
		return nil, err
	}
	return q, s.checkPoint(q)
}

// checkPoint checks a point against the shape of the engine's points
// (Engine.Proto), so a malformed query is a 400, not a metric panic in a
// search.
func (s *Server) checkPoint(q distperm.Point) error {
	switch proto := s.engine.Proto().(type) {
	case distperm.Vector:
		v, ok := q.(distperm.Vector)
		if !ok {
			return fmt.Errorf("this server serves vector points; got a string")
		}
		if len(v) != len(proto) {
			return fmt.Errorf("query has %d dimensions, database has %d", len(v), len(proto))
		}
	case distperm.String:
		if _, ok := q.(distperm.String); !ok {
			return fmt.Errorf("this server serves string points; got a vector")
		}
	}
	return nil
}

// engineErrorCode maps an engine error to an HTTP status: parameter
// errors (k or radius out of the servable range, approximate search
// against an index without the capability) are the client's fault,
// everything else (typically a closing engine) is 503.
func engineErrorCode(err error) int {
	if errors.Is(err, distperm.ErrOutOfRange) || errors.Is(err, distperm.ErrNoApprox) {
		return http.StatusBadRequest
	}
	return http.StatusServiceUnavailable
}

// writable answers 409 when the engine takes no writes, and reports whether
// the handler may go on.
func (s *Server) writable(w http.ResponseWriter) bool {
	if !s.engine.Mutable() {
		s.fail(w, http.StatusConflict, "server is read-only; start with a mutable engine (-rebuild-threshold) to enable writes")
	}
	return s.engine.Mutable()
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if !s.writable(w) {
		return
	}
	var req InsertRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	single := req.Point != nil
	switch {
	case single && req.Points != nil:
		s.fail(w, http.StatusBadRequest, `"point" and "points" are mutually exclusive`)
		return
	case single:
		req.Points = []json.RawMessage{req.Point}
	case req.Points == nil:
		s.fail(w, http.StatusBadRequest, `one of "point" or "points" is required`)
		return
	case !s.batchFits(w, "points", len(req.Points)):
		return
	}
	// Decode and validate everything before the first mutation, so a
	// malformed batch is rejected whole.
	pts := make([]distperm.Point, len(req.Points))
	for i, raw := range req.Points {
		p, err := s.decodePoint(raw)
		if err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Sprintf("points[%d]: %v", i, err))
			return
		}
		pts[i] = p
	}
	ids := make([]int, 0, len(pts))
	for i, p := range pts {
		id, err := s.engine.Insert(p)
		if err != nil {
			s.mutated(int64(len(ids)), 0)
			s.fail(w, http.StatusServiceUnavailable, fmt.Sprintf("points[%d]: %v (%d of %d inserted)", i, err, len(ids), len(pts)))
			return
		}
		ids = append(ids, id)
	}
	s.mutated(int64(len(ids)), 0)
	if single {
		s.ok(w, MutateResponse{ID: &ids[0]})
		return
	}
	s.ok(w, MutateResponse{IDs: ids})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !s.writable(w) {
		return
	}
	var req DeleteRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	single := req.ID != nil
	switch {
	case single && req.IDs != nil:
		s.fail(w, http.StatusBadRequest, `"id" and "ids" are mutually exclusive`)
		return
	case single:
		req.IDs = []int{*req.ID}
	case req.IDs == nil:
		s.fail(w, http.StatusBadRequest, `one of "id" or "ids" is required`)
		return
	case !s.batchFits(w, "ids", len(req.IDs)):
		return
	}
	deleted := make([]int, 0, len(req.IDs))
	for i, id := range req.IDs {
		if err := s.engine.Delete(id); err != nil {
			s.mutated(0, int64(len(deleted)))
			code := http.StatusServiceUnavailable
			if errors.Is(err, distperm.ErrUnknownID) {
				code = http.StatusNotFound
			}
			s.fail(w, code, fmt.Sprintf("ids[%d]: %v (%d of %d deleted)", i, err, len(deleted), len(req.IDs)))
			return
		}
		deleted = append(deleted, id)
	}
	s.mutated(0, int64(len(deleted)))
	if single {
		s.ok(w, MutateResponse{ID: &deleted[0]})
		return
	}
	s.ok(w, MutateResponse{IDs: deleted})
}

// mutated records accepted mutations and invalidates the result cache —
// even on a partially-applied batch, so the applied prefix cannot be
// served stale.
func (s *Server) mutated(inserts, deletes int64) {
	if inserts == 0 && deletes == 0 {
		return
	}
	s.cache.Invalidate()
	s.inserts.Add(inserts)
	s.deletes.Add(deletes)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	cs := s.cache.Stats()
	counters := ServerCounters{
		SingleQueries:      s.singleQueries.Load(),
		BatchQueries:       s.batchQueries.Load(),
		CacheHits:          cs.Hits,
		CacheMisses:        cs.Misses,
		CacheEntries:       cs.Entries,
		CacheEvictions:     cs.Evictions,
		Inserts:            s.inserts.Load(),
		Deletes:            s.deletes.Load(),
		CacheInvalidations: cs.Invalidations,
	}
	for _, em := range s.metrics.endpoints {
		counters.Requests += int64(em.requests.Value())
		counters.Errors += int64(em.errors.Value())
	}
	resp := StatsResponse{Engine: statsWire(s.engine.Stats()), Server: counters}
	if s.engine.Mutable() {
		resp.Mutation = mutationWire(s.engine.MutationStats())
		resp.WAL = walWire(s.engine.WALStats())
	}
	s.ok(w, resp)
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	s.ok(w, s.Info())
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	WriteStatus(w, http.StatusOK, "ok")
}

// handleReady is the readiness half of the liveness/readiness split: a
// request reaching a running Server is by definition ready (the Gate
// answers 503 for it while the index is still loading).
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	WriteStatus(w, http.StatusOK, "ready")
}

func (s *Server) ok(w http.ResponseWriter, body any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body) // on failure the headers are gone: nothing left to say
}

// fail answers code with msg; ServeHTTP counts the error from the status.
func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(ErrorResponse{Error: strings.TrimPrefix(msg, "distperm: ")})
}
