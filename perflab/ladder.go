package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"distperm/internal/core"
	"distperm/internal/metric"
	"distperm/internal/perm"
	"distperm/internal/sisap"
	"distperm/pkg/distperm"
	"distperm/pkg/dpserver"
	"distperm/pkg/obs"
)

// The traced run. Tracing is done from outside: perflab times calls into
// each layer's exported entry point, outermost to innermost, on the same
// query, one goroutine, one call at a time. A rung's span names the span of
// the rung above it as its parent; a rung's self time is its median minus
// the median of the rung below. Spans inside the program are a later issue.

// span is one timed call. Parent is the ID of the enclosing rung's span for
// the same query, or -1 for an outermost or side measurement.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Query   int    `json:"query"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
	// samples collects every duration by name, traced or not.
	samples map[string][]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), samples: map[string][]float64{}} }

// call times f and records a span for it; it returns the span's ID.
func (t *tracer) call(name string, parent, query int, f func()) int {
	start := time.Now()
	f()
	end := time.Now()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Query: query,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
	t.samples[name] = append(t.samples[name], float64(end.Sub(start).Nanoseconds()))
	return id
}

// untraced times f without recording a span: the other side of
// trace.overhead_share.
func (t *tracer) untraced(name string, f func()) {
	start := time.Now()
	f()
	t.samples[name] = append(t.samples[name], float64(time.Since(start).Nanoseconds()))
}

// climb runs every rung on query i, outermost first, each span the parent of
// the next, and beside them the untraced form of the outermost call. Which
// of the two goes first swaps from one query to the next: the second call
// for a query finds the CPU caches the first one warmed, and neither side
// may always be the second.
func (t *tracer) climb(i int, rungs []rung, untracedName string, plain func()) (innermost int) {
	if i%2 == 0 {
		t.untraced(untracedName, plain)
	}
	parent := -1
	for _, r := range rungs {
		parent = t.call(r.metric, parent, i, func() { r.call(i) })
	}
	if i%2 == 1 {
		t.untraced(untracedName, plain)
	}
	return parent
}

// us is the median of name's samples in microseconds, each divided by per
// (64 for the per-query figures of a batch request).
func (t *tracer) us(name string, per float64) float64 {
	return median(t.samples[name]) / 1e3 / per
}

// rung is one step of a ladder: the metric its median is reported under,
// the entry point it calls, and the call.
type rung struct {
	metric string
	entry  string
	call   func(i int)
}

type rungRow struct {
	Name     string  `json:"name"`
	Entry    string  `json:"entry"`
	MedianUs float64 `json:"median_us"`
	// SelfUs is this rung's median minus the next rung's. A rung that
	// measures slower than the one enclosing it (noise, or an inner call
	// that runs on fewer cores than the layer above gives it) is held to
	// the enclosing median, so self times are never negative and always sum
	// to the outermost rung.
	SelfUs float64 `json:"self_us"`
}

type ladderTable struct {
	Name  string    `json:"name"`
	Calls int       `json:"calls"`
	Rungs []rungRow `json:"rungs"`
}

// table folds the rungs' samples into medians and self times; per divides
// every figure.
func (t *tracer) table(name string, n int, per float64, rungs []rung) ladderTable {
	lt := ladderTable{Name: name, Calls: n}
	held := 0.0
	for i, r := range rungs {
		m := t.us(r.metric, per)
		if i == 0 || m < held {
			held = m
		}
		lt.Rungs = append(lt.Rungs, rungRow{Name: r.metric, Entry: r.entry, MedianUs: m, SelfUs: held})
	}
	for i := range lt.Rungs[:len(lt.Rungs)-1] {
		next := lt.Rungs[i+1].SelfUs // still the held median of the rung below
		lt.Rungs[i].SelfUs -= next
	}
	return lt
}

func (lt ladderTable) self(metric string) float64 {
	for _, r := range lt.Rungs {
		if r.Name == metric {
			return r.SelfUs
		}
	}
	return 0
}

// perOp times n calls of f back to back, reps times, and returns the median
// nanoseconds per call: for operations too short to time one at a time.
func perOp(reps, n int, f func(i int)) float64 {
	out := make([]float64, reps)
	for r := range out {
		start := time.Now()
		for i := 0; i < n; i++ {
			f(r*n + i)
		}
		out[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(out)
}

// timeMs returns the median wall time of reps calls of f, in milliseconds.
func timeMs(reps int, f func() error) (float64, error) {
	out := make([]float64, reps)
	for r := range out {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		out[r] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	return median(out), nil
}

// outerPair is the sequential median of one workload's outermost rung, per
// request, with span recording and without.
type outerPair struct{ tracedUs, untracedUs float64 }

// ladderOut is everything the traced run produced.
type ladderOut struct {
	layers map[string]float64
	tables []ladderTable
	outer  map[string]outerPair
	spans  []span
}

// ladderRun carries the traced run's shared state through its stages.
type ladderRun struct {
	ctx  context.Context
	seed int64
	sc   scale
	work string
	spec distperm.Spec
	t    *tracer
	out  *ladderOut
	s1   *distperm.PermIndex // S1's heap-built index, shared by the S1 stages
	// closers run in reverse at the end.
	closers []func()
	err     error
}

func (l *ladderRun) check(err error) bool {
	if err != nil && l.err == nil {
		l.err = err
	}
	return l.err == nil
}

func (l *ladderRun) deferClose(f func()) { l.closers = append(l.closers, f) }

// serve boots a server over idx on a loopback port and registers its
// shutdown.
func (l *ladderRun) serve(srv *dpserver.Server, err error) *live {
	if !l.check(err) {
		return nil
	}
	lv, err := listen(srv, func() {})
	if !l.check(err) {
		return nil
	}
	l.deferClose(func() { lv.close() })
	return lv
}

// stream replays the first n ops of client 0's request stream for workload
// w: the ladder measures the same traffic the rounds send.
func (l *ladderRun) stream(w string, pts, pool []metric.Point, n int) []op {
	g := newGenerator(l.seed, w, 0, pts, pool)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// recorded serves one prepared request body through srv.ServeHTTP into an
// httptest recorder: the handler rung, with no socket under it.
func recorded(srv *dpserver.Server, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func knnBody(q metric.Point, qs []metric.Point, approx bool) []byte {
	req := dpserver.KNNRequest{K: knnK}
	if approx {
		req.Approx, req.NProbe = true, nprobe
	}
	if q != nil {
		req.Query, _ = dpserver.EncodePoint(q)
	}
	for _, p := range qs {
		raw, _ := dpserver.EncodePoint(p)
		req.Queries = append(req.Queries, raw)
	}
	b, _ := json.Marshal(req)
	return b
}

// runLadders is the traced run over all three stores.
func runLadders(ctx context.Context, seed int64, sc scale, stores map[string]*store, work string) (*ladderOut, error) {
	l := &ladderRun{ctx: ctx, seed: seed, sc: sc, work: work, spec: indexSpec(), t: newTracer(),
		out: &ladderOut{layers: map[string]float64{}, outer: map[string]outerPair{}}}
	defer func() {
		for i := len(l.closers) - 1; i >= 0; i-- {
			l.closers[i]()
		}
	}()
	for _, stage := range []func(){
		func() { l.exact(stores["S1"]) },
		func() { l.approx(stores["S1"]) },
		func() { l.batch(stores["S2"]) },
		func() { l.sharded(stores["S3"]) },
		func() { l.micro(stores["S1"]) },
	} {
		runtime.GC()
		if stage(); l.err != nil {
			return nil, l.err
		}
	}
	l.out.spans = l.t.spans
	return l.out, nil
}

// exact climbs the single exact read on S1: the exact-cold ladder, plus the
// cache-hit variants cache-hot is made of.
func (l *ladderRun) exact(st *store) {
	t, L := l.t, l.out.layers
	db, pts := st.db, st.points()
	var idx distperm.Index
	ms, err := timeMs(3, func() (err error) { idx, err = distperm.Build(db, l.spec); return })
	if !l.check(err) {
		return
	}
	L["sisap.build_ms"] = ms
	px := idx.(*distperm.PermIndex)
	l.s1 = px

	// Three servers over the one index, so the same query misses the result
	// cache on each: socket (traced), socket (untraced), recorder.
	mk := func() (*dpserver.Server, error) { return dpserver.NewFromIndex(db, idx, 0, servingConfig()) }
	traced, plain := l.serve(mk()), l.serve(mk())
	rec, err := mk()
	if !l.check(err) {
		return
	}
	l.deferClose(rec.Close)
	eng, err := distperm.NewEngine(db, idx, 0)
	if !l.check(err) {
		return
	}
	l.deferClose(eng.Close)
	cfg := servingConfig()
	co := dpserver.NewCoalescer(eng, cfg.BatchMax, cfg.BatchWait)
	l.deferClose(co.Close)
	rep := sisap.QueryReplica(px).(*sisap.PermIndex)
	lin := sisap.NewLinearScan(db)
	sites := make([]metric.Point, 0, sitesK)
	for _, id := range px.SiteIDs() {
		sites = append(sites, pts[id])
	}
	pm := core.NewPermuter(db.Metric, sites)
	pbuf := make(perm.Permutation, len(sites))
	ct, cp := traced.newClient(), plain.newClient()
	l.deferClose(func() { closeClient(ct); closeClient(cp) })

	ops := l.stream("exact-cold", pts, nil, l.sc.LadderQ)
	bodies := make([][]byte, len(ops))
	for i, o := range ops {
		bodies[i] = knnBody(o.q, nil, false)
	}
	budget := min(2000, db.N())
	var evals int
	rungs := []rung{
		{"http.knn_miss_us", "client.Client.KNN over the socket", func(i int) { _, err := ct.KNN(l.ctx, ops[i].q, knnK); l.check(err) }},
		{"handler.knn_miss_us", "Server.ServeHTTP into a recorder", func(i int) { recorded(rec, "/v1/knn", bodies[i]) }},
		{"coalescer.knn1_us", "Coalescer.KNN", func(i int) { _, err := co.KNN(ops[i].q, knnK); l.check(err) }},
		{"engine.knn1_us", "Engine.KNNBatch([q])", func(i int) { _, err := eng.KNNBatch([]metric.Point{ops[i].q}, knnK); l.check(err) }},
		{"sisap.knn_exact_us", "PermIndex.KNN", func(i int) { _, s := rep.KNN(ops[i].q, knnK); evals = s.DistanceEvals }},
		{"sisap.scanorder_us", "PermIndex.ScanOrder", func(i int) { rep.ScanOrder(ops[i].q) }},
		{"core.permute_us", "Permuter.PermutationInto", func(i int) { pm.PermutationInto(ops[i].q, pbuf) }},
	}
	for i := range ops {
		q := ops[i].q
		// The untraced call has a server of its own, as the recorder has,
		// so that the same query misses the result cache on all three.
		t.climb(i, rungs, "untraced/exact-cold", func() { _, err := cp.KNN(l.ctx, q, knnK); l.check(err) })
		t.call("sisap.linear_knn_us", -1, i, func() { lin.KNN(q, knnK) })
		t.call("sisap.knn_budget_us", -1, i, func() { rep.KNNBudget(q, knnK, budget) })
	}
	// The same queries again are cache hits on all three servers. They run
	// as a pass of their own, so that a hit is timed with the caches as warm
	// as a stream of hits leaves them, not behind a 200k-point scan.
	hits := []rung{
		{"http.knn_hit_us", "client.Client.KNN over the socket", func(i int) { _, err := ct.KNN(l.ctx, ops[i].q, knnK); l.check(err) }},
		{"handler.knn_hit_us", "Server.ServeHTTP into a recorder", func(i int) { recorded(rec, "/v1/knn", bodies[i]) }},
	}
	for i := range ops {
		t.climb(i, hits, "untraced/cache-hot", func() { _, err := cp.KNN(l.ctx, ops[i].q, knnK); l.check(err) })
		t.call("http.healthz_us", -1, i, func() { l.check(ct.Health(l.ctx)) })
	}
	if l.err != nil {
		return
	}
	lt := t.table("exact-cold: single exact kNN on S1, cache miss", len(ops), 1, rungs)
	l.out.tables = append(l.out.tables, lt)
	for _, r := range lt.Rungs {
		L[r.Name] = r.MedianUs
	}
	L["http.transport_self_us"] = lt.self("http.knn_miss_us")
	L["handler.knn_miss_self_us"] = lt.self("handler.knn_miss_us")
	L["coalescer.wait_self_us"] = lt.self("coalescer.knn1_us")
	L["engine.knn1_self_us"] = lt.self("engine.knn1_us")
	for _, name := range []string{"sisap.linear_knn_us", "sisap.knn_budget_us", "http.knn_hit_us", "handler.knn_hit_us", "http.healthz_us"} {
		L[name] = t.us(name, 1)
	}
	L["sisap.knn_exact_over_linear"] = ratio(L["sisap.knn_exact_us"], L["sisap.linear_knn_us"])
	L["sisap.evals_per_query"] = float64(evals)
	L["sisap.distinct_rows"] = float64(px.DistinctPermutations())
	L["sisap.rows_per_point"] = float64(px.DistinctPermutations()) / float64(db.N())
	l.out.outer["exact-cold"] = outerPair{L["http.knn_miss_us"], t.us("untraced/exact-cold", 1)}
	l.out.outer["cache-hot"] = outerPair{L["http.knn_hit_us"], t.us("untraced/cache-hot", 1)}
	l.out.tables = append(l.out.tables, t.table("cache-hot: the same queries again, cache hits", len(ops), 1, hits))
	L["wire.req_bytes"] = float64(len(bodies[0]))
	L["wire.resp_bytes"] = float64(recorded(rec, "/v1/knn", bodies[0]).Body.Len())

	// One metric evaluation, through the interface the index calls it by.
	q0, m := ops[0].q, db.Metric
	sink := 0.0
	L["metric.eval_ns"] = perOp(16, min(1<<16, len(pts)), func(i int) { sink += m.Distance(q0, pts[i%len(pts)]) })
	_ = sink

	// One /metrics exposition of a server that has seen traffic.
	var buf bytes.Buffer
	ms, err = timeMs(16, func() error { buf.Reset(); return traced.srv.Registry().WritePrometheus(&buf) })
	l.check(err)
	L["obs.scrape_ms"], L["obs.scrape_bytes"] = ms, float64(buf.Len())
}

// approx climbs the single approximate read on S1's frozen, mmap-opened
// index: the approx-mmap ladder and the container's storage figures.
func (l *ladderRun) approx(st *store) {
	t, L := l.t, l.out.layers
	db := st.db
	path := filepath.Join(l.work, "ladder.frozen")
	ms, err := timeMs(3, func() error { return writeFrozen(l.s1, path) })
	if !l.check(err) {
		return
	}
	L["sisap.frozen_write_ms"] = ms
	if fi, err := os.Stat(path); l.check(err) {
		L["sisap.frozen_bytes_per_point"] = float64(fi.Size()) / float64(db.N())
	}
	open := func(opts distperm.LoadOptions) func() error {
		return func() error {
			s, err := distperm.Load(path, opts)
			if err != nil {
				return err
			}
			return s.Close()
		}
	}
	L["sisap.frozen_open_mmap_ms"], err = timeMs(5, open(distperm.LoadOptions{Mmap: true}))
	l.check(err)
	L["sisap.frozen_open_heap_ms"], err = timeMs(3, open(distperm.LoadOptions{DB: db}))
	if !l.check(err) {
		return
	}

	fs, err := distperm.Load(path, distperm.LoadOptions{Mmap: true})
	if !l.check(err) {
		return
	}
	l.deferClose(func() { fs.Close() })
	lv := l.serve(dpserver.NewFromIndex(fs.DB, fs.Index, 0, servingConfig()))
	eng, err := distperm.NewEngine(fs.DB, fs.Index, 0)
	if !l.check(err) {
		return
	}
	l.deferClose(eng.Close)
	rep := sisap.QueryReplica(fs.Index).(sisap.ApproxIndex)
	c := lv.newClient()
	l.deferClose(func() { closeClient(c) })

	ops := l.stream("approx-mmap", st.points(), nil, l.sc.LadderQ)
	bodies := make([][]byte, len(ops))
	for i, o := range ops {
		bodies[i] = knnBody(o.q, nil, true)
	}
	var evals, probed, cands, buckets float64
	rungs := []rung{
		{"http.approx_us", "client.Client.KNNApprox over the socket", func(i int) { _, _, err := c.KNNApprox(l.ctx, ops[i].q, knnK, nprobe); l.check(err) }},
		{"handler.approx_us", "Server.ServeHTTP into a recorder", func(i int) { recorded(lv.srv, "/v1/knn", bodies[i]) }},
		{"engine.approx1_us", "Engine.KNNApproxBatch([q])", func(i int) {
			_, _, err := eng.KNNApproxBatch([]metric.Point{ops[i].q}, knnK, nprobe)
			l.check(err)
		}},
		{"sisap.knn_approx_us", "PermIndex.KNNApprox", func(i int) {
			_, s := rep.KNNApprox(ops[i].q, knnK, nprobe)
			evals += float64(s.DistanceEvals)
			probed += float64(s.ProbedBuckets)
			cands += float64(s.Candidates)
			buckets = float64(s.TotalBuckets)
		}},
	}
	for i := range ops {
		// Approximate requests bypass the cache, so one server serves the
		// untraced and the traced call of the same query.
		t.climb(i, rungs, "untraced/approx-mmap", func() { _, _, err := c.KNNApprox(l.ctx, ops[i].q, knnK, nprobe); l.check(err) })
	}
	if l.err != nil {
		return
	}
	lt := t.table("approx-mmap: single approximate kNN (nprobe=4) on mmap-opened S1", len(ops), 1, rungs)
	l.out.tables = append(l.out.tables, lt)
	for _, r := range lt.Rungs {
		L[r.Name] = r.MedianUs
	}
	L["handler.approx_self_us"] = lt.self("handler.approx_us")
	L["engine.approx1_self_us"] = lt.self("engine.approx1_us")
	n := float64(len(ops))
	L["sisap.approx_evals_per_query"] = evals / n
	L["sisap.probed_buckets_per_query"] = probed / n
	L["sisap.candidate_fraction"] = cands / n / float64(db.N())
	L["sisap.approx_buckets"] = buckets
	l.out.outer["approx-mmap"] = outerPair{L["http.approx_us"], t.us("untraced/approx-mmap", 1)}
}

// batch climbs the 64-query exact request on S2: the batch64-uniform
// ladder. Every figure is per query (request time / 64).
func (l *ladderRun) batch(st *store) {
	t, L := l.t, l.out.layers
	db := st.db
	idx, err := distperm.Build(db, l.spec)
	if !l.check(err) {
		return
	}
	lv := l.serve(dpserver.NewFromIndex(db, idx, 0, servingConfig()))
	eng, err := distperm.NewEngine(db, idx, 0)
	if !l.check(err) {
		return
	}
	l.deferClose(eng.Close)
	rep := sisap.QueryReplica(idx).(*sisap.PermIndex)
	c := lv.newClient()
	l.deferClose(func() { closeClient(c) })

	ops := l.stream("batch64-uniform", st.points(), nil, max(2, l.sc.LadderQ/16))
	bodies := make([][]byte, len(ops))
	for i, o := range ops {
		bodies[i] = knnBody(nil, o.qs, false)
	}
	// The engine hands each worker ⌈64/workers⌉ queries and waits for the
	// slowest, so the rung under it is one worker's sub-batch, not all 64.
	sub := (batchSize + eng.Workers() - 1) / eng.Workers()
	rungs := []rung{
		{"http.batch64_us_per_query", "client.Client.KNNBatch over the socket", func(i int) { _, err := c.KNNBatch(l.ctx, ops[i].qs, knnK); l.check(err) }},
		{"handler.batch64_us_per_query", "Server.ServeHTTP into a recorder", func(i int) { recorded(lv.srv, "/v1/knn", bodies[i]) }},
		{"engine.batch64_us_per_query", "Engine.KNNBatch(64)", func(i int) { _, err := eng.KNNBatch(ops[i].qs, knnK); l.check(err) }},
		{"sisap.knn_subbatch_us_per_query", "PermIndex.KNNBatch(" + strconv.Itoa(sub) + "): one worker's share", func(i int) { rep.KNNBatch(ops[i].qs[:sub], knnK) }},
	}
	for i := range ops {
		t.climb(i, rungs, "untraced/batch64-uniform", func() { _, err := c.KNNBatch(l.ctx, ops[i].qs, knnK); l.check(err) })
		t.call("sisap.knn_batch64_us_per_query", -1, i, func() { rep.KNNBatch(ops[i].qs, knnK) })
		for _, q := range ops[i].qs[:8] {
			t.call("sisap.knn_single_s2_us", -1, i, func() { rep.KNN(q, knnK) })
		}
	}
	if l.err != nil {
		return
	}
	lt := t.table("batch64-uniform: 64 exact kNN per request on S2, per query", len(ops), batchSize, rungs)
	l.out.tables = append(l.out.tables, lt)
	for _, r := range lt.Rungs[:3] {
		L[r.Name] = r.MedianUs
	}
	L["handler.batch64_self_us_per_query"] = lt.self("handler.batch64_us_per_query")
	L["engine.batch64_self_us_per_query"] = lt.self("engine.batch64_us_per_query")
	L["sisap.knn_batch64_us_per_query"] = t.us("sisap.knn_batch64_us_per_query", batchSize)
	L["sisap.batch_speedup"] = ratio(t.us("sisap.knn_single_s2_us", 1), L["sisap.knn_batch64_us_per_query"])
	l.out.outer["batch64-uniform"] = outerPair{L["http.batch64_us_per_query"] * batchSize, t.us("untraced/batch64-uniform", 1)}
}

// mutableOver wraps the already-built sharded index sx in a mutable engine
// with an interval-synced WAL in its own directory. Automatic rebuilds are
// off: the ladder forces them so that it can time them.
func (l *ladderRun) mutableOver(st *store, sx *distperm.ShardedIndex, name string) (*distperm.MutableEngine, *distperm.WAL) {
	wal, err := distperm.OpenWAL(filepath.Join(l.work, name), distperm.WALOptions{Sync: distperm.SyncInterval, SyncInterval: walInterval})
	if !l.check(err) {
		return nil, nil
	}
	me, err := distperm.WrapMutable(st.db, sx, distperm.MutableConfig{
		Spec: l.spec, Shards: shardCount, Partitioner: distperm.RoundRobin{}, WAL: wal})
	if !l.check(err) {
		wal.Close()
		return nil, nil
	}
	return me, wal
}

// sharded climbs the read and the write of mixed-rw-sharded on S3.
func (l *ladderRun) sharded(st *store) {
	t, L := l.t, l.out.layers
	db, pts := st.db, st.points()
	sx, err := distperm.BuildSharded(db, l.spec, shardCount, distperm.RoundRobin{})
	if !l.check(err) {
		return
	}
	se, err := distperm.NewShardedEngine(sx, 0)
	if !l.check(err) {
		return
	}
	l.deferClose(se.Close)
	shards := make([]sisap.Index, shardCount)
	for s := range shards {
		shards[s] = sisap.QueryReplica(sx.Shard(s))
	}
	// Two mutable servers, for the same reason the exact ladder has three:
	// the second serves the untraced call, then takes the writes.
	meA, walA := l.mutableOver(st, sx, "wal-a")
	meB, walB := l.mutableOver(st, sx, "wal-b")
	if l.err != nil {
		return
	}
	l.deferClose(func() { walA.Close(); walB.Close() })
	lvA := l.serve(dpserver.NewFromMutable(meA, servingConfig()))
	lvB := l.serve(dpserver.NewFromMutable(meB, servingConfig()))
	if l.err != nil {
		return
	}
	cA, cB := lvA.newClient(), lvB.newClient()
	l.deferClose(func() { closeClient(cA); closeClient(cB) })

	reads := queries(l.seed, "ladder/sharded", pts, l.sc.LadderQ)
	lists := make([][]sisap.Result, shardCount)
	rungs := []rung{
		{"http.sharded_knn_us", "client.Client.KNN over the socket", func(i int) { _, err := cA.KNN(l.ctx, reads[i], knnK); l.check(err) }},
		{"mutable.knn1_delta0_us", "MutableEngine.KNNBatch([q]), empty delta", func(i int) { _, err := meA.KNNBatch([]metric.Point{reads[i]}, knnK); l.check(err) }},
		{"shard.knn1_us", "ShardedEngine.KNNBatch([q])", func(i int) { _, err := se.KNNBatch([]metric.Point{reads[i]}, knnK); l.check(err) }},
		{"shard.sum_shard_knn_us", "PermIndex.KNN on each of 4 shards, one after another", func(i int) {
			for s, x := range shards {
				rs, _ := x.KNN(reads[i], knnK)
				lists[s] = sisap.RemapShardResults(rs, sx.Part(s))
			}
		}},
	}
	for i := range reads {
		parent := t.climb(i, rungs, "untraced/mixed-rw-sharded", func() { _, err := cB.KNN(l.ctx, reads[i], knnK); l.check(err) })
		t.call("shard.merge_us", parent, i, func() { sisap.MergeKNN(lists, knnK) })
	}
	if l.err != nil {
		return
	}
	lt := t.table("mixed-rw-sharded: single exact kNN on 4-shard mutable S3 (handler and coalescer are in the first rung's self time)", len(reads), 1, rungs)
	l.out.tables = append(l.out.tables, lt)
	for _, r := range lt.Rungs {
		L[r.Name] = r.MedianUs
	}
	L["shard.merge_us"] = t.us("shard.merge_us", 1)
	l.out.outer["mixed-rw-sharded"] = outerPair{L["http.sharded_knn_us"], t.us("untraced/mixed-rw-sharded", 1)}

	// The write path, on B. Pending writes: 127, read, 128, fold; 128
	// deletes, fold; 128 handler inserts, fold; then inserts over the socket.
	fresh := queries(l.seed, "ladder/inserts", pts, 4*rebuildAt)
	victims := rngFor(l.seed, "ladder/victims").Perm(db.N())[:rebuildAt]
	next := 0
	insert := func(name string, n int, f func(p metric.Point) error) {
		for i := 0; i < n && l.err == nil; i++ {
			p := fresh[next]
			next++
			t.call(name, -1, i, func() { l.check(f(p)) })
		}
	}
	var rebuilds []float64
	fold := func() {
		ms, err := timeMs(1, meB.Rebuild)
		l.check(err)
		rebuilds = append(rebuilds, ms)
	}
	direct := func(p metric.Point) error { _, err := meB.Insert(p); return err }
	insert("mutable.insert_us", rebuildAt-1, direct)
	for i := range reads {
		t.call("mutable.knn1_delta127_us", -1, i, func() { _, err := meB.KNNBatch([]metric.Point{reads[i]}, knnK); l.check(err) })
	}
	insert("mutable.insert_us", 1, direct)
	fold()
	for i, id := range victims {
		t.call("mutable.delete_us", -1, i, func() { l.check(meB.Delete(id)) })
	}
	fold()
	insert("handler.insert_us", rebuildAt, func(p metric.Point) error {
		raw, _ := dpserver.EncodePoint(p)
		body, _ := json.Marshal(dpserver.InsertRequest{Point: raw})
		if rec := recorded(lvB.srv, "/v1/insert", body); rec.Code != http.StatusOK {
			return fmt.Errorf("handler insert: HTTP %d", rec.Code)
		}
		return nil
	})
	fold()
	insert("http.insert_us", rebuildAt/2, func(p metric.Point) error { _, err := cB.Insert(l.ctx, p); return err })
	if l.err != nil {
		return
	}
	for _, name := range []string{"mutable.insert_us", "mutable.knn1_delta127_us", "mutable.delete_us", "handler.insert_us", "http.insert_us"} {
		L[name] = t.us(name, 1)
	}
	L["mutable.rebuild_ms"] = median(rebuilds)
	ms, err := timeMs(1, func() error {
		snap, seq, err := meB.CheckpointSnapshot()
		if err != nil {
			return err
		}
		return walB.WriteCheckpoint(snap, seq)
	})
	l.check(err)
	L["wal.checkpoint_ms"] = ms

	// The log alone: appends under both sync policies, then the cost of
	// replaying what was appended into a freshly wrapped engine.
	recs := make([]distperm.WALRecord, 4*rebuildAt)
	for i := range recs {
		recs[i] = distperm.WALRecord{Op: distperm.WALInsert, GID: db.N() + i, Point: fresh[i]}
	}
	appendTo := func(name, dir string, policy distperm.SyncPolicy, n int) {
		w, err := distperm.OpenWAL(filepath.Join(l.work, dir), distperm.WALOptions{Sync: policy, SyncInterval: walInterval})
		if !l.check(err) {
			return
		}
		for i := 0; i < n; i++ {
			t.call(name, -1, i, func() { l.check(w.Append(recs[i])) })
		}
		ws := w.Stats()
		L["wal.bytes_per_record"] = ratio(float64(ws.AppendedBytes), float64(ws.AppendedRecords))
		l.check(w.Close())
	}
	appendTo("wal.append_always_us", "wal-always", distperm.SyncAlways, rebuildAt/2)
	appendTo("wal.append_interval_us", "wal-interval", distperm.SyncInterval, len(recs))
	L["wal.append_always_us"], L["wal.append_interval_us"] = t.us("wal.append_always_us", 1), t.us("wal.append_interval_us", 1)
	w, err := distperm.OpenWAL(filepath.Join(l.work, "wal-interval"), distperm.WALOptions{Sync: distperm.SyncNever})
	if !l.check(err) {
		return
	}
	defer w.Close()
	meC, err := distperm.WrapMutable(db, sx, distperm.MutableConfig{Spec: l.spec, Shards: shardCount, Partitioner: distperm.RoundRobin{}})
	if !l.check(err) {
		return
	}
	defer meC.Close()
	ms, err = timeMs(1, func() error {
		applied, _, err := meC.ReplayWAL(w, 0)
		if err == nil && applied != uint64(len(recs)) {
			err = fmt.Errorf("wal replay applied %d of %d records", applied, len(recs))
		}
		return err
	})
	l.check(err)
	L["wal.replay_us_per_record"] = ms * 1e3 / float64(len(recs))

	// The write ladder's rungs were timed on different calls, so its table
	// is built from the four medians alone.
	wt := t.table("mixed-rw-sharded: single insert (each rung timed on its own inserts)", rebuildAt, 1, []rung{
		{metric: "http.insert_us", entry: "client.Client.Insert over the socket"},
		{metric: "handler.insert_us", entry: "Server.ServeHTTP into a recorder"},
		{metric: "mutable.insert_us", entry: "MutableEngine.Insert"},
		{metric: "wal.append_interval_us", entry: "WAL.Append, sync=interval"},
	})
	l.out.tables = append(l.out.tables, wt)
	L["handler.insert_self_us"] = wt.self("handler.insert_us")
}

// micro times the pieces too short to time per call: the point codec, the
// result cache on its own, and one histogram observation.
func (l *ladderRun) micro(st *store) {
	L := l.out.layers
	qs := queries(l.seed, "ladder/micro", st.points(), 1024)
	raws := make([]json.RawMessage, len(qs))
	for i, q := range qs {
		raws[i], _ = dpserver.EncodePoint(q)
	}
	L["wire.encode_point_ns"] = perOp(16, len(qs), func(i int) { dpserver.EncodePoint(qs[i%len(qs)]) })
	L["wire.decode_point_ns"] = perOp(16, len(qs), func(i int) { dpserver.DecodePoint(raws[i%len(qs)]) })

	// A cache of the serving size, full, with keys the length of the
	// server's own (6 coordinates and k, binary): hits, misses, and puts
	// that evict.
	size := servingConfig().CacheSize
	keys := make([]string, 20*size)
	for i := range keys {
		keys[i] = fmt.Sprintf("%056d", i)
	}
	cache := dpserver.NewCache(size)
	answer := make([]distperm.Result, knnK)
	for i := 0; i < size; i++ {
		cache.Put(keys[i], cache.Generation(), answer)
	}
	L["cache.get_hit_ns"] = perOp(16, size, func(i int) { cache.Get(keys[i%size]) })
	L["cache.get_miss_ns"] = perOp(16, size, func(i int) { cache.Get(keys[size+i%size]) })
	L["cache.put_evict_ns"] = perOp(16, size, func(i int) { cache.Put(keys[2*size+i], 0, answer) })

	h := obs.NewHistogram(obs.DefLatencyBuckets)
	L["obs.observe_ns"] = perOp(16, 1<<14, func(i int) { h.Observe(float64(i%1000) * 1e-6) })
}

// writeTrace writes the spans in start order.
func writeTrace(path string, spans []span) error {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })
	return writeJSON(path, struct {
		Spans []span `json:"spans"`
	}{spans})
}
