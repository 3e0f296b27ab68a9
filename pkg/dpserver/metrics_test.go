package dpserver_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"distperm/internal/dataset"
	"distperm/pkg/distperm"
	"distperm/pkg/dpserver"
	"distperm/pkg/dpserver/client"
)

// scrape fetches /metrics and returns the exposition text.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want Prometheus text v0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// samples returns, in exposition order, the values of the sample lines
// named name whose label block holds every wanted k="v".
func samples(t *testing.T, text, name string, labels map[string]string) []float64 {
	t.Helper()
	var vals []float64
lines:
	for _, line := range strings.Split(text, "\n") {
		series, value, _ := strings.Cut(line, " ")
		block, ok := strings.CutPrefix(series, name)
		if !ok || block != "" && block[0] != '{' {
			continue
		}
		for k, v := range labels {
			if !strings.Contains(strings.Replace(block, "{", ",", 1), fmt.Sprintf(",%s=%q", k, v)) {
				continue lines
			}
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		vals = append(vals, v)
	}
	return vals
}

// sampleValue returns the value of the one sample of name carrying the
// given labels, failing unless there is exactly one.
func sampleValue(t *testing.T, text, name string, labels map[string]string) float64 {
	t.Helper()
	vals := samples(t, text, name, labels)
	if len(vals) != 1 {
		t.Fatalf("/metrics has %d samples %s with labels %v, want 1", len(vals), name, labels)
	}
	return vals[0]
}

// histCount returns the _count sample of the named histogram.
func histCount(t *testing.T, text, name string, labels map[string]string) float64 {
	t.Helper()
	return sampleValue(t, text, name+"_count", labels)
}

// family is what an exposition's # HELP and # TYPE lines declare.
type family struct{ typ, help string }

// families reads an exposition's # HELP and # TYPE lines, by family name.
func families(text string) map[string]family {
	fams := map[string]family{}
	for _, line := range strings.Split(text, "\n") {
		if f := strings.SplitN(line, " ", 4); len(f) == 4 && f[0] == "#" {
			fam := fams[f[2]]
			if f[1] == "TYPE" {
				fam.typ = f[3]
			} else {
				fam.help = f[3]
			}
			fams[f[2]] = fam
		}
	}
	return fams
}

// namingProblems names every family that breaks a naming rule: a dpserver_
// or distperm_ prefix, counters end in _total and gauges do not, histograms
// end in _seconds, _bytes or _size, and help is non-empty.
func namingProblems(fams map[string]family) []string {
	var problems []string
	for name, f := range fams {
		total := strings.HasSuffix(name, "_total")
		unit := strings.HasSuffix(name, "_seconds") || strings.HasSuffix(name, "_bytes") || strings.HasSuffix(name, "_size")
		typed := map[string]bool{"counter": total, "gauge": !total, "histogram": unit}[f.typ]
		if !typed || f.help == "" || !strings.HasPrefix(name, "dpserver_") && !strings.HasPrefix(name, "distperm_") {
			problems = append(problems, fmt.Sprintf("%s: %s, help %q", name, f.typ, f.help))
		}
	}
	slices.Sort(problems)
	return problems
}

// TestMetricsEndpoint drives traffic through every serving layer and then
// checks /metrics reports it: per-endpoint requests and latency, cache
// hits/misses, admission waits, and engine queries and evals. The
// exposition format itself is pinned by pkg/obs's golden.
func TestMetricsEndpoint(t *testing.T) {
	_, ts, _, queries := testServer(t, 77, 300, 4, dpserver.Config{CacheSize: 8})

	post := func(path, body string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	enc := func(q distperm.Point) string {
		raw, err := dpserver.EncodePoint(q)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}

	const reps = 20
	for i := 0; i < reps; i++ {
		post("/v1/knn", fmt.Sprintf(`{"query":%s,"k":3}`, enc(queries[i])))
	}
	// The most recent query again: a cache hit (earlier entries may have
	// been evicted by the LRU's 8-entry cap).
	post("/v1/knn", fmt.Sprintf(`{"query":%s,"k":3}`, enc(queries[reps-1])))
	post("/v1/range", fmt.Sprintf(`{"query":%s,"r":0.5}`, enc(queries[1])))
	// One error: bad body.
	post("/v1/knn", `{"k":0}`)

	fams := scrape(t, ts.URL)

	if v := sampleValue(t, fams, "dpserver_requests_total", map[string]string{"endpoint": "knn"}); v != reps+2 {
		t.Errorf("knn requests_total = %g, want %d", v, reps+2)
	}
	if v := sampleValue(t, fams, "dpserver_requests_total", map[string]string{"endpoint": "range"}); v != 1 {
		t.Errorf("range requests_total = %g, want 1", v)
	}
	if v := sampleValue(t, fams, "dpserver_errors_total", map[string]string{"endpoint": "knn"}); v != 1 {
		t.Errorf("knn errors_total = %g, want 1", v)
	}
	if v := sampleValue(t, fams, "dpserver_cache_hits_total", nil); v != 1 {
		t.Errorf("cache hits = %g, want 1", v)
	}
	if v := sampleValue(t, fams, "dpserver_cache_misses_total", nil); v < reps {
		t.Errorf("cache misses = %g, want >= %d", v, reps)
	}
	// Latency histogram: count matches requests.
	if v := histCount(t, fams, "dpserver_request_duration_seconds", map[string]string{"endpoint": "knn"}); v != reps+2 {
		t.Errorf("knn latency count = %g, want %d", v, reps+2)
	}
	// Engine families: every non-cached single query reached the engine.
	if v := sampleValue(t, fams, "distperm_engine_queries_total", nil); v < reps {
		t.Errorf("engine queries = %g, want >= %d", v, reps)
	}
	if v := sampleValue(t, fams, "distperm_engine_distance_evals_total", nil); v <= 0 {
		t.Errorf("engine evals = %g, want > 0", v)
	}
	if v := histCount(t, fams, "distperm_engine_query_duration_seconds", nil); v < reps {
		t.Errorf("engine latency count = %g, want >= %d", v, reps)
	}
	// Admission: each of the reps+1 requests that reached the engine (the
	// cache hit and the bad body never got that far) passed the gate once.
	if v := histCount(t, fams, "dpserver_admission_wait_seconds", nil); v != reps+1 {
		t.Errorf("admission wait count = %g, want %d", v, reps+1)
	}
	// /v1/stats still carries the same counters (JSON surface unchanged).
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Server struct {
			Requests  int64 `json:"requests"`
			Errors    int64 `json:"errors"`
			CacheHits int64 `json:"cache_hits"`
		} `json:"server"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Server.CacheHits != 1 {
		t.Errorf("/v1/stats cache_hits = %d, want 1", stats.Server.CacheHits)
	}
	// One accounting: requests and errors on /v1/stats are the sums over
	// endpoints of the two counter families — a request is counted before
	// it is served, so the scrape saw itself and only this /v1/stats is new.
	var requests, errs float64
	for _, v := range samples(t, fams, "dpserver_requests_total", nil) {
		requests += v
	}
	for _, v := range samples(t, fams, "dpserver_errors_total", nil) {
		errs += v
	}
	if float64(stats.Server.Requests) != requests+1 || float64(stats.Server.Errors) != errs || errs != 1 {
		t.Errorf("/v1/stats requests=%d errors=%d, /metrics sums %g (+1 since) and %g",
			stats.Server.Requests, stats.Server.Errors, requests, errs)
	}
}

// TestMetricNamingConventions lints the live server exposition: every
// family carries a known prefix, counters end in _total, histograms in a
// unit suffix, and every family has help text. On the way it drives
// dpserver_wire_fallbacks_total: a canonical body leaves it at 0, one the
// codec declines ("Query") moves it to 1 and gets the same bytes back.
func TestMetricNamingConventions(t *testing.T) {
	_, ts, _, queries := testServer(t, 78, 200, 3, dpserver.Config{CacheSize: 4})
	raw, err := dpserver.EncodePoint(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	var answers []string
	for i, key := range []string{"query", "Query"} {
		resp, err := http.Post(ts.URL+"/v1/knn", "application/json",
			strings.NewReader(fmt.Sprintf(`{%q:%s,"k":2}`, key, string(raw))))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		answers = append(answers, string(body))
		if got := sampleValue(t, scrape(t, ts.URL), "dpserver_wire_fallbacks_total", nil); got != float64(i) {
			t.Errorf("after a %q body dpserver_wire_fallbacks_total = %g, want %d", key, got, i)
		}
	}
	if answers[0] != answers[1] || !strings.Contains(answers[0], `"results"`) {
		t.Errorf("the declined body got %q, the canonical one %q", answers[1], answers[0])
	}

	fams := families(scrape(t, ts.URL))
	if len(fams) == 0 {
		t.Fatal("no families exported")
	}
	if problems := namingProblems(fams); len(problems) > 0 {
		t.Errorf("metric naming problems:\n  %s", strings.Join(problems, "\n  "))
	}
}

// TestNamingLint: the naming lint passes families that keep the rules and
// names each one that breaks one.
func TestNamingLint(t *testing.T) {
	lint := func(fams ...[3]string) []string {
		var text strings.Builder
		for _, f := range fams {
			fmt.Fprintf(&text, "# HELP %s %s\n# TYPE %s %s\n", f[0], f[2], f[0], f[1])
		}
		return namingProblems(families(text.String()))
	}
	if probs := lint(
		[3]string{"dpserver_requests_total", "counter", "x"},
		[3]string{"distperm_engine_query_duration_seconds", "histogram", "x"},
		[3]string{"dpserver_cache_entries", "gauge", "x"},
		[3]string{"distperm_engine_bucket_rows_heap_bytes", "gauge", "x"}, // a unit suffix is not a histogram's alone
		[3]string{"distperm_engine_bound_cells", "gauge", "x"},
	); len(probs) != 0 {
		t.Fatalf("clean families flagged: %v", probs)
	}
	probs := lint(
		[3]string{"requests_total", "counter", "x"},     // no prefix
		[3]string{"dpserver_requests", "counter", "x"},  // counter without _total
		[3]string{"dpserver_busy_total", "gauge", "x"},  // gauge with _total
		[3]string{"dpserver_latency", "histogram", "x"}, // histogram without unit
		[3]string{"dpserver_ok_total", "counter", ""},   // missing help
	)
	if len(probs) != 5 {
		t.Fatalf("want 5 problems, got %d: %v", len(probs), probs)
	}
}

// TestMetricFamilyInventory pins the server-level and engine families a
// read-only server exports: one added or dropped shows up here, beside its
// lint.
func TestMetricFamilyInventory(t *testing.T) {
	_, ts, _, _ := testServer(t, 79, 100, 3, dpserver.Config{CacheSize: 4})
	fams := families(scrape(t, ts.URL))
	for _, tc := range []struct {
		prefix string
		want   []string
	}{
		{"dpserver_", []string{
			"dpserver_admission_wait_seconds", "dpserver_cache_entries", "dpserver_cache_evictions_total",
			"dpserver_cache_hits_total", "dpserver_cache_invalidations_total", "dpserver_cache_misses_total",
			"dpserver_errors_total", "dpserver_inflight_requests",
			"dpserver_request_duration_seconds", "dpserver_requests_total", "dpserver_slow_queries_total",
			"dpserver_wire_fallbacks_total",
		}},
		{"distperm_engine_", []string{
			"distperm_engine_batched_queries_total", "distperm_engine_bound_cells", "distperm_engine_bucket_rows_heap_bytes",
			"distperm_engine_busy_workers", "distperm_engine_distance_evals_total", "distperm_engine_distinct_rows",
			"distperm_engine_pruned_evals_total", "distperm_engine_queries_total", "distperm_engine_query_duration_seconds",
			"distperm_engine_workers",
		}},
	} {
		var got []string
		for name := range fams {
			if strings.HasPrefix(name, tc.prefix) {
				got = append(got, name)
			}
		}
		if slices.Sort(got); !slices.Equal(got, tc.want) {
			t.Errorf("%s families:\n got  %v\n want %v", tc.prefix, got, tc.want)
		}
	}
}

// TestMetricsBucketRowsHeapBytes: distperm_engine_bucket_rows_heap_bytes is
// the heap a store spends on a bucket-major copy of its coordinates and their
// labels — n·d·8 + n·4 for a heap-built store from the first query that reads
// a bucket, exact or approximate, and nothing, ever, for one served out of a
// frozen (PFR3) container, whose points section already lies that way. Beside
// it, distperm_engine_bound_cells is 0 until the first exact query bounds the
// store, then the heap-built store's cells (more than its buckets) and the
// PFR3 store's buckets, one cell each.
func TestMetricsBucketRowsHeapBytes(t *testing.T) {
	const n, d = 2400, 3
	rng := rand.New(rand.NewSource(91))
	db, err := distperm.NewDB(distperm.L2, dataset.ClusteredVectors(rng, n, d, 6, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := distperm.Build(db, distperm.Spec{Index: "distperm", K: 6, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	var frozen bytes.Buffer
	if _, err := distperm.WriteFrozenIndex(&frozen, idx.(*distperm.PermIndex)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.frozen")
	if err := os.WriteFile(path, frozen.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := distperm.Load(path, distperm.LoadOptions{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	q, err := dpserver.EncodePoint(db.Points[7])
	if err != nil {
		t.Fatal(err)
	}
	buckets := float64(idx.(*distperm.PermIndex).ApproxBuckets())
	for _, c := range []struct {
		name string
		db   *distperm.DB
		idx  distperm.Index
		want float64 // after the first query that reads a bucket
	}{{"heap-built", db, idx, n*d*8 + n*4}, {"frozen", st.DB, st.Index, 0}} {
		srv := newServer(t, c.db, c.idx, 2, dpserver.Config{})
		ts := httptest.NewServer(srv)
		gauges := func() (float64, float64) {
			fams := scrape(t, ts.URL)
			return sampleValue(t, fams, "distperm_engine_bucket_rows_heap_bytes", nil), sampleValue(t, fams, "distperm_engine_bound_cells", nil)
		}
		if v, cells := gauges(); v != 0 || cells != 0 {
			t.Errorf("%s: %g bytes of rows and %g bound cells before any query", c.name, v, cells)
		}
		for _, body := range []string{`{"query":%s,"k":3,"approx":true,"nprobe":1}`, `{"query":%s,"k":3}`} {
			resp, err := http.Post(ts.URL+"/v1/knn", "application/json", strings.NewReader(fmt.Sprintf(body, q)))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: POST /v1/knn %s = %d", c.name, body, resp.StatusCode)
			}
			v, cells := gauges()
			if v != c.want {
				t.Errorf("%s: %g bytes of rows after %s, want %g", c.name, v, body, c.want)
			}
			switch exact := !strings.Contains(body, "approx"); {
			case !exact && cells != 0, exact && c.want > 0 && cells <= buckets, exact && c.want == 0 && cells != buckets:
				t.Errorf("%s: %g bound cells after %s over %g buckets", c.name, cells, body, buckets)
			}
		}
		ts.Close()
		srv.Close()
	}
}

// TestServerWALSurface pins the durability observability contract: a
// WAL-backed mutable server surfaces the log through both /v1/stats (the
// wal object) and /metrics (the distperm_wal_ families, which must also
// pass the naming lint).
func TestServerWALSurface(t *testing.T) {
	w, err := distperm.OpenWAL(t.TempDir(), distperm.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts, points := mutableServer(t, 41, 150,
		distperm.MutableConfig{Spec: distperm.Spec{Index: "distperm", K: 6, Seed: 41}, WAL: w},
		dpserver.Config{CacheSize: 4})

	const writes = 5
	for i := 0; i < writes; i++ {
		raw, err := dpserver.EncodePoint(points[i])
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/insert", "application/json",
			strings.NewReader(fmt.Sprintf(`{"point":%s}`, string(raw))))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("insert %d = %d", i, resp.StatusCode)
		}
	}

	// JSON surface: /v1/stats carries the wal object with the acked writes
	// logged and fsynced (default policy is always).
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats dpserver.StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	ws := stats.WAL
	if ws == nil {
		t.Fatal("/v1/stats has no wal object on a WAL-backed server")
	}
	if ws.Sync != "always" || ws.Seq != writes || ws.AppendedRecords != writes {
		t.Errorf("wal stats %+v, want sync=always seq=%d appended=%d", ws, writes, writes)
	}
	if ws.Syncs < writes || ws.FsyncCount < writes {
		t.Errorf("sync=always logged %d records with %d syncs / %d fsync samples", writes, ws.Syncs, ws.FsyncCount)
	}

	// Exposition surface: the wal families exist, agree with the JSON
	// counters, and pass the same naming lint as everything else.
	fams := scrape(t, ts.URL)
	if v := sampleValue(t, fams, "distperm_wal_appended_records_total", nil); v != writes {
		t.Errorf("wal appended_records_total = %g, want %d", v, writes)
	}
	if v := sampleValue(t, fams, "distperm_wal_replayed_records_total", nil); v != 0 {
		t.Errorf("wal replayed_records_total = %g on a fresh log, want 0", v)
	}
	if v := sampleValue(t, fams, "distperm_wal_seq", nil); v != writes {
		t.Errorf("wal seq = %g, want %d", v, writes)
	}
	if v := histCount(t, fams, "distperm_wal_fsync_duration_seconds", nil); v < writes {
		t.Errorf("wal fsync histogram count = %g, want >= %d", v, writes)
	}
	if problems := namingProblems(families(fams)); len(problems) > 0 {
		t.Errorf("metric naming problems:\n  %s", strings.Join(problems, "\n  "))
	}
}

// TestRequestIDsAndSlowQueryLog pins the tracing contract: the client's
// X-Request-ID is echoed back and lands in the slow-query log (threshold 0
// via 1ns, so every query logs), records parse as one-line JSON with the
// endpoint, parameters, and admission wait filled in.
func TestRequestIDsAndSlowQueryLog(t *testing.T) {
	var logBuf syncBuffer
	rng := rand.New(rand.NewSource(99))
	db, err := distperm.NewDB(distperm.L2, dataset.UniformVectors(rng, 200, 3))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := distperm.Build(db, distperm.Spec{Index: "distperm", K: 6, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, db, idx, 2, dpserver.Config{
		SlowQuery:    time.Nanosecond,
		SlowQueryLog: &logBuf,
	})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()

	raw, _ := dpserver.EncodePoint(dataset.UniformVectors(rng, 1, 3)[0])
	req, _ := http.NewRequest("POST", ts.URL+"/v1/knn",
		strings.NewReader(fmt.Sprintf(`{"query":%s,"k":3}`, string(raw))))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "trace-me-42" {
		t.Fatalf("X-Request-ID echoed as %q, want trace-me-42", got)
	}

	// A request without an ID gets one minted.
	resp, err = http.Post(ts.URL+"/v1/knn", "application/json",
		strings.NewReader(fmt.Sprintf(`{"query":%s,"k":3}`, string(raw))))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	minted := resp.Header.Get("X-Request-ID")
	if minted == "" {
		t.Fatal("no X-Request-ID minted")
	}

	// A client chooses at most 128 bytes of ID: a longer one — it would be
	// echoed and copied into the slow-query record — is replaced by a
	// minted one, the longest allowed is kept. Neither request has a body,
	// so neither reaches the slow-query log.
	for _, tc := range []struct {
		id   string
		kept bool
	}{{strings.Repeat("x", 128), true}, {strings.Repeat("x", 129), false}, {strings.Repeat("x", 1<<16), false}} {
		req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
		req.Header.Set("X-Request-ID", tc.id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := resp.Header.Get("X-Request-ID")
		if kept := got == tc.id; kept != tc.kept || got == "" || len(got) > 128 {
			t.Errorf("a %d-byte X-Request-ID came back as %d bytes (kept=%v), want kept=%v", len(tc.id), len(got), kept, tc.kept)
		}
	}

	// An approximate request bypasses the cache but is traced the same.
	req, _ = http.NewRequest("POST", ts.URL+"/v1/knn",
		strings.NewReader(fmt.Sprintf(`{"query":%s,"k":4,"approx":true,"nprobe":1}`, string(raw))))
	req.Header.Set("X-Request-ID", "trace-approx")
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var records []map[string]any
	sc := bufio.NewScanner(strings.NewReader(logBuf.String()))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("slow-query line is not JSON: %q: %v", line, err)
		}
		records = append(records, rec)
	}
	if len(records) != 3 {
		t.Fatalf("got %d slow-query records, want 3:\n%s", len(records), logBuf.String())
	}
	first := records[0]
	if first["request_id"] != "trace-me-42" {
		t.Errorf("record request_id = %v, want trace-me-42", first["request_id"])
	}
	if first["endpoint"] != "knn" {
		t.Errorf("record endpoint = %v, want knn", first["endpoint"])
	}
	if k, _ := first["k"].(float64); k != 3 {
		t.Errorf("record k = %v, want 3", first["k"])
	}
	if d, _ := first["duration_ms"].(float64); d <= 0 {
		t.Errorf("record duration_ms = %v, want > 0", first["duration_ms"])
	}
	if w, ok := first["wait_ms"].(float64); !ok || w < 0 {
		t.Errorf("record has no wait_ms: %v", first)
	}
	if records[1]["request_id"] != minted {
		t.Errorf("second record request_id = %v, want minted %q", records[1]["request_id"], minted)
	}
	approx := records[2]
	if approx["request_id"] != "trace-approx" || approx["endpoint"] != "knn" || approx["k"] != 4.0 || approx["queries"] != 1.0 {
		t.Errorf("approx record %v, want trace-approx / knn / k=4 / 1 query", approx)
	}
	if _, ok := approx["wait_ms"].(float64); !ok {
		t.Errorf("approx record %v has no wait_ms: it went through the gate too", approx)
	}
}

// TestMetricsSharedRegistry: two servers can publish side by side on one
// caller-owned registry only if it is not shared — the default private
// registry means constructing many servers in-process never panics on
// duplicate registration.
func TestMetricsSharedRegistry(t *testing.T) {
	for i := 0; i < 2; i++ {
		_, ts, _, _ := testServer(t, int64(80+i), 100, 3, dpserver.Config{})
		if _, ok := families(scrape(t, ts.URL))["dpserver_requests_total"]; !ok {
			t.Fatalf("server %d missing dpserver_requests_total", i)
		}
	}
}

// syncBuffer is a bytes.Buffer safe for the logger's concurrent writes.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestPrunedEvalsSurface: the points exact queries skip under a bucket bound
// are counted once and surface on both planes — distperm_engine_pruned_evals_total
// on /metrics and pruned_evals on /v1/stats — and with the evaluations spent
// they account for every (query, point) pair: the prune rate is
// pruned / (pruned + evals). A "queries" batch is its queries' pruned walks,
// so it adds to the count as singles do.
func TestPrunedEvalsSurface(t *testing.T) {
	const n, sites, reps = 4000, 8, 12 // enough points per bucket for the store to carry bounds
	_, ts, _, queries := testServer(t, 79, n, 3, dpserver.Config{})
	c := client.New(ts.URL)
	engineStats := func() dpserver.EngineStatsWire {
		st, err := c.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return st.Engine
	}
	for _, q := range queries[:reps] {
		if _, err := c.KNN(context.Background(), q, 3); err != nil {
			t.Fatal(err)
		}
	}
	single := engineStats()
	if single.PrunedEvals <= 0 || single.DistanceEvals+single.PrunedEvals != reps*(n+sites) {
		t.Errorf("/v1/stats after singles: %d evals + %d pruned, want a positive pruned count and a total of %d",
			single.DistanceEvals, single.PrunedEvals, reps*(n+sites))
	}
	if _, err := c.KNNBatch(context.Background(), queries[reps:2*reps], 3); err != nil {
		t.Fatal(err)
	}
	e := engineStats()
	if e.BatchedQueries != reps || e.PrunedEvals <= single.PrunedEvals || e.DistanceEvals+e.PrunedEvals != 2*reps*(n+sites) {
		t.Errorf("/v1/stats after a %d-query batch: %d batched, %d evals + %d pruned (%d pruned before), want the pruned count to grow and a total of %d",
			reps, e.BatchedQueries, e.DistanceEvals, e.PrunedEvals, single.PrunedEvals, 2*reps*(n+sites))
	}
	fams := scrape(t, ts.URL)
	if v := sampleValue(t, fams, "distperm_engine_pruned_evals_total", nil); v != float64(e.PrunedEvals) {
		t.Errorf("distperm_engine_pruned_evals_total = %g, /v1/stats says %d", v, e.PrunedEvals)
	}
}
