package dpserver_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distperm/internal/dataset"
	"distperm/pkg/distperm"
	"distperm/pkg/dpserver"
	"distperm/pkg/dpserver/client"
)

// newServer is dpserver.New over a read-only engine serving idx with
// workers workers.
func newServer(t testing.TB, db *distperm.DB, idx distperm.Index, workers int, cfg dpserver.Config) *dpserver.Server {
	t.Helper()
	e, err := distperm.NewEngine(db, idx, workers)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dpserver.New(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// testServer builds a db + index, a server over it, and an independent
// truth engine over the same built index, so HTTP answers can be compared
// against direct engine batches exactly.
func testServer(t testing.TB, seed int64, n, dim int, cfg dpserver.Config) (*dpserver.Server, *httptest.Server, *distperm.Engine, []distperm.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db, err := distperm.NewDB(distperm.L2, dataset.UniformVectors(rng, n, dim))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := distperm.Build(db, distperm.Spec{Index: "distperm", K: 8, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, db, idx, 4, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close() // drains handlers before the engine goes away
		srv.Close()
	})
	truth, err := distperm.NewEngine(db, idx, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(truth.Close)
	return srv, ts, truth, dataset.UniformVectors(rng, 128, dim)
}

func sameResults(a, b []distperm.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestServerCoalescedKNNMatchesEngine is the serving acceptance test: many
// goroutines firing concurrent single-query HTTP requests — the path
// through the result cache and the admission gate — must get answers
// identical to direct Engine.KNNBatch calls, and the counters of the
// micro-batcher the gate replaced read 0.
func TestServerCoalescedKNNMatchesEngine(t *testing.T) {
	_, ts, truth, queries := testServer(t, 21, 600, 3,
		dpserver.Config{CacheSize: 64})
	c := client.New(ts.URL)
	const k = 3
	want, err := truth.KNNBatch(queries, k)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 16
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := cl; i < len(queries); i += clients {
				got, err := c.KNN(context.Background(), queries[i], k)
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				if !sameResults(got, want[i]) {
					t.Errorf("query %d: HTTP answer %v != engine answer %v", i, got, want[i])
					return
				}
			}
		}(cl)
	}
	wg.Wait()

	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.SingleQueries != int64(len(queries)) {
		t.Errorf("SingleQueries = %d, want %d", st.Server.SingleQueries, len(queries))
	}
	if st.Server.CoalescedBatches != 0 || st.Server.CoalescedQueries != 0 {
		t.Errorf("coalescer counters = %d / %d, want 0 / 0", st.Server.CoalescedBatches, st.Server.CoalescedQueries)
	}
	if st.Engine.Queries == 0 || st.Engine.DistanceEvals == 0 {
		t.Errorf("engine counters not surfaced: %+v", st.Engine)
	}
}

// TestServerBatchedForms: the batched request shape reaches the engine as
// one batch and matches direct engine answers for both kNN and range.
func TestServerBatchedForms(t *testing.T) {
	_, ts, truth, queries := testServer(t, 22, 400, 3,
		dpserver.Config{})
	c := client.New(ts.URL)
	qs := queries[:32]

	wantK, err := truth.KNNBatch(qs, 2)
	if err != nil {
		t.Fatal(err)
	}
	gotK, err := c.KNNBatch(context.Background(), qs, 2)
	if err != nil {
		t.Fatal(err)
	}
	const radius = 0.3
	wantR, err := truth.RangeBatch(qs, radius)
	if err != nil {
		t.Fatal(err)
	}
	gotR, err := c.RangeBatch(context.Background(), qs, radius)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if !sameResults(gotK[i], wantK[i]) {
			t.Errorf("kNN query %d: %v != %v", i, gotK[i], wantK[i])
		}
		if !sameResults(gotR[i], wantR[i]) {
			t.Errorf("range query %d: %v != %v", i, gotR[i], wantR[i])
		}
	}
	// The single-query range path agrees too.
	gotOne, err := c.Range(context.Background(), qs[0], radius)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResults(gotOne, wantR[0]) {
		t.Errorf("single range: %v != %v", gotOne, wantR[0])
	}
}

// TestServerCache: repeating a query hits the LRU instead of the engine,
// with identical answers and visible hit counters.
func TestServerCache(t *testing.T) {
	_, ts, _, queries := testServer(t, 23, 300, 3,
		dpserver.Config{CacheSize: 16})
	c := client.New(ts.URL)
	q := queries[0]
	first, err := c.KNN(context.Background(), q, 2)
	if err != nil {
		t.Fatal(err)
	}
	statsBefore, _ := c.Stats(context.Background())
	for i := 0; i < 5; i++ {
		again, err := c.KNN(context.Background(), q, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(again, first) {
			t.Fatalf("cached answer diverged: %v != %v", again, first)
		}
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.CacheHits < statsBefore.Server.CacheHits+5 {
		t.Errorf("CacheHits = %d, want ≥ %d", st.Server.CacheHits, statsBefore.Server.CacheHits+5)
	}
	if st.Engine.Queries != statsBefore.Engine.Queries {
		t.Errorf("cached hits reached the engine: %d → %d queries",
			statsBefore.Engine.Queries, st.Engine.Queries)
	}
	// A different k misses and re-populates.
	if _, err := c.KNN(context.Background(), q, 3); err != nil {
		t.Fatal(err)
	}
	st2, _ := c.Stats(context.Background())
	if st2.Server.CacheMisses <= st.Server.CacheMisses {
		t.Errorf("k=3 should miss: misses %d → %d", st.Server.CacheMisses, st2.Server.CacheMisses)
	}
}

// TestServerIndexAndHealth: the introspection endpoints describe the
// serving setup.
func TestServerIndexAndHealth(t *testing.T) {
	srv, ts, _, _ := testServer(t, 24, 200, 3, dpserver.Config{})
	c := client.New(ts.URL)
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	info, err := c.IndexInfo(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info != srv.Info() {
		t.Errorf("IndexInfo = %+v, want %+v", info, srv.Info())
	}
	if info.Kind != "distperm" || info.N != 200 || info.Shards != 1 || info.Workers != 4 || info.Bits <= 0 || info.Metric != "L2" {
		t.Errorf("implausible IndexInfo %+v", info)
	}
}

// TestServerSharded: a sharded container serves through a sharded Engine
// with scatter-gather answers identical to an unsharded engine over the
// same database.
func TestServerSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	db, err := distperm.NewDB(distperm.L2, dataset.UniformVectors(rng, 500, 3))
	if err != nil {
		t.Fatal(err)
	}
	sx, err := distperm.BuildSharded(db, distperm.Spec{Index: "distperm", K: 6, Seed: 25}, 3, distperm.RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, db, sx, 2, dpserver.Config{})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	if info := srv.Info(); info.Kind != "sharded" || info.Shards != 3 || info.Workers != 6 {
		t.Fatalf("sharded IndexInfo = %+v", info)
	}
	lin, err := distperm.Build(db, distperm.Spec{Index: "linear"})
	if err != nil {
		t.Fatal(err)
	}
	te, err := distperm.NewEngine(db, lin, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer te.Close()
	qs := dataset.UniformVectors(rng, 40, 3)
	want, err := te.KNNBatch(qs, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := client.New(ts.URL)
	for i, q := range qs {
		got, err := c.KNN(context.Background(), q, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(got, want[i]) {
			t.Errorf("sharded query %d: %v != %v", i, got, want[i])
		}
	}
}

// requestErrorCases are the bodies TestServerRequestErrors posts to a
// 300-point, 3-dimensional store and the status each must get; the /v1/knn
// ones also seed FuzzKNNRequest, and all of them FuzzWireCodec.
var requestErrorCases = []struct {
	path, body string
	want       int
}{
	{"/v1/knn", `{"query": [0.1, 0.2, 0.3], "k": 1}`, http.StatusOK},
	{"/v1/knn", `not json`, http.StatusBadRequest},
	{"/v1/knn", `{"k": 1}`, http.StatusBadRequest},                                                     // no query
	{"/v1/knn", `{"query": [0.1,0.2,0.3], "queries": [[0.1,0.2,0.3]], "k": 1}`, http.StatusBadRequest}, // both
	{"/v1/knn", `{"query": [0.1,0.2,0.3], "k": 0}`, http.StatusBadRequest},                             // bad k
	{"/v1/knn", `{"query": [0.1,0.2,0.3], "k": 301}`, http.StatusBadRequest},                           // k > n
	{"/v1/knn", `{"query": [0.1,0.2], "k": 1}`, http.StatusBadRequest},                                 // wrong dims
	{"/v1/knn", `{"query": "word", "k": 1}`, http.StatusBadRequest},                                    // wrong type
	{"/v1/knn", `{"query": 7, "k": 1}`, http.StatusBadRequest},                                         // not a point
	{"/v1/range", `{"query": [0.1,0.2,0.3], "r": -0.5}`, http.StatusBadRequest},                        // bad radius
	{"/v1/range", `{"queries": [[0.1,0.2,0.3], [0.4]], "r": 0.2}`, http.StatusBadRequest},              // bad element
	{"/v1/range", `{"query": [0.1,0.2,0.3], "r": 0}`, http.StatusOK},                                   // r=0 is valid
	// Approximate requests run the same decode-validate-route function,
	// so they get the same 400s — and an empty batch is a 200, not a
	// NaN candidate fraction that fails to encode.
	{"/v1/knn", `{"query": [0.1,0.2,0.3], "k": 1, "approx": true, "nprobe": 2}`, http.StatusOK},
	{"/v1/knn", `{"k": 1, "approx": true}`, http.StatusBadRequest},
	{"/v1/knn", `{"query": [0.1,0.2,0.3], "queries": [[0.1,0.2,0.3]], "k": 1, "approx": true}`, http.StatusBadRequest},
	{"/v1/knn", `{"query": [0.1,0.2], "k": 1, "approx": true}`, http.StatusBadRequest},
	{"/v1/knn", `{"queries": [[0.1,0.2,0.3], "word"], "k": 1, "approx": true}`, http.StatusBadRequest},
	{"/v1/knn", `{"query": [0.1,0.2,0.3], "k": 301, "approx": true}`, http.StatusBadRequest},
	{"/v1/knn", `{"queries": [], "k": 1}`, http.StatusOK},
	{"/v1/knn", `{"queries": [], "k": 1, "approx": true}`, http.StatusOK},
	// A request carries at most 4096 queries: one more is a 400 that
	// names the limit, on every batched form.
	{"/v1/knn", `{"queries": [` + strings.Repeat("[0.1,0.2,0.3],", 4095) + `[0.1,0.2,0.3]], "k": 1}`, http.StatusOK},
	{"/v1/knn", `{"queries": [` + strings.Repeat("[0.1,0.2,0.3],", 4096) + `[0.1,0.2,0.3]], "k": 1}`, http.StatusBadRequest},
	{"/v1/knn", `{"queries": [` + strings.Repeat("[0.1,0.2,0.3],", 4096) + `[0.1,0.2,0.3]], "k": 1, "approx": true}`, http.StatusBadRequest},
	{"/v1/range", `{"queries": [` + strings.Repeat("[0.1,0.2,0.3],", 4096) + `[0.1,0.2,0.3]], "r": 0.1}`, http.StatusBadRequest},
	// A kNN request asks for at most 1 << 20 answers, queries × k: one more
	// is a 400 that names the limit, on the exact and the approximate path.
	{"/v1/knn", `{"queries": [` + strings.Repeat("[0.1,0.2,0.3],", 4095) + `[0.1,0.2,0.3]], "k": 256}`, http.StatusOK},
	{"/v1/knn", `{"queries": [` + strings.Repeat("[0.1,0.2,0.3],", 4095) + `[0.1,0.2,0.3]], "k": 257}`, http.StatusBadRequest},
	{"/v1/knn", `{"queries": [` + strings.Repeat("[0.1,0.2,0.3],", 4095) + `[0.1,0.2,0.3]], "k": 257, "approx": true}`, http.StatusBadRequest},
	// A range request holds at most as many answers: 256 points of the store
	// lie within 0.9705 of the query, 257 within 0.9707.
	{"/v1/range", `{"queries": [` + strings.Repeat("[0.1,0.2,0.3],", 4095) + `[0.1,0.2,0.3]], "r": 0.9705}`, http.StatusOK},
	{"/v1/range", `{"queries": [` + strings.Repeat("[0.1,0.2,0.3],", 4095) + `[0.1,0.2,0.3]], "r": 0.9707}`, http.StatusBadRequest},
	// A query so far from the data that its distances overflow to +Inf,
	// which JSON cannot carry: a 400 naming it, not an empty 200.
	{"/v1/knn", `{"query": [1e300, 0, 0], "k": 1}`, http.StatusBadRequest},
	{"/v1/knn", `{"queries": [[0.1,0.2,0.3], [1e300, 0, 0]], "k": 1}`, http.StatusBadRequest},
	{"/v1/knn", `{"query": [1e300, 0, 0], "k": 1, "approx": true}`, http.StatusBadRequest},
}

// TestServerRequestErrors: malformed requests are clean 4xx JSON errors,
// not panics or hangs.
func TestServerRequestErrors(t *testing.T) {
	_, ts, _, _ := testServer(t, 26, 300, 3, dpserver.Config{CacheSize: 4})
	post := func(path, body string) (int, string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	for _, tc := range requestErrorCases {
		code, body := post(tc.path, tc.body)
		if len(tc.body) > 200 {
			tc.body = tc.body[:60] + "…" + tc.body[len(tc.body)-40:]
			if code == http.StatusBadRequest && !strings.Contains(body, "limit 4096") && !strings.Contains(body, "limit 1048576") {
				t.Errorf("POST %s %s: the 400 does not name the limit: %s", tc.path, tc.body, strings.TrimSpace(body))
			}
		}
		if code == http.StatusBadRequest && strings.Contains(tc.body, "1e300") && !strings.Contains(body, "distance +Inf") {
			t.Errorf("POST %s %s: the 400 does not name the distance: %s", tc.path, tc.body, strings.TrimSpace(body))
		}
		if code != tc.want {
			t.Errorf("POST %s %s → %d (%s), want %d", tc.path, tc.body, code, strings.TrimSpace(body), tc.want)
		}
		if code != http.StatusOK && !strings.Contains(body, `"error"`) {
			t.Errorf("POST %s %s: non-JSON error body %q", tc.path, tc.body, body)
		}
		if code == http.StatusOK && !json.Valid([]byte(body)) {
			t.Errorf("POST %s %s: 200 with body %q", tc.path, tc.body, body)
		}
	}
	// Wrong method and unknown paths come from the mux.
	resp, err := http.Get(ts.URL + "/v1/knn")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/knn → %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/nope → %d, want 404", resp.StatusCode)
	}
}

// TestServerOversizedBody: a POST body over the server's fixed limit is
// answered 413 with a JSON error — not buffered whole — counted against its
// endpoint, and the server goes on answering. A query body is read whole
// before it is parsed, so one whose JSON value ends early is a 413 too (an
// encoding/json stream decoder stopped at the value's end and answered it).
func TestServerOversizedBody(t *testing.T) {
	_, ts, _, _ := testServer(t, 27, 100, 3, dpserver.Config{})
	for i, big := range []string{
		`{"k": 1, "query": [` + strings.Repeat("0.25, ", 2<<20) + `0.25]}`, // 12 MiB
		`{"query": [0.1, 0.2, 0.3], "k": 1}` + strings.Repeat(" ", 9<<20),  // 9 MiB, the value in its first 35 bytes
	} {
		resp, err := http.Post(ts.URL+"/v1/knn", "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(body.String(), `"error"`) {
			t.Fatalf("oversized /v1/knn %q… → %d %q, want 413 with a JSON error", big[:35], resp.StatusCode, body.String())
		}
		if got := sampleValue(t, scrape(t, ts.URL), "dpserver_errors_total", map[string]string{"endpoint": "knn"}); got != float64(i+1) {
			t.Errorf(`dpserver_errors_total{endpoint="knn"} = %v, want %d`, got, i+1)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/knn", "application/json", strings.NewReader(`{"query": [0.1, 0.2, 0.3], "k": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("request after the oversized one → %d, want 200", resp.StatusCode)
	}
}

// TestServerGracefulShutdown fires continuous single-query traffic while
// the server shuts down: every request either answers correctly or fails
// with a transport/HTTP error — no panics, no hangs (the PR 2 Close/submit
// stress test lifted to the network layer). Run under -race.
func TestServerGracefulShutdown(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	db, err := distperm.NewDB(distperm.L2, dataset.UniformVectors(rng, 400, 3))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := distperm.Build(db, distperm.Spec{Index: "distperm", K: 6, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := distperm.NewEngine(db, idx, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer truth.Close()
	queries := dataset.UniformVectors(rng, 64, 3)
	want, err := truth.KNNBatch(queries, 2)
	if err != nil {
		t.Fatal(err)
	}

	for iter := 0; iter < 3; iter++ {
		srv := newServer(t, db, idx, 2,
			dpserver.Config{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ctx, ln) }()
		c := client.New("http://" + ln.Addr().String())

		var wg sync.WaitGroup
		for cl := 0; cl < 8; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				for i := 0; ; i++ {
					q := (cl*31 + i) % len(queries)
					got, err := c.KNN(context.Background(), queries[q], 2)
					if err != nil {
						return // shutdown reached this client — accepted
					}
					if !sameResults(got, want[q]) {
						t.Errorf("in-shutdown answer diverged for query %d", q)
						return
					}
				}
			}(cl)
		}
		time.Sleep(time.Duration(iter*3) * time.Millisecond)
		cancel()
		if err := <-served; err != nil {
			t.Fatalf("Serve returned %v, want clean shutdown", err)
		}
		wg.Wait()
		// The engine is closed now; direct use reports it.
		if _, err := c.KNN(context.Background(), queries[0], 2); err == nil {
			t.Error("request after shutdown should fail")
		}
	}
}

// mutableServer builds a live-mutation serving stack over a fresh store.
func mutableServer(t testing.TB, seed int64, n int, mcfg distperm.MutableConfig, cfg dpserver.Config) (*dpserver.Server, *httptest.Server, []distperm.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db, err := distperm.NewDB(distperm.L2, dataset.UniformVectors(rng, n, 3))
	if err != nil {
		t.Fatal(err)
	}
	me, err := distperm.NewMutableEngine(db, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dpserver.New(me, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts, dataset.UniformVectors(rng, 32, 3)
}

// mutateRequestCases are write-endpoint bodies and the status each gets from
// a mutable server over 3-d points; exactly one of them mutates the store
// (one insert).
var mutateRequestCases = []struct {
	path, body string
	want       int
}{
	{"/v1/insert", `not json`, http.StatusBadRequest},
	{"/v1/insert", `{}`, http.StatusBadRequest},
	{"/v1/insert", `{"point": [1,2,3], "points": [[1,2,3]]}`, http.StatusBadRequest},
	{"/v1/insert", `{"point": [1,2]}`, http.StatusBadRequest},          // wrong dims
	{"/v1/insert", `{"point": "word"}`, http.StatusBadRequest},         // wrong type
	{"/v1/insert", `{"points": [[1,2,3],[9]]}`, http.StatusBadRequest}, // batch validated whole
	{"/v1/insert", `{"point": [0.5, 0.5, 0.5]}`, http.StatusOK},
	{"/v1/insert", `{"points": [` + strings.Repeat("[1,2,3],", 4096) + `[1,2,3]]}`, http.StatusBadRequest}, // over the batch limit: none inserted
	{"/v1/delete", `{"ids": []}`, http.StatusOK},
	{"/v1/delete", `{}`, http.StatusBadRequest},
	{"/v1/delete", `{"ids": [` + strings.Repeat("0,", 4096) + `0]}`, http.StatusBadRequest},
}

// TestServerMutation: the write endpoints mutate the logical point set with
// read-your-write visibility, stable IDs, mutation counters in /v1/stats,
// and clean error codes.
func TestServerMutation(t *testing.T) {
	srv, ts, _ := mutableServer(t, 31, 200,
		distperm.MutableConfig{Spec: distperm.Spec{Index: "distperm", K: 6, Seed: 31}},
		dpserver.Config{CacheSize: 16})
	c := client.New(ts.URL)

	if info := srv.Info(); !info.Mutable || info.Kind != "mutable" || info.Base != "distperm" || info.N != 200 {
		t.Fatalf("mutable IndexInfo %+v", info)
	}
	// Insert a far-corner point: it must be its own nearest neighbour on
	// the very next query.
	far := distperm.Vector{9, 9, 9}
	id, err := c.Insert(context.Background(), far)
	if err != nil {
		t.Fatal(err)
	}
	if id != 200 {
		t.Errorf("first insert took id %d, want 200", id)
	}
	rs, err := c.KNN(context.Background(), far, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].ID != id || rs[0].Distance != 0 {
		t.Fatalf("read-your-write failed: %v", rs)
	}
	// Delete it: the same query must stop returning it.
	if err := c.Delete(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	rs, err = c.KNN(context.Background(), far, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].ID == id {
		t.Fatalf("deleted point still answered: %v", rs)
	}
	// Batched forms.
	ids, err := c.InsertBatch(context.Background(),
		[]distperm.Point{distperm.Vector{8, 8, 8}, distperm.Vector{7, 7, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 201 || ids[1] != 202 {
		t.Fatalf("batch insert ids %v", ids)
	}
	if err := c.DeleteBatch(context.Background(), ids); err != nil {
		t.Fatal(err)
	}
	// Counters surface on /v1/stats.
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.Inserts != 3 || st.Server.Deletes != 3 || st.Server.CacheInvalidations == 0 {
		t.Errorf("mutation counters %+v", st.Server)
	}
	if st.Mutation == nil || st.Mutation.Inserts != 3 || st.Mutation.Deletes != 3 || st.Mutation.LiveN != 200 || st.Mutation.NextID != 203 {
		t.Errorf("mutation stats %+v", st.Mutation)
	}
	// Error codes: unknown ID is 404, malformed bodies 400.
	if err := c.Delete(context.Background(), 999); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown id delete: %v", err)
	}
	post := func(path, body string) int {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, tc := range mutateRequestCases {
		if got := post(tc.path, tc.body); got != tc.want {
			t.Errorf("POST %s %.80s → %d, want %d", tc.path, tc.body, got, tc.want)
		}
	}
	if st, err := c.Stats(context.Background()); err != nil || st.Server.Inserts != 4 || st.Server.Deletes != 3 {
		t.Errorf("a request over the batch limit mutated the store: %+v, %v", st.Server, err)
	}
}

// TestServerReadOnlyRejectsWrites: a server over a plain engine answers the
// write endpoints with 409 and a JSON error.
func TestServerReadOnlyRejectsWrites(t *testing.T) {
	_, ts, _, _ := testServer(t, 32, 100, 3, dpserver.Config{})
	c := client.New(ts.URL)
	if _, err := c.Insert(context.Background(), distperm.Vector{1, 2, 3}); err == nil ||
		!strings.Contains(err.Error(), "read-only") {
		t.Errorf("insert on read-only server: %v", err)
	}
	if err := c.Delete(context.Background(), 1); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("delete on read-only server: %v", err)
	}
}

// TestIndexInfoFollowsTheStore: /v1/index is read off the engine at each
// request, so after inserts and a rebuild it reports the live point count and
// the rebuilt base's bits — and at boot exactly what Server.Info says.
func TestIndexInfoFollowsTheStore(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	db, err := distperm.NewDB(distperm.L2, dataset.UniformVectors(rng, 200, 3))
	if err != nil {
		t.Fatal(err)
	}
	me, err := distperm.NewMutableEngine(db, distperm.MutableConfig{
		Spec: distperm.Spec{Index: "distperm", K: 6, Seed: 41}, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dpserver.New(me, dpserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()
	c := client.New(ts.URL)
	boot, err := c.IndexInfo(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if boot != srv.Info() || boot.N != 200 || !boot.Mutable || boot.Kind != "mutable" || boot.Base != "distperm" {
		t.Errorf("/v1/index at boot %+v, Info %+v", boot, srv.Info())
	}
	if _, err := c.InsertBatch(context.Background(), dataset.UniformVectors(rng, 10, 3)); err != nil {
		t.Fatal(err)
	}
	if err := me.Rebuild(); err != nil {
		t.Fatal(err)
	}
	got, err := c.IndexInfo(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 210 || got.Bits != me.IndexBits() || got.Bits == boot.Bits {
		t.Errorf("/v1/index after 10 inserts and a rebuild %+v, want n 210 and the rebuilt base's %d bits (boot: %d)", got, me.IndexBits(), boot.Bits)
	}
}

// TestServerReadOnlySavedStore: a saved mutable store served read-only
// reports its live point count and its base's shards in IndexInfo, and a k
// past the live count is a 400, as on the live server.
func TestServerReadOnlySavedStore(t *testing.T) {
	db, err := distperm.NewDB(distperm.L2, dataset.UniformVectors(rand.New(rand.NewSource(33)), 40, 3))
	if err != nil {
		t.Fatal(err)
	}
	me, err := distperm.NewMutableEngine(db, distperm.MutableConfig{
		Spec: distperm.Spec{Index: "distperm", K: 4, Seed: 33}, Workers: 2, Shards: 2, Partitioner: distperm.RoundRobin{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer me.Close()
	for _, gid := range []int{2, 5, 11, 20, 31} {
		if err := me.Delete(gid); err != nil {
			t.Fatal(err)
		}
	}
	snap := me.Snapshot()
	srv := newServer(t, snap.DB(), snap, 2, dpserver.Config{})
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()
	if info := srv.Info(); info.Mutable || info.Kind != "mutable" || info.N != 35 || info.Shards != 2 {
		t.Errorf("read-only saved store IndexInfo %+v, want N 35 over 2 shards", info)
	}
	c := client.New(ts.URL)
	if rs, err := c.KNN(context.Background(), db.Points[0], 35); err != nil || len(rs) != 35 {
		t.Errorf("k = live count: %d results, %v", len(rs), err)
	}
	if _, err := c.KNN(context.Background(), db.Points[0], 36); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("k past the live count: %v, want a 400", err)
	}
}

// TestServerCacheNotStaleAfterMutation is the invalidation acceptance test:
// a cached kNN answer must not be served stale after an insert or delete
// that changes it.
func TestServerCacheNotStaleAfterMutation(t *testing.T) {
	_, ts, _ := mutableServer(t, 33, 150,
		distperm.MutableConfig{Spec: distperm.Spec{Index: "distperm", K: 6, Seed: 33}},
		dpserver.Config{CacheSize: 32})
	c := client.New(ts.URL)
	q := distperm.Vector{5, 5, 5} // far from the uniform [0,1]³ cloud

	// Prime the cache and prove it is serving hits.
	first, err := c.KNN(context.Background(), q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.KNN(context.Background(), q, 2); err != nil {
		t.Fatal(err)
	}
	st0, _ := c.Stats(context.Background())
	if st0.Server.CacheHits == 0 {
		t.Fatalf("cache not engaged: %+v", st0.Server)
	}
	// An insert that becomes the new nearest neighbour must show up
	// immediately, not the cached answer.
	id, err := c.Insert(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.KNN(context.Background(), q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != id || got[0].Distance != 0 {
		t.Fatalf("stale cached answer after insert: %v (pre-insert %v)", got, first)
	}
	// And a delete of that point must stop it from being served — again
	// through the cached-key path.
	if _, err := c.KNN(context.Background(), q, 2); err != nil { // re-prime
		t.Fatal(err)
	}
	if err := c.Delete(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	got, err = c.KNN(context.Background(), q, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.ID == id {
			t.Fatalf("stale cached answer after delete: %v", got)
		}
	}
}

// TestServerMutableSharded: writes route through the Partitioner seam into
// a sharded mutable store, a concurrent write mix drives it, and answers
// keep matching a from-scratch linear scan after a background fold.
func TestServerMutableSharded(t *testing.T) {
	srv, ts, queries := mutableServer(t, 34, 300,
		distperm.MutableConfig{
			Spec:             distperm.Spec{Index: "distperm", K: 6, Seed: 34},
			Shards:           2,
			Partitioner:      distperm.RoundRobin{},
			RebuildThreshold: 32,
		},
		dpserver.Config{CacheSize: 32})
	if info := srv.Info(); info.Shards != 2 || !info.Mutable || info.Base != "sharded" {
		t.Fatalf("sharded mutable IndexInfo %+v", info)
	}
	// Four clients send a 40 % insert/delete mix beside kNN reads, each
	// deleting only its own inserts, so every delete names a live point.
	c := client.New(ts.URL)
	var inserts, deletes atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(w) + 1))
			var mine []int
			for i := w; i < w+60; i++ {
				q := queries[i%len(queries)]
				var err error
				switch {
				case wrng.Float64() >= 0.4:
					_, err = c.KNN(context.Background(), q, 2)
				case len(mine) > 0 && wrng.Intn(2) == 0:
					if err = c.Delete(context.Background(), mine[0]); err == nil {
						mine = mine[1:]
						deletes.Add(1)
					}
				default:
					var id int
					if id, err = c.Insert(context.Background(), q); err == nil {
						mine = append(mine, id)
						inserts.Add(1)
					}
				}
				if err != nil {
					t.Errorf("client %d, request %d: %v", w, i-w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if inserts.Load() == 0 {
		t.Fatal("the write mix never inserted")
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Mutation == nil || st.Mutation.Inserts < inserts.Load() || st.Mutation.Deletes < deletes.Load() {
		t.Fatalf("server mutation stats %+v vs %d inserts, %d deletes acked", st.Mutation, inserts.Load(), deletes.Load())
	}
	// The mix deletes its own inserts (delta entries cancel), so the
	// threshold may never trip during the run; a pure insert burst past the
	// threshold must trigger the background fold.
	burst := make([]distperm.Point, 40)
	for i := range burst {
		burst[i] = queries[i%len(queries)]
	}
	if _, err := c.InsertBatch(context.Background(), burst); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err = c.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Mutation.Rebuilds > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background fold never happened: %+v", st.Mutation)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Mutation.RebuildFailures != 0 || st.Mutation.LastRebuildError != "" {
		t.Errorf("fold failed: %+v", st.Mutation)
	}
}

// TestPointCodec round-trips the wire encoding of both point types and
// rejects garbage.
func TestPointCodec(t *testing.T) {
	for _, p := range []distperm.Point{
		distperm.Vector{0.25, -1.5, 3},
		distperm.String("hello"),
	} {
		raw, err := dpserver.EncodePoint(p)
		if err != nil {
			t.Fatal(err)
		}
		back, err := dpserver.DecodePoint(raw)
		if err != nil {
			t.Fatal(err)
		}
		switch v := p.(type) {
		case distperm.Vector:
			w := back.(distperm.Vector)
			if len(w) != len(v) {
				t.Fatalf("round-trip %v → %v", p, back)
			}
			for i := range v {
				if w[i] != v[i] {
					t.Fatalf("round-trip %v → %v", p, back)
				}
			}
		case distperm.String:
			if back.(distperm.String) != v {
				t.Fatalf("round-trip %v → %v", p, back)
			}
		}
	}
	if _, err := dpserver.EncodePoint(struct{}{}); err == nil {
		t.Error("opaque point should not encode")
	}
	for _, bad := range []string{"", "   ", "7", "{}", "[1, \"x\"]", `"unterminated`} {
		if _, err := dpserver.DecodePoint(json.RawMessage(bad)); err == nil {
			t.Errorf("DecodePoint(%q) should error", bad)
		}
	}
}

// FuzzKNNRequest: arbitrary bytes as a /v1/knn body never panic the handler,
// are answered 200, 400 or 413 and nothing else, and a 200 decodes as a
// QueryResponse. The request goes through Server.ServeHTTP on a recorder —
// decode, validation, cache, admission gate, engine, encode — with no socket.
func FuzzKNNRequest(f *testing.F) {
	for _, tc := range requestErrorCases {
		if tc.path == "/v1/knn" && len(tc.body) < 1<<10 {
			f.Add([]byte(tc.body))
		}
	}
	srv, _, _, _ := testServer(f, 26, 300, 3, dpserver.Config{CacheSize: 4})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/knn", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var resp dpserver.QueryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with a body that is no QueryResponse (%v): %q", err, rec.Body.String())
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.String())
		}
	})
}

// FuzzMutateRequest is FuzzKNNRequest for the write endpoints: arbitrary
// bytes posted to /v1/insert and to /v1/delete of a mutable server never
// panic the handler, are answered 200, 400, 404 or 413 and nothing else,
// and a 200 decodes as a MutateResponse. Background rebuilds fold what the
// accepted inserts and deletes leave pending.
func FuzzMutateRequest(f *testing.F) {
	for _, tc := range mutateRequestCases {
		if len(tc.body) < 1<<10 {
			f.Add([]byte(tc.body))
		}
	}
	srv, _, _ := mutableServer(f, 31, 200,
		distperm.MutableConfig{Spec: distperm.Spec{Index: "distperm", K: 6, Seed: 31}, RebuildThreshold: 64},
		dpserver.Config{CacheSize: 4})
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/insert", "/v1/delete"} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusOK:
				var resp dpserver.MutateResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("POST %s: 200 with a body that is no MutateResponse (%v): %q", path, err, rec.Body.String())
				}
			case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
			default:
				t.Fatalf("POST %s: status %d for body %q: %s", path, rec.Code, body, rec.Body.String())
			}
		}
	})
}
