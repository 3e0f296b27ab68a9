package dpserver_test

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"distperm/internal/dataset"
	"distperm/pkg/distperm"
	"distperm/pkg/dpserver"
	"distperm/pkg/dpserver/client"
)

// TestServerApprox drives the approximate kNN path over the wire: full
// coverage must be byte-identical to the exact engine answer (flagged
// exact), a one-bucket probe must carry real probe accounting, and the
// served traffic must show up in /v1/stats and /metrics.
func TestServerApprox(t *testing.T) {
	_, ts, truth, queries := testServer(t, 91, 700, 3,
		dpserver.Config{CacheSize: 16})
	c := client.New(ts.URL)
	qs := queries[:24]
	const k = 4

	want, err := truth.KNNBatch(qs, k)
	if err != nil {
		t.Fatal(err)
	}
	nb := truth.ApproxBuckets()
	if nb <= 1 {
		t.Fatalf("ApproxBuckets() = %d, need a real directory", nb)
	}

	// Full coverage: byte-identical to exact, and says so.
	got, aw, err := c.KNNApprox(context.Background(), qs[0], k, nb)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResults(got, want[0]) {
		t.Errorf("full-coverage approx: %v != exact %v", got, want[0])
	}
	if aw == nil || !aw.Exact || aw.TotalBuckets != nb {
		t.Errorf("full-coverage wire stats %+v, want exact over %d buckets", aw, nb)
	}

	// Batched partial probe: valid accounting, results from the database.
	gotB, awB, err := c.KNNApproxBatch(context.Background(), qs, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotB) != len(qs) {
		t.Fatalf("%d batches for %d queries", len(gotB), len(qs))
	}
	if awB == nil || awB.ProbedBuckets < len(qs) || awB.Candidates <= 0 {
		t.Errorf("partial-probe wire stats %+v, want probes and candidates", awB)
	}
	if awB.CandidateFraction <= 0 || awB.CandidateFraction > 1 {
		t.Errorf("candidate fraction %g out of (0, 1]", awB.CandidateFraction)
	}

	// The engine counters and the distinct-row gauge surface the traffic.
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine.ApproxQueries != int64(1+len(qs)) {
		t.Errorf("ApproxQueries = %d, want %d", st.Engine.ApproxQueries, 1+len(qs))
	}
	if st.Engine.ProbedBuckets == 0 || st.Engine.ApproxCandidates == 0 {
		t.Errorf("approx counters not surfaced: %+v", st.Engine)
	}
	if st.Engine.DistinctRows <= 0 {
		t.Errorf("DistinctRows = %d, want > 0", st.Engine.DistinctRows)
	}
	fams := scrape(t, ts.URL)
	for _, name := range []string{
		"distperm_approx_queries_total",
		"distperm_approx_probed_buckets_total",
		"distperm_approx_candidates_total",
	} {
		if vals := samples(t, fams, name, nil); len(vals) == 0 || vals[0] <= 0 {
			t.Errorf("metric %s missing or zero after approx traffic", name)
		}
	}
}

// TestServerApproxBypassesCache: an approximate answer must never be served
// from (or stored into) the exact result cache — the same query at the same
// k with different nprobe would otherwise alias.
func TestServerApproxBypassesCache(t *testing.T) {
	_, ts, _, queries := testServer(t, 92, 500, 3,
		dpserver.Config{CacheSize: 64})
	c := client.New(ts.URL)
	q := queries[0]
	const k = 3
	if _, err := c.KNN(context.Background(), q, k); err != nil {
		t.Fatal(err)
	}
	before, _ := c.Stats(context.Background())
	for i := 0; i < 4; i++ {
		if _, _, err := c.KNNApprox(context.Background(), q, k, 1); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := c.Stats(context.Background())
	if after.Server.CacheHits != before.Server.CacheHits {
		t.Errorf("approx requests hit the exact cache: %d -> %d hits",
			before.Server.CacheHits, after.Server.CacheHits)
	}
	if got := after.Engine.ApproxQueries - before.Engine.ApproxQueries; got != 4 {
		t.Errorf("ApproxQueries advanced by %d, want 4 (every request served by the engine)", got)
	}
}

// TestServerApproxUnsupported: a backend without the approximate surface
// answers approx requests 400, not 500 — a client knob problem, not a
// server failure.
func TestServerApproxUnsupported(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	db, err := distperm.NewDB(distperm.L2, dataset.UniformVectors(rng, 300, 3))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := distperm.Build(db, distperm.Spec{Index: "vptree", Seed: 93})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, db, idx, 2, dpserver.Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	c := client.New(ts.URL)
	_, _, err = c.KNNApprox(context.Background(), dataset.UniformVectors(rng, 1, 3)[0], 2, 1)
	if err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("approx against a vptree backend: err = %v, want HTTP 400", err)
	}
}
