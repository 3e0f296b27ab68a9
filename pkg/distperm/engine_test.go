package distperm

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distperm/internal/dataset"
	"distperm/internal/sisap"
	"distperm/pkg/obs"
)

// TestEngineMatchesLinearScan is the concurrency acceptance test: a
// 1000-query batch answered by the engine's fan-out over the
// distance-permutation index (whose Permuter forces per-goroutine replicas)
// must equal the sequential LinearScan ground truth exactly. Run under
// `go test -race` this also proves the replica scheme keeps goroutines off
// each other's scratch buffers.
func TestEngineMatchesLinearScan(t *testing.T) {
	const (
		queries = 1000
		k       = 5
	)
	db, rng := testDB(t, 10, 1200, 4)
	queryPts := dataset.UniformVectors(rng, queries, 4)
	truth := sisap.NewLinearScan(db)

	for _, kind := range []string{"distperm", "vptree", "laesa"} {
		idx := mustBuild(t, db, Spec{Index: kind, K: 8, Seed: 11})
		e, err := NewEngine(db, idx, 8)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.KNNBatch(queryPts, k)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for i, q := range queryPts {
			want, _ := truth.KNN(q, k)
			if len(got[i]) != len(want) {
				t.Fatalf("%s: query %d: %d results, want %d", kind, i, len(got[i]), len(want))
			}
			for j := range want {
				if got[i][j] != want[j] {
					t.Fatalf("%s: query %d result %d = %+v, want %+v",
						kind, i, j, got[i][j], want[j])
				}
			}
		}
		st := e.Stats()
		if st.Queries != queries {
			t.Errorf("%s: Stats().Queries = %d, want %d", kind, st.Queries, queries)
		}
		if st.DistanceEvals <= 0 || st.MeanEvals <= 0 {
			t.Errorf("%s: no evaluation counts aggregated: %+v", kind, st)
		}
		if st.P50 < 0 || st.P99 < st.P50 {
			t.Errorf("%s: implausible latency percentiles: %+v", kind, st)
		}
		e.Close()
	}
}

// TestEngineConcurrentBatches drives one engine from many client goroutines
// at once — the serving pattern — and checks every batch independently.
func TestEngineConcurrentBatches(t *testing.T) {
	db, rng := testDB(t, 12, 600, 3)
	idx := mustBuild(t, db, Spec{Index: "distperm", K: 6, Seed: 1})
	e, err := NewEngine(db, idx, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	truth := sisap.NewLinearScan(db)

	const clients = 8
	queryPts := dataset.UniformVectors(rng, clients*50, 3)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		qs := queryPts[c*50 : (c+1)*50]
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := e.KNNBatch(qs, 3)
			if err != nil {
				errs <- err
				return
			}
			for i, q := range qs {
				want, _ := truth.KNN(q, 3)
				for j := range want {
					if got[i][j] != want[j] {
						t.Errorf("concurrent batch diverges from ground truth at query %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestEngineRangeBatch(t *testing.T) {
	db, rng := testDB(t, 13, 400, 3)
	idx := mustBuild(t, db, Spec{Index: "vptree", Seed: 2})
	e, err := NewEngine(db, idx, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	queryPts := dataset.UniformVectors(rng, 40, 3)
	const radius = 0.35
	got, _, err := e.Search(queryPts, Query{Radius: radius})
	if err != nil {
		t.Fatal(err)
	}
	truth := sisap.NewLinearScan(db)
	for i, q := range queryPts {
		want, _ := truth.Range(q, radius)
		if len(got[i]) != len(want) {
			t.Fatalf("query %d: %d results, want %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("query %d result %d differs", i, j)
			}
		}
	}
}

// TestNewDBRejectsMismatchedMetric: the public boundary probes the metric
// against the points, so e.g. Edit over Vectors is an error at construction
// — not a panic later in a query worker serving a remote request.
func TestNewDBRejectsMismatchedMetric(t *testing.T) {
	if _, err := NewDB(Edit, []Point{Vector{1, 2}}); err == nil {
		t.Error("edit metric over vector points should error")
	}
	if _, err := NewDB(L2, []Point{String("abc")}); err == nil {
		t.Error("L2 metric over string points should error")
	}
	if _, err := NewDB(L2, []Point{Vector{1, 2}}); err != nil {
		t.Errorf("matching metric rejected: %v", err)
	}
}

func TestEngineErrors(t *testing.T) {
	db, rng := testDB(t, 14, 30, 2)
	idx := mustBuild(t, db, Spec{Index: "linear"})
	if _, err := NewEngine(nil, idx, 1); err == nil {
		t.Error("nil database should error")
	}
	if _, err := NewEngine(db, nil, 1); err == nil {
		t.Error("nil index should error")
	}
	e, err := NewEngine(db, idx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers() = %d, want GOMAXPROCS %d", e.Workers(), runtime.GOMAXPROCS(0))
	}
	qs := dataset.UniformVectors(rng, 2, 2)
	if _, err := e.KNNBatch(qs, 0); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := e.KNNBatch(qs, 31); err == nil {
		t.Error("k>n should error")
	}
	if _, _, err := e.Search(qs, Query{Radius: -1}); err == nil {
		t.Error("negative radius should error")
	}
	e.Close()
	e.Close() // idempotent
	if _, err := e.KNNBatch(qs, 1); err == nil {
		t.Error("batch after Close should error")
	}
}

// TestEngineEmptyBatch: an empty query slice short-circuits — no in-flight
// bookkeeping, no walks, an empty (non-nil) answer — and still works after
// Close, since there is no work to refuse.
func TestEngineEmptyBatch(t *testing.T) {
	db, _ := testDB(t, 17, 30, 2)
	idx := mustBuild(t, db, Spec{Index: "linear"})
	e, err := NewEngine(db, idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, call := range []func() ([][]Result, error){
		func() ([][]Result, error) { return e.KNNBatch(nil, 1) },
		func() ([][]Result, error) { return e.KNNBatch([]Point{}, 1) },
		func() ([][]Result, error) { out, _, err := e.Search(nil, Query{Radius: 0.2}); return out, err },
		func() ([][]Result, error) { out, _, err := e.Search([]Point{}, Query{Radius: 0.2}); return out, err },
	} {
		out, err := call()
		if err != nil {
			t.Fatal(err)
		}
		if out == nil || len(out) != 0 {
			t.Fatalf("empty batch returned %v, want empty non-nil slice", out)
		}
	}
	if st := e.Stats(); st.Queries != 0 {
		t.Errorf("empty batches recorded %d queries, want 0", st.Queries)
	}
	// Parameter validation still runs ahead of the short-circuit.
	if _, err := e.KNNBatch(nil, 0); err == nil {
		t.Error("k=0 should error even on an empty batch")
	}
	if _, _, err := e.Search(nil, Query{Radius: -1}); err == nil {
		t.Error("negative radius should error even on an empty batch")
	}
	e.Close()
	if out, err := e.KNNBatch(nil, 1); err != nil || len(out) != 0 {
		t.Errorf("empty batch after Close = (%v, %v), want empty answer", out, err)
	}
}

// TestEngineCloseSubmitRace hammers concurrent batch searches against
// Close: a search can pass its closed check just as Close begins, and the
// in-flight guard must then make Close wait for it. Every batch either
// completes or reports the engine closed; run under -race this also proves
// the guard is data-race-free.
func TestEngineCloseSubmitRace(t *testing.T) {
	db, rng := testDB(t, 15, 512, 4)
	idx := mustBuild(t, db, Spec{Index: "linear"})
	// 256-query batches keep searches in flight for milliseconds, so Close
	// lands in the middle of them.
	qs := dataset.UniformVectors(rng, 256, 4)
	for iter := 0; iter < 10; iter++ {
		e, err := NewEngine(db, idx, 1)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 4; j++ {
					if _, err := e.KNNBatch(qs, 2); err != nil {
						return // engine closed under us — the accepted outcome
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Let the batches get in flight, then close over them.
			time.Sleep(time.Duration(iter) * 200 * time.Microsecond)
			e.Close()
		}()
		wg.Wait()
		e.Close()
	}
}

// TestEngineLatencyHistogram pushes a large query volume through the
// engine and checks the histogram bookkeeping: every query is counted
// (Count == Queries, bucket sum == Count), quantiles stay ordered, and
// the snapshot merges cleanly with another engine's — the property the
// sharded and mutable aggregations rely on.
func TestEngineLatencyHistogram(t *testing.T) {
	const total = 20000
	db, rng := testDB(t, 16, 16, 2)
	idx := mustBuild(t, db, Spec{Index: "linear"})
	e, err := NewEngine(db, idx, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	qs := dataset.UniformVectors(rng, 1024, 2)
	served := 0
	for served < total {
		batch := qs
		if rest := total - served; rest < len(batch) {
			batch = batch[:rest]
		}
		if _, err := e.KNNBatch(batch, 1); err != nil {
			t.Fatal(err)
		}
		served += len(batch)
	}
	snap := e.LatencySnapshot()
	if snap.Count != total {
		t.Errorf("histogram count = %d, want %d", snap.Count, total)
	}
	var cum uint64
	for _, b := range snap.Buckets {
		cum += b
	}
	if cum != snap.Count {
		t.Errorf("bucket sum %d != count %d", cum, snap.Count)
	}
	if snap.Sum < 0 {
		t.Errorf("negative latency sum %g", snap.Sum)
	}
	st := e.Stats()
	if st.Queries != total {
		t.Errorf("Queries = %d, want %d", st.Queries, total)
	}
	if st.P50 < 0 || st.P99 < st.P50 {
		t.Errorf("implausible percentiles: p50=%v p99=%v", st.P50, st.P99)
	}
	var merged obs.HistogramSnapshot
	merged.Merge(snap)
	merged.Merge(e.LatencySnapshot())
	if merged.Count != 2*total {
		t.Errorf("merged count = %d, want %d", merged.Count, 2*total)
	}
}

// countingIndex is a foreign Index (no walk of this package, no replicas):
// its KNN counts the calls in flight and keeps their peak, sleeps a little
// so that concurrent calls overlap, and counts the calls made on the
// goroutine of the test that called Search.
type countingIndex struct {
	Index
	test                   string
	calls, onCaller        atomic.Int64
	inFlight, peakInFlight atomic.Int64
}

func (c *countingIndex) KNN(q Point, k int) ([]Result, Stats) {
	now := c.inFlight.Add(1)
	defer c.inFlight.Add(-1)
	for p := c.peakInFlight.Load(); now > p; p = c.peakInFlight.Load() {
		if c.peakInFlight.CompareAndSwap(p, now) {
			break
		}
	}
	c.calls.Add(1)
	buf := make([]byte, 4096)
	if strings.Contains(string(buf[:runtime.Stack(buf, false)]), c.test) {
		c.onCaller.Add(1)
	}
	time.Sleep(50 * time.Microsecond)
	return c.Index.KNN(q, k)
}

// TestEngineSearchFanOut: a search runs on its caller, and a batch fans out
// over at most GOMAXPROCS goroutines, the caller's included, whatever the
// workers argument says — all of them gone once Search has returned — with
// every answer its own single-query answer.
func TestEngineSearchFanOut(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	db, rng := testDB(t, 47, 300, 3)
	idx := &countingIndex{Index: mustBuild(t, db, Spec{Index: "linear"}), test: t.Name()}
	e, err := NewEngine(db, idx, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	qs := dataset.UniformVectors(rng, 256, 3)

	idle := runtime.NumGoroutine()
	if _, _, err := e.Search(qs[:1], Query{K: 3}); err != nil {
		t.Fatal(err)
	}
	if calls, on, peak := idx.calls.Load(), idx.onCaller.Load(), idx.peakInFlight.Load(); calls != 1 || on != 1 || peak != 1 {
		t.Fatalf("a one-query Search: %d calls, %d on the caller, peak %d in flight; want 1, 1, 1", calls, on, peak)
	}
	if got := runtime.NumGoroutine(); got > idle {
		t.Fatalf("a one-query Search left %d goroutines, %d before it", got, idle)
	}

	got, _, err := e.Search(qs, Query{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if peak := idx.peakInFlight.Load(); peak != 2 {
		t.Errorf("a %d-query batch peaked at %d KNN calls in flight; want GOMAXPROCS = 2", len(qs), peak)
	}
	if on := idx.onCaller.Load(); on < 2 || on == idx.calls.Load() {
		t.Errorf("%d of %d calls on the caller: the batch did not share its queries with the caller", on, idx.calls.Load())
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > idle && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > idle {
		t.Errorf("%d goroutines after the batch, %d before it", n, idle)
	}
	for i, q := range qs {
		want, _, err := e.Search([]Point{q}, Query{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want[0]) {
			t.Fatalf("query %d: batched %v, alone %v", i, got[i], want[0])
		}
	}
}
