package obs_test

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"distperm/pkg/obs"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("t_ops_total", "ops", nil)
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("t_temp", "temp", nil)
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
	// nil metrics are valid no-op sinks
	var nc *obs.Counter
	var ng *obs.Gauge
	var nh *obs.Histogram
	nc.Inc()
	ng.Add(1)
	nh.Observe(1)
	if nc.Value() != 0 || ng.Value() != 0 || nh.Snapshot().Count != 0 {
		t.Fatal("nil metrics must read zero")
	}
	// nil registry constructors return nil metrics
	var nr *obs.Registry
	if nr.Counter("x_total", "", nil) != nil || nr.Gauge("x", "", nil) != nil ||
		nr.Histogram("x_seconds", "", obs.DefLatencyBuckets, nil) != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	if err := nr.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil registry write: %v", err)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("dup_total", "d", obs.Labels{"a": "1"})
	r.Counter("dup_total", "d", obs.Labels{"a": "2"}) // distinct labels: fine
	mustPanic(t, func() { r.Counter("dup_total", "d", obs.Labels{"a": "1"}) })
	mustPanic(t, func() { r.Gauge("dup_total", "d", nil) })       // type clash
	mustPanic(t, func() { r.Counter("dup_total", "other", nil) }) // help clash
	mustPanic(t, func() { obs.NewHistogram(nil) })                // no edges
	mustPanic(t, func() { obs.NewHistogram([]float64{2, 1}) })    // unsorted
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

// TestQuantileMatchesPercentile pins the histogram quantile to nearest-rank
// semantics (index ⌈q·n⌉−1 of the sorted sample): observing samples that
// sit exactly on bucket edges, both must return identical values for
// every quantile the serving stack reports.
func TestQuantileMatchesPercentile(t *testing.T) {
	edges := obs.ExponentialBuckets(1e-6, 2, 25)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(400)
		h := obs.NewHistogram(edges)
		samples := make([]time.Duration, n)
		for i := range samples {
			v := edges[rng.Intn(len(edges))]
			samples[i] = time.Duration(math.Round(v * 1e9))
			h.Observe(v)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		snap := h.Snapshot()
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0} {
			want := samples[max(int(math.Ceil(q*float64(n)))-1, 0)]
			got := time.Duration(math.Round(snap.Quantile(q) * 1e9))
			if got != want {
				t.Fatalf("trial %d n=%d q=%g: histogram %v, Percentile %v", trial, n, q, got, want)
			}
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	edges := []float64{1, 2, 4, 8}
	a := obs.NewHistogram(edges)
	b := obs.NewHistogram(edges)
	for _, v := range []float64{0.5, 1, 3, 100} {
		a.Observe(v)
	}
	for _, v := range []float64{2, 7, 9} {
		b.Observe(v)
	}
	var m obs.HistogramSnapshot
	m.Merge(a.Snapshot()) // zero value adopts shape
	m.Merge(b.Snapshot())
	if m.Count != 7 {
		t.Fatalf("merged count = %d, want 7", m.Count)
	}
	if want := 0.5 + 1 + 3 + 100 + 2 + 7 + 9; m.Sum != want {
		t.Fatalf("merged sum = %g, want %g", m.Sum, want)
	}
	var cum uint64
	for _, c := range m.Buckets {
		cum += c
	}
	if cum != m.Count {
		t.Fatalf("bucket sum %d != count %d", cum, m.Count)
	}
	// merged quantile sees both sides: the max finite edge holds the tail
	if got := m.Quantile(1.0); got != 8 {
		t.Fatalf("q1.0 = %g, want 8 (last finite edge)", got)
	}
	mustPanic(t, func() {
		o := obs.NewHistogram([]float64{1, 2}).Snapshot()
		m.Merge(o)
	})
	// merging an empty snapshot is a no-op
	before := m.Count
	m.Merge(obs.HistogramSnapshot{})
	if m.Count != before {
		t.Fatal("empty merge changed count")
	}
}

func TestExpositionRoundTrip(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("rt_requests_total", "requests served", obs.Labels{"endpoint": "knn"})
	c.Add(42)
	r.Counter("rt_requests_total", "requests served", obs.Labels{"endpoint": "range"}).Add(7)
	g := r.Gauge("rt_inflight", "in-flight requests", nil)
	g.Set(3)
	h := r.Histogram("rt_latency_seconds", "request latency", []float64{0.001, 0.01, 0.1}, obs.Labels{"endpoint": "knn"})
	for _, v := range []float64{0.0005, 0.002, 0.05, 5} {
		h.Observe(v)
	}
	r.GaugeFunc("rt_mapped_bytes", "bytes mapped", nil, func() float64 { return 4096 })
	r.CounterFunc("rt_evals_total", "distance evals", nil, func() float64 { return 123 })
	r.HistogramFunc("rt_open_seconds", "open latency", nil, func() obs.HistogramSnapshot {
		hh := obs.NewHistogram([]float64{1, 2})
		hh.Observe(1.5)
		return hh.Snapshot()
	})

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	fams, err := obs.ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("round-trip parse failed: %v\n%s", err, text)
	}
	byName := map[string]obs.Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if f := byName["rt_requests_total"]; f.Type != "counter" || len(f.Samples) != 2 {
		t.Fatalf("rt_requests_total = %+v", f)
	}
	var knn float64
	for _, s := range byName["rt_requests_total"].Samples {
		if s.Labels["endpoint"] == "knn" {
			knn = s.Value
		}
	}
	if knn != 42 {
		t.Fatalf("knn counter = %g, want 42", knn)
	}
	lat := byName["rt_latency_seconds"]
	if lat.Type != "histogram" {
		t.Fatalf("latency type = %q", lat.Type)
	}
	var count, sum float64
	for _, s := range lat.Samples {
		switch s.Name {
		case "rt_latency_seconds_count":
			count = s.Value
		case "rt_latency_seconds_sum":
			sum = s.Value
		}
	}
	if count != 4 || math.Abs(sum-5.0525) > 1e-9 {
		t.Fatalf("count=%g sum=%g", count, sum)
	}
	if byName["rt_mapped_bytes"].Samples[0].Value != 4096 {
		t.Fatal("GaugeFunc value lost in round trip")
	}
	// families arrive name-sorted
	for i := 1; i < len(fams); i++ {
		if fams[i].Name < fams[i-1].Name {
			t.Fatalf("families not sorted: %s before %s", fams[i-1].Name, fams[i].Name)
		}
	}
}

func TestParserStrictness(t *testing.T) {
	bad := []string{
		"no_type_decl 1\n",
		"# TYPE h histogram\nh 1\n",                 // histogram sample without suffix
		"# TYPE x counter\nx 1\n# TYPE x counter\n", // duplicate TYPE
		"# TYPE h histogram\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"1\"} 4\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n", // edges not ascending
		"# TYPE h histogram\nh_bucket{le=\"1\"} 4\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n",                       // decreasing cumulative
		"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_count 3\n",                       // +Inf != count
		"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_count 1\n",                                                // missing +Inf
	}
	for _, text := range bad {
		if _, err := obs.ParsePrometheus(strings.NewReader(text)); err == nil {
			t.Fatalf("parser accepted invalid exposition:\n%s", text)
		}
	}
	// label escapes survive
	fams, err := obs.ParsePrometheus(strings.NewReader(
		"# TYPE esc_total counter\nesc_total{msg=\"a\\\"b\\\\c\\nd\"} 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := fams[0].Samples[0].Labels["msg"]; got != "a\"b\\c\nd" {
		t.Fatalf("escaped label = %q", got)
	}
}

func TestLint(t *testing.T) {
	good := []obs.Family{
		{Name: "dpserver_requests_total", Type: "counter", Help: "x"},
		{Name: "distperm_engine_query_duration_seconds", Type: "histogram", Help: "x"},
		{Name: "dpserver_cache_entries", Type: "gauge", Help: "x"},
		{Name: "distperm_engine_bucket_rows_heap_bytes", Type: "gauge", Help: "x"}, // a unit suffix is not a histogram's alone
		{Name: "distperm_engine_bound_cells", Type: "gauge", Help: "x"},
	}
	if probs := obs.Lint(good, []string{"dpserver_", "distperm_"}); len(probs) != 0 {
		t.Fatalf("clean families flagged: %v", probs)
	}
	bad := []obs.Family{
		{Name: "requests_total", Type: "counter", Help: "x"},     // no prefix
		{Name: "dpserver_requests", Type: "counter", Help: "x"},  // counter without _total
		{Name: "dpserver_busy_total", Type: "gauge", Help: "x"},  // gauge with _total
		{Name: "dpserver_latency", Type: "histogram", Help: "x"}, // histogram without unit
		{Name: "dpserver_ok_total", Type: "counter"},             // missing help
	}
	probs := obs.Lint(bad, []string{"dpserver_", "distperm_"})
	if len(probs) != 5 {
		t.Fatalf("want 5 problems, got %d: %v", len(probs), probs)
	}
}

// TestConcurrentObserveExport is the -race storm: writers hammer every
// metric type while readers snapshot and export, proving no torn reads
// and that post-quiesce totals are exact.
func TestConcurrentObserveExport(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("storm_ops_total", "ops", nil)
	g := r.Gauge("storm_level", "level", nil)
	h := r.Histogram("storm_latency_seconds", "lat", obs.DefLatencyBuckets, nil)

	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ { // readers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := h.Snapshot()
				var cum uint64
				for _, b := range snap.Buckets {
					cum += b
				}
				// count is read before buckets: a concurrent snapshot may
				// see more bucket increments than counted, never fewer.
				if cum < snap.Count {
					t.Error("snapshot lost observations: bucket sum < count")
					return
				}
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Errorf("export: %v", err)
					return
				}
				if _, err := obs.ParsePrometheus(&buf); err != nil {
					t.Errorf("export unparsable mid-storm: %v", err)
					return
				}
			}
		}()
	}
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(seed int64) {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(rng.Float64() * 0.01)
			}
		}(int64(w))
	}
	writersWG.Wait()
	close(stop)
	wg.Wait()

	if got := c.Value(); got != writers*perWriter {
		t.Fatalf("counter = %d, want %d", got, writers*perWriter)
	}
	if got := g.Value(); got != writers*perWriter {
		t.Fatalf("gauge = %g, want %d", got, writers*perWriter)
	}
	snap := h.Snapshot()
	if snap.Count != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", snap.Count, writers*perWriter)
	}
	var cum uint64
	for _, b := range snap.Buckets {
		cum += b
	}
	if cum != snap.Count {
		t.Fatalf("bucket sum %d != count %d after quiesce", cum, snap.Count)
	}
}
