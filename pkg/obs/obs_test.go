package obs_test

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
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

// TestExpositionRoundTrip pins the writer, the only producer of exposition
// text, to testdata/exposition.txt byte for byte: family and label-key
// order, escapes in help and label values, +Inf/-Inf/NaN, and a histogram's
// cumulative buckets with an overflow observation, its +Inf bucket equal to
// its _count.
func TestExpositionRoundTrip(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("rt_requests_total", "requests served", obs.Labels{"endpoint": "knn"})
	c.Add(42)
	r.Counter("rt_requests_total", "requests served", obs.Labels{"endpoint": "range"}).Add(7)
	g := r.Gauge("rt_inflight", "in-flight requests", nil)
	g.Set(3)
	h := r.Histogram("rt_latency_seconds", "request latency", []float64{0.001, 0.01, 0.1}, obs.Labels{"endpoint": "knn"})
	for _, v := range []float64{0.0005, 0.002, 0.05, 5} { // 5 overflows the last edge
		h.Observe(v)
	}
	r.GaugeFunc("rt_mapped_bytes", "bytes mapped", nil, func() float64 { return 4096 })
	r.CounterFunc("rt_evals_total", "distance evals", nil, func() float64 { return 123 })
	r.HistogramFunc("rt_open_seconds", "open latency", nil, func() obs.HistogramSnapshot {
		hh := obs.NewHistogram([]float64{1, 2})
		hh.Observe(1.5)
		return hh.Snapshot()
	})
	r.Counter("rt_escaped_total", "a \\ and a\nnewline", obs.Labels{"msg": "a\"b\\c\nd"}).Inc()
	r.Gauge("rt_odd", "odd values", obs.Labels{"v": "pinf"}).Set(math.Inf(1))
	r.Gauge("rt_odd", "odd values", obs.Labels{"v": "ninf"}).Set(math.Inf(-1))
	r.Gauge("rt_odd", "odd values", obs.Labels{"v": "nan"}).Set(math.NaN())
	r.Counter("rt_multi_total", "multi-label series", obs.Labels{"zone": "b", "code": "200", "endpoint": "knn"}).Add(2)
	r.Histogram("rt_multi_seconds", "multi-label histogram", []float64{1}, obs.Labels{"shard": "0", "endpoint": "knn"}).Observe(0.5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "exposition.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Fatalf("exposition differs from testdata/exposition.txt:\n got:\n%s\nwant:\n%s", got, want)
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
				// Count is the sum of the buckets the snapshot read, so a
				// concurrent snapshot is consistent however it interleaves.
				if cum != snap.Count {
					t.Errorf("mid-storm bucket sum %d != count %d", cum, snap.Count)
					return
				}
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Errorf("export: %v", err)
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
