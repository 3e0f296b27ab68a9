package dpserver

import (
	"net/http"

	"distperm/pkg/distperm"
	"distperm/pkg/obs"
)

// The metric families GET /metrics exports. Server-level families carry
// the dpserver_ prefix; engine, mutation, and mmap families carry
// distperm_ (they describe the engine layer, whichever server fronts it).
// TestMetricNamingConventions lints the exposition against these prefixes
// and the _total/_seconds suffix conventions.

// metricEndpoints are the served paths and the label each one's series
// carry, in exposition order. Any other path folds into "other" (the entry
// without a path), so cardinality stays fixed.
var metricEndpoints = []struct{ path, label string }{
	{"/v1/knn", "knn"}, {"/v1/range", "range"}, {"/v1/insert", "insert"}, {"/v1/delete", "delete"},
	{"/v1/stats", "stats"}, {"/v1/index", "index"}, {"/metrics", "metrics"},
	{"/healthz", "healthz"}, {"/readyz", "readyz"}, {"", "other"},
}

// serverMetrics is the server's registered instrument set. Per-endpoint
// instruments are pre-registered for every known endpoint so the hot path
// is a map lookup, never a registration.
type serverMetrics struct {
	reg         *obs.Registry
	endpoints   map[string]*endpointMetrics // by metricEndpoints path
	inflight    *obs.Gauge
	slowQueries *obs.Counter
	// wireFallbacks counts query bodies the codec declined (wire.go).
	wireFallbacks *obs.Counter
	admissionWait *obs.Histogram
}

// endpointMetrics is one endpoint's request accounting: every request
// counts into requests and latency, one answered with status ≥ 400 into
// errors too.
type endpointMetrics struct {
	requests, errors *obs.Counter
	latency          *obs.Histogram
}

// endpoint returns the instruments of the endpoint serving path.
func (m *serverMetrics) endpoint(path string) *endpointMetrics {
	if em, ok := m.endpoints[path]; ok {
		return em
	}
	return m.endpoints[""]
}

// newServerMetrics registers every server-level family on reg and the
// cache/engine/mutation/mmap families as read-time funcs over their owners.
func newServerMetrics(reg *obs.Registry, e *distperm.Engine, cache *Cache) *serverMetrics {
	m := &serverMetrics{
		reg:       reg,
		endpoints: make(map[string]*endpointMetrics, len(metricEndpoints)),
	}
	for _, ep := range metricEndpoints {
		ls := obs.Labels{"endpoint": ep.label}
		m.endpoints[ep.path] = &endpointMetrics{
			requests: reg.Counter("dpserver_requests_total",
				"HTTP requests accepted, by endpoint", ls),
			errors: reg.Counter("dpserver_errors_total",
				"HTTP requests answered with status >= 400, by endpoint", ls),
			latency: reg.Histogram("dpserver_request_duration_seconds",
				"Wall-clock HTTP request latency, by endpoint", obs.DefLatencyBuckets, ls),
		}
	}
	m.inflight = reg.Gauge("dpserver_inflight_requests",
		"HTTP requests currently being served", nil)
	m.slowQueries = reg.Counter("dpserver_slow_queries_total",
		"Queries that exceeded the slow-query threshold", nil)
	m.wireFallbacks = reg.Counter("dpserver_wire_fallbacks_total",
		"Query bodies decoded by encoding/json because they left the codec's grammar", nil)
	m.admissionWait = reg.Histogram("dpserver_admission_wait_seconds",
		"Time a query request waited for an engine slot at the admission gate", obs.DefLatencyBuckets, nil)
	// The result cache reads out through funcs: a nil *Cache (cache
	// disabled) answers zeros through its nil-safe Stats.
	reg.CounterFunc("dpserver_cache_hits_total",
		"Result-cache hits", nil,
		func() float64 { return float64(cache.Stats().Hits) })
	reg.CounterFunc("dpserver_cache_misses_total",
		"Result-cache misses", nil,
		func() float64 { return float64(cache.Stats().Misses) })
	reg.CounterFunc("dpserver_cache_evictions_total",
		"Result-cache entries evicted by capacity pressure", nil,
		func() float64 { return float64(cache.Stats().Evictions) })
	reg.CounterFunc("dpserver_cache_invalidations_total",
		"Result-cache flushes forced by mutations", nil,
		func() float64 { return float64(cache.Stats().Invalidations) })
	reg.GaugeFunc("dpserver_cache_entries",
		"Result-cache entries currently resident", nil,
		func() float64 { return float64(cache.Stats().Entries) })
	registerEngineMetrics(reg, e)
	return m
}

// registerEngineMetrics exports the engine layer as read-time funcs: a
// scrape reads live counters, no per-query bookkeeping is added here. The
// mutation families are a writable engine's, the WAL families a logged
// one's.
func registerEngineMetrics(reg *obs.Registry, e *distperm.Engine) {
	reg.CounterFunc("distperm_engine_queries_total",
		"Queries the engine has answered", nil,
		func() float64 { return float64(e.Stats().Queries) })
	reg.CounterFunc("distperm_engine_batched_queries_total",
		"Queries served in exact sub-batch jobs", nil,
		func() float64 { return float64(e.Stats().BatchedQueries) })
	reg.CounterFunc("distperm_engine_distance_evals_total",
		"Distance evaluations spent (the paper's cost model)", nil,
		func() float64 { return float64(e.Stats().DistanceEvals) })
	reg.CounterFunc("distperm_engine_pruned_evals_total",
		"Points exact queries did not measure because a bucket bound excluded them", nil,
		func() float64 { return float64(e.Stats().PrunedEvals) })
	reg.CounterFunc("distperm_approx_queries_total",
		"Queries served through the approximate prefix-bucket path", nil,
		func() float64 { return float64(e.Stats().ApproxQueries) })
	reg.CounterFunc("distperm_approx_probed_buckets_total",
		"Prefix buckets probed by approximate queries", nil,
		func() float64 { return float64(e.Stats().ProbedBuckets) })
	reg.CounterFunc("distperm_approx_candidates_total",
		"Candidate points measured by approximate queries", nil,
		func() float64 { return float64(e.Stats().ApproxCandidates) })
	reg.GaugeFunc("distperm_engine_distinct_rows",
		"Distinct permutation rows in the served rank table", nil,
		func() float64 { return float64(e.Stats().DistinctRows) })
	reg.GaugeFunc("distperm_engine_bucket_rows_heap_bytes",
		"Heap held by bucket-major copies of the coordinates and their labels under the served view (0 for a frozen store opened with no database)", nil,
		func() float64 { return float64(e.Stats().BucketRowsHeapBytes) })
	reg.GaugeFunc("distperm_engine_bound_cells",
		"Cells the exact walk bounds, summed over the served view's segments (0 for a store without bounds)", nil,
		func() float64 { return float64(e.Stats().BoundCells) })
	reg.GaugeFunc("distperm_engine_workers",
		"Goroutines one engine search fans out over at most (GOMAXPROCS)", nil,
		func() float64 { return float64(e.Workers()) })
	reg.HistogramFunc("distperm_engine_query_duration_seconds",
		"Per-query engine latency (merged across shards and epochs)", nil,
		e.LatencySnapshot)
	if e.Mutable() {
		reg.CounterFunc("distperm_mutable_inserts_total",
			"Accepted inserts", nil,
			func() float64 { return float64(e.MutationStats().Inserts) })
		reg.CounterFunc("distperm_mutable_deletes_total",
			"Accepted deletes", nil,
			func() float64 { return float64(e.MutationStats().Deletes) })
		reg.CounterFunc("distperm_mutable_rebuilds_total",
			"Completed background rebuilds (epoch swaps)", nil,
			func() float64 { return float64(e.MutationStats().Rebuilds) })
		reg.CounterFunc("distperm_mutable_rebuild_failures_total",
			"Rebuilds that failed", nil,
			func() float64 { return float64(e.MutationStats().RebuildFailures) })
		reg.GaugeFunc("distperm_mutable_delta_size",
			"Inserted points pending the next rebuild", nil,
			func() float64 { return float64(e.MutationStats().DeltaSize) })
		reg.GaugeFunc("distperm_mutable_tombstones",
			"Deleted base points pending the next rebuild", nil,
			func() float64 { return float64(e.MutationStats().Tombstones) })
		reg.GaugeFunc("distperm_mutable_pending_writes",
			"Rebuild backlog: delta size plus tombstones", nil,
			func() float64 { return float64(e.MutationStats().PendingWrites) })
		reg.GaugeFunc("distperm_mutable_live_points",
			"Logical live point count", nil,
			func() float64 { return float64(e.MutationStats().LiveN) })
		reg.GaugeFunc("distperm_mutable_last_rebuild_seconds",
			"Duration of the most recent successful rebuild", nil,
			func() float64 { return e.MutationStats().LastRebuild.Seconds() })
	}
	if e.Mutable() && e.WALStats().Enabled {
		reg.CounterFunc("distperm_wal_appended_records_total",
			"WAL records appended (logged before the write was acknowledged)", nil,
			func() float64 { return float64(e.WALStats().AppendedRecords) })
		reg.CounterFunc("distperm_wal_appended_bytes_total",
			"WAL bytes appended", nil,
			func() float64 { return float64(e.WALStats().AppendedBytes) })
		reg.CounterFunc("distperm_wal_syncs_total",
			"WAL fsync calls issued by the active sync policy", nil,
			func() float64 { return float64(e.WALStats().Syncs) })
		reg.CounterFunc("distperm_wal_replayed_records_total",
			"WAL records replayed into the engine during startup recovery", nil,
			func() float64 { return float64(e.WALStats().ReplayedRecords) })
		reg.CounterFunc("distperm_wal_recoveries_total",
			"WAL open/replay recovery passes", nil,
			func() float64 { return float64(e.WALStats().Recoveries) })
		reg.CounterFunc("distperm_wal_truncated_bytes_total",
			"Torn trailing bytes truncated from the log during recovery", nil,
			func() float64 { return float64(e.WALStats().TornBytesTruncated) })
		reg.CounterFunc("distperm_wal_checkpoints_total",
			"Durable checkpoints written", nil,
			func() float64 { return float64(e.WALStats().Checkpoints) })
		reg.GaugeFunc("distperm_wal_seq",
			"Sequence number of the last logged record", nil,
			func() float64 { return float64(e.WALStats().Seq) })
		reg.GaugeFunc("distperm_wal_checkpoint_seq",
			"Sequence number covered by the newest checkpoint", nil,
			func() float64 { return float64(e.WALStats().CheckpointSeq) })
		reg.GaugeFunc("distperm_wal_segments",
			"Log segment files currently retained", nil,
			func() float64 { return float64(e.WALStats().Segments) })
		reg.HistogramFunc("distperm_wal_fsync_duration_seconds",
			"WAL fsync latency", nil,
			func() obs.HistogramSnapshot { return e.WALStats().Fsync })
	}
	reg.CounterFunc("distperm_mmap_opens_total",
		"Frozen-container opens (process-wide)", nil,
		func() float64 { return float64(distperm.ReadMmapStats().Opens) })
	reg.CounterFunc("distperm_mmap_zero_copy_opens_total",
		"Opens served as true zero-copy mappings", nil,
		func() float64 { return float64(distperm.ReadMmapStats().ZeroCopyOpens) })
	reg.CounterFunc("distperm_mmap_checksum_failures_total",
		"Containers rejected for a section-checksum mismatch", nil,
		func() float64 { return float64(distperm.ReadMmapStats().ChecksumFailures) })
	reg.GaugeFunc("distperm_mmap_mapped_bytes",
		"Bytes currently memory-mapped from frozen containers", nil,
		func() float64 { return float64(distperm.ReadMmapStats().MappedBytes) })
	reg.HistogramFunc("distperm_mmap_open_duration_seconds",
		"Frozen-container open latency", nil,
		func() obs.HistogramSnapshot { return distperm.ReadMmapStats().OpenLatency })
}

// statusWriter captures the response status so ServeHTTP can count
// errors per endpoint after the handler returns.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}
