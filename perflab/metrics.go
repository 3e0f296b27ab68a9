package main

// metricDef describes one metric the benchmark prints. BENCHMARK.json
// carries name, unit, direction and (end to end) bound; Layer and Moves are
// the "which end-to-end number should this move, on which workload" map the
// README and the per-layer table print. The smoke test holds this file and
// BENCHMARK.json to each other.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median the metric may worsen by in
	// BENCHMARK.json's form of the benchmark: ten single-workload runs a
	// side, each on another seed, back to back on a shared machine.
	Bound float64
	// Lab is the same for -compare on two runs of the whole lab, whose
	// interleaved rounds hold much tighter.
	Lab   float64
	Layer string
	Moves string
	// PerRun marks a per-layer metric measured from the workload's own
	// rounds (a /v1/stats or process delta) rather than on the ladder.
	PerRun bool
}

// endToEnd is what a user of the served index sees. Every one is reported
// for every workload and is never zero.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Lab: 0.15},
	{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.25, Lab: 0.10},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Lab: 0.10},
	{Name: "recall_at_10", Unit: "ratio", Better: "higher", Bound: 0.05, Lab: 0.005},
	{Name: "index_bits_per_point", Unit: "bit", Better: "lower", Bound: 0.02, Lab: 0},
}

// demoted are end-to-end figures the lab prints and -compare judges beside
// the ones above, but which BENCHMARK.json lists under per_layer, where
// they carry no bound. The write latencies exist on mixed-rw-sharded only,
// and an end-to-end metric there must exist, non-zero, on every workload.
// p95_ms could not hold any bound the contract allows (at most 0.25) in the
// single-workload form: over ten seeds its quartiles lay up to 0.42 of the
// median apart on approx-mmap when the shared machine was busy (see
// calibration/spread.md), so it was demoted rather than given a bound that
// would reject unchanged code.
var demoted = []metricDef{
	{Name: "p95_ms", Unit: "ms", Better: "lower", Lab: 0.15, Layer: "end to end", Moves: "every workload: 95th-percentile read-request latency", PerRun: true},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Lab: 0.15, Layer: "end to end", Moves: "mixed-rw-sharded only: median insert/delete request latency", PerRun: true},
	{Name: "write_p95_ms", Unit: "ms", Better: "lower", Lab: 0.15, Layer: "end to end", Moves: "mixed-rw-sharded only: 95th-percentile write latency", PerRun: true},
}

// labTable is the order the lab prints and compares end-to-end figures in.
func labTable() []metricDef {
	t := append([]metricDef(nil), endToEnd[:3]...)
	t = append(t, demoted...)
	return append(t, endToEnd[3:]...)
}

const (
	lMetric  = "internal/metric, internal/core"
	lQuery   = "internal/sisap (query)"
	lStorage = "internal/sisap (storage)"
	lEngine  = "pkg/distperm engines"
	lWrite   = "pkg/distperm write path"
	lServer  = "pkg/dpserver"
	lClient  = "pkg/dpserver/client + loopback"
	lObs     = "pkg/obs"
	lProc    = "process"
)

// perLayer is the layer ladder's output, outside in. The list is the
// BENCHMARK.json per_layer list minus demoted.
var perLayer = []metricDef{
	{Name: "metric.eval_ns", Unit: "ns", Better: "lower", Layer: lMetric, Moves: "p50_ms, qps on exact-cold and batch64-uniform (n evals per query); nothing on cache-hot"},
	{Name: "core.permute_us", Unit: "us", Better: "lower", Layer: lMetric, Moves: "p50_ms on approx-mmap (k evals + sort per query); < 1% elsewhere"},

	{Name: "sisap.linear_knn_us", Unit: "us", Better: "lower", Layer: lQuery, Moves: "nothing served: the honest exact baseline knn_exact_us is held against"},
	{Name: "sisap.scanorder_us", Unit: "us", Better: "lower", Layer: lQuery, Moves: "p50_ms, qps on exact-cold and mixed-rw-sharded (the ordering work inside an exact scan)"},
	{Name: "sisap.knn_exact_us", Unit: "us", Better: "lower", Layer: lQuery, Moves: "p50_ms, qps on exact-cold and mixed-rw-sharded; nothing on cache-hot"},
	{Name: "sisap.knn_exact_over_linear", Unit: "ratio", Better: "lower", Layer: lQuery, Moves: "same as knn_exact_us; 1.0 is parity with LinearScan"},
	{Name: "sisap.knn_budget_us", Unit: "us", Better: "lower", Layer: lQuery, Moves: "nothing yet: budget 2000 is unreachable from the server today"},
	{Name: "sisap.knn_approx_us", Unit: "us", Better: "lower", Layer: lQuery, Moves: "p50_ms, qps on approx-mmap only"},
	{Name: "sisap.knn_batch64_us_per_query", Unit: "us", Better: "lower", Layer: lQuery, Moves: "qps on batch64-uniform only"},
	{Name: "sisap.batch_speedup", Unit: "ratio", Better: "higher", Layer: lQuery, Moves: "qps on batch64-uniform (single-query time over batch-64 time per query)"},
	{Name: "sisap.evals_per_query", Unit: "count", Better: "lower", Layer: lQuery, Moves: "p50_ms on exact-cold (metric evaluations of one exact query)"},
	{Name: "sisap.approx_evals_per_query", Unit: "count", Better: "lower", Layer: lQuery, Moves: "p50_ms on approx-mmap"},
	{Name: "sisap.distinct_rows", Unit: "count", Better: "lower", Layer: lQuery, Moves: "index_bits_per_point; kernel share of every S1 workload"},
	{Name: "sisap.rows_per_point", Unit: "ratio", Better: "lower", Layer: lQuery, Moves: "the paper's statistic: distinct permutations over n (S1)"},
	{Name: "sisap.approx_buckets", Unit: "count", Better: "higher", Layer: lQuery, Moves: "recall_at_10 and p50_ms on approx-mmap (directory size nprobe is measured against)"},
	{Name: "sisap.probed_buckets_per_query", Unit: "count", Better: "lower", Layer: lQuery, Moves: "p50_ms on approx-mmap (probe widening past nprobe)"},
	{Name: "sisap.candidate_fraction", Unit: "ratio", Better: "lower", Layer: lQuery, Moves: "p50_ms against recall_at_10 on approx-mmap"},

	{Name: "sisap.build_ms", Unit: "ms", Better: "lower", Layer: lStorage, Moves: "setup_s on exact-cold, cache-hot (S1 heap build)"},
	{Name: "sisap.frozen_write_ms", Unit: "ms", Better: "lower", Layer: lStorage, Moves: "nothing timed end to end (freezing happens before set-up)"},
	{Name: "sisap.frozen_open_mmap_ms", Unit: "ms", Better: "lower", Layer: lStorage, Moves: "setup_s on approx-mmap"},
	{Name: "sisap.frozen_open_heap_ms", Unit: "ms", Better: "lower", Layer: lStorage, Moves: "nothing served: the decode the mmap open replaces"},
	{Name: "sisap.frozen_bytes_per_point", Unit: "B", Better: "lower", Layer: lStorage, Moves: "setup_s on approx-mmap (bytes checksummed at open)"},

	{Name: "engine.knn1_us", Unit: "us", Better: "lower", Layer: lEngine, Moves: "p50_ms on exact-cold"},
	{Name: "engine.knn1_self_us", Unit: "us", Better: "lower", Layer: lEngine, Moves: "p50_ms on exact-cold (job submission and wake-up)"},
	{Name: "engine.approx1_us", Unit: "us", Better: "lower", Layer: lEngine, Moves: "p50_ms on approx-mmap"},
	{Name: "engine.approx1_self_us", Unit: "us", Better: "lower", Layer: lEngine, Moves: "p50_ms on approx-mmap"},
	{Name: "engine.batch64_us_per_query", Unit: "us", Better: "lower", Layer: lEngine, Moves: "qps on batch64-uniform"},
	{Name: "engine.batch64_self_us_per_query", Unit: "us", Better: "lower", Layer: lEngine, Moves: "qps on batch64-uniform (sub-batch scheduling past the slowest worker)"},
	{Name: "engine.batched_share", Unit: "ratio", Better: "higher", Layer: lEngine, Moves: "qps on batch64-uniform (share of queries on the batch-native path)", PerRun: true},
	{Name: "engine.mean_evals", Unit: "count", Better: "lower", Layer: lEngine, Moves: "p50_ms on every workload but cache-hot", PerRun: true},
	{Name: "shard.knn1_us", Unit: "us", Better: "lower", Layer: lEngine, Moves: "p50_ms on mixed-rw-sharded"},
	{Name: "shard.sum_shard_knn_us", Unit: "us", Better: "lower", Layer: lEngine, Moves: "qps on mixed-rw-sharded (CPU of one scattered query)"},
	{Name: "shard.merge_us", Unit: "us", Better: "lower", Layer: lEngine, Moves: "p50_ms on mixed-rw-sharded"},

	{Name: "mutable.knn1_delta0_us", Unit: "us", Better: "lower", Layer: lWrite, Moves: "p50_ms on mixed-rw-sharded just after a rebuild"},
	{Name: "mutable.knn1_delta127_us", Unit: "us", Better: "lower", Layer: lWrite, Moves: "p50_ms, p95_ms on mixed-rw-sharded just before a rebuild"},
	{Name: "mutable.insert_us", Unit: "us", Better: "lower", Layer: lWrite, Moves: "write_p50_ms"},
	{Name: "mutable.delete_us", Unit: "us", Better: "lower", Layer: lWrite, Moves: "write_p50_ms"},
	{Name: "mutable.rebuild_ms", Unit: "ms", Better: "lower", Layer: lWrite, Moves: "p95_ms on mixed-rw-sharded (rebuilds steal cores from reads)"},
	{Name: "mutable.rebuilds", Unit: "count", Better: "lower", Layer: lWrite, Moves: "p95_ms on mixed-rw-sharded (times rebuild_ms); 0 elsewhere", PerRun: true},
	{Name: "wal.append_interval_us", Unit: "us", Better: "lower", Layer: lWrite, Moves: "write_p50_ms"},
	{Name: "wal.append_always_us", Unit: "us", Better: "lower", Layer: lWrite, Moves: "nothing served (sandbox fsync, not a device)"},
	{Name: "wal.bytes_per_record", Unit: "B", Better: "lower", Layer: lWrite, Moves: "write_p50_ms"},
	{Name: "wal.fsyncs", Unit: "count", Better: "lower", Layer: lWrite, Moves: "write_p95_ms on mixed-rw-sharded; 0 elsewhere", PerRun: true},
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: "lower", Layer: lWrite, Moves: "nothing served (perflab's server takes no checkpoints)"},
	{Name: "wal.replay_us_per_record", Unit: "us", Better: "lower", Layer: lWrite, Moves: "nothing served (recovery time)"},

	{Name: "wire.encode_point_ns", Unit: "ns", Better: "lower", Layer: lServer, Moves: "p50_ms on cache-hot, approx-mmap"},
	{Name: "wire.decode_point_ns", Unit: "ns", Better: "lower", Layer: lServer, Moves: "p50_ms on cache-hot, approx-mmap; qps on batch64-uniform (64 per request)"},
	{Name: "wire.req_bytes", Unit: "B", Better: "lower", Layer: lServer, Moves: "p50_ms on cache-hot"},
	{Name: "wire.resp_bytes", Unit: "B", Better: "lower", Layer: lServer, Moves: "p50_ms on cache-hot"},
	{Name: "cache.get_hit_ns", Unit: "ns", Better: "lower", Layer: lServer, Moves: "p50_ms, qps on cache-hot"},
	{Name: "cache.get_miss_ns", Unit: "ns", Better: "lower", Layer: lServer, Moves: "< 1% anywhere"},
	{Name: "cache.put_evict_ns", Unit: "ns", Better: "lower", Layer: lServer, Moves: "< 1% on exact-cold"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher", Layer: lServer, Moves: "p50_ms: ~1 on cache-hot, 0 on exact-cold and mixed-rw-sharded", PerRun: true},
	{Name: "cache.evictions_per_query", Unit: "ratio", Better: "lower", Layer: lServer, Moves: "~1 on exact-cold once the cache is full", PerRun: true},
	{Name: "cache.invalidations_per_write", Unit: "ratio", Better: "lower", Layer: lServer, Moves: "p50_ms on mixed-rw-sharded", PerRun: true},
	{Name: "coalescer.knn1_us", Unit: "us", Better: "lower", Layer: lServer, Moves: "p50_ms on exact-cold"},
	{Name: "coalescer.wait_self_us", Unit: "us", Better: "lower", Layer: lServer, Moves: "p50_ms on exact-cold and mixed-rw-sharded (~BatchWait); nothing on the three bypassing workloads"},
	{Name: "coalescer.mean_fill", Unit: "ratio", Better: "higher", Layer: lServer, Moves: "qps on exact-cold, mixed-rw-sharded (at most 2 with 2 connections)", PerRun: true},
	{Name: "handler.knn_miss_us", Unit: "us", Better: "lower", Layer: lServer, Moves: "p50_ms on exact-cold"},
	{Name: "handler.knn_miss_self_us", Unit: "us", Better: "lower", Layer: lServer, Moves: "p50_ms on exact-cold (< 2%)"},
	{Name: "handler.knn_hit_us", Unit: "us", Better: "lower", Layer: lServer, Moves: "p50_ms, qps on cache-hot (most of the request)"},
	{Name: "handler.approx_us", Unit: "us", Better: "lower", Layer: lServer, Moves: "p50_ms on approx-mmap"},
	{Name: "handler.approx_self_us", Unit: "us", Better: "lower", Layer: lServer, Moves: "p50_ms on approx-mmap (~25% with transport)"},
	{Name: "handler.batch64_us_per_query", Unit: "us", Better: "lower", Layer: lServer, Moves: "qps on batch64-uniform"},
	{Name: "handler.batch64_self_us_per_query", Unit: "us", Better: "lower", Layer: lServer, Moves: "qps on batch64-uniform (JSON for 64 queries and 640 results)"},
	{Name: "handler.insert_us", Unit: "us", Better: "lower", Layer: lServer, Moves: "write_p50_ms"},
	{Name: "handler.insert_self_us", Unit: "us", Better: "lower", Layer: lServer, Moves: "write_p50_ms"},

	{Name: "http.healthz_us", Unit: "us", Better: "lower", Layer: lClient, Moves: "the floor under every request: client, loopback, net/http, middleware"},
	{Name: "http.knn_miss_us", Unit: "us", Better: "lower", Layer: lClient, Moves: "p50_ms on exact-cold (the sequential figure residual_share is taken against)"},
	{Name: "http.knn_hit_us", Unit: "us", Better: "lower", Layer: lClient, Moves: "p50_ms on cache-hot"},
	{Name: "http.approx_us", Unit: "us", Better: "lower", Layer: lClient, Moves: "p50_ms on approx-mmap"},
	{Name: "http.batch64_us_per_query", Unit: "us", Better: "lower", Layer: lClient, Moves: "qps on batch64-uniform"},
	{Name: "http.sharded_knn_us", Unit: "us", Better: "lower", Layer: lClient, Moves: "p50_ms on mixed-rw-sharded"},
	{Name: "http.insert_us", Unit: "us", Better: "lower", Layer: lClient, Moves: "write_p50_ms"},
	{Name: "http.transport_self_us", Unit: "us", Better: "lower", Layer: lClient, Moves: "p50_ms on cache-hot, approx-mmap"},

	{Name: "obs.observe_ns", Unit: "ns", Better: "lower", Layer: lObs, Moves: "p50_ms on cache-hot"},
	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower", Layer: lObs, Moves: "nothing served (cost of one /metrics exposition)"},
	{Name: "obs.scrape_bytes", Unit: "B", Better: "lower", Layer: lObs, Moves: "nothing served"},

	{Name: "proc.cpu_ms_per_query", Unit: "ms", Better: "lower", Layer: lProc, Moves: "qps (includes the in-process client)", PerRun: true},
	{Name: "proc.allocs_per_query", Unit: "count", Better: "lower", Layer: lProc, Moves: "qps, p95_ms through GC (includes the client)", PerRun: true},
	{Name: "proc.alloc_bytes_per_query", Unit: "B", Better: "lower", Layer: lProc, Moves: "qps, p95_ms through GC (includes the client)", PerRun: true},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower", Layer: lProc, Moves: "p95_ms", PerRun: true},
	{Name: "proc.rss_peak_mb", Unit: "MiB", Better: "lower", Layer: lProc, Moves: "informational (process-wide peak)", PerRun: true},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Layer: lProc, Moves: "traced over untraced median of the workload's outermost rung, minus 1", PerRun: true},
	{Name: "trace.residual_share", Unit: "ratio", Better: "lower", Layer: lProc, Moves: "(p50_ms under 2 clients - sequential outermost rung) / p50_ms: the contention the ladder cannot see", PerRun: true},
}

// allPerLayer is the BENCHMARK.json per_layer list.
func allPerLayer() []metricDef {
	return append(append([]metricDef(nil), demoted...), perLayer...)
}
