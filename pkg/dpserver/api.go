package dpserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"distperm/pkg/distperm"
)

// The JSON wire format, shared by the server handlers and the Go client
// (pkg/dpserver/client). Points travel as their natural JSON shapes — a
// vector point as an array of numbers, a string point as a JSON string — so
// curl requests read exactly like the data.

// KNNRequest is the body of POST /v1/knn: exactly one of Query (single
// form, eligible for the result cache) or Queries (batched form, submitted
// to the engine as one batch), plus K.
//
// Approx switches the request to the approximate path: the engine probes
// the NProbe nearest permutation-prefix buckets per query instead of
// scanning the whole rank table (NProbe ≤ 0 selects the engine default; ≥
// the directory size degrades to the exact scan with byte-identical
// answers). Approximate requests bypass the result cache, and the
// response carries probe accounting in Approx. With
// Approx false the request is served exactly — byte-identical to a server
// without the feature.
type KNNRequest struct {
	Query   json.RawMessage   `json:"query,omitempty"`
	Queries []json.RawMessage `json:"queries,omitempty"`
	K       int               `json:"k"`
	Approx  bool              `json:"approx,omitempty"`
	NProbe  int               `json:"nprobe,omitempty"`
}

// RangeRequest is the body of POST /v1/range: exactly one of Query or
// Queries, plus the radius R ≥ 0.
type RangeRequest struct {
	Query   json.RawMessage   `json:"query,omitempty"`
	Queries []json.RawMessage `json:"queries,omitempty"`
	R       float64           `json:"r"`
}

// Result is one answer on the wire — the engine's own result type, whose
// JSON form is {"id": ..., "distance": ...}: a database point ID and its
// distance to the query.
type Result = distperm.Result

// QueryResponse is the body of a successful /v1/knn or /v1/range answer:
// Results for the single form, Batches (one result list per query, in
// request order) for the batched form. Approx is present only on
// approximate kNN answers.
type QueryResponse struct {
	Results []Result    `json:"results,omitempty"`
	Batches [][]Result  `json:"batches,omitempty"`
	Approx  *ApproxWire `json:"approx,omitempty"`
}

// ApproxWire is the probe accounting of one approximate /v1/knn request,
// aggregated over its queries (a single-form request aggregates one).
type ApproxWire struct {
	// NProbe echoes the effective request knob (0 = engine default).
	NProbe int `json:"nprobe"`
	// ProbedBuckets and TotalBuckets sum the per-query probe sets against
	// the directory size; Candidates sums the measured candidate sets.
	ProbedBuckets int `json:"probed_buckets"`
	TotalBuckets  int `json:"total_buckets"`
	Candidates    int `json:"candidates"`
	// CandidateFraction is Candidates over queries·N — the share of the
	// database actually measured (0 when N is unknown).
	CandidateFraction float64 `json:"candidate_fraction"`
	// Exact reports that every query's probe set covered the whole
	// directory, making the answers byte-identical to an exact request.
	Exact bool `json:"exact"`
}

// InsertRequest is the body of POST /v1/insert: exactly one of Point
// (single form) or Points (batched form), in the same wire shapes queries
// use.
type InsertRequest struct {
	Point  json.RawMessage   `json:"point,omitempty"`
	Points []json.RawMessage `json:"points,omitempty"`
}

// DeleteRequest is the body of POST /v1/delete: exactly one of ID (single
// form, distinguished from deleting ID 0 by HasID) or IDs.
type DeleteRequest struct {
	ID  *int  `json:"id,omitempty"`
	IDs []int `json:"ids,omitempty"`
}

// MutateResponse is the body of a successful /v1/insert or /v1/delete
// answer: the stable global IDs granted (inserts) or removed (deletes), ID
// for the single form, IDs for the batched form.
type MutateResponse struct {
	ID  *int  `json:"id,omitempty"`
	IDs []int `json:"ids,omitempty"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// IndexInfo is the body of GET /v1/index: what is being served, read off
// the engine when the request is answered.
type IndexInfo struct {
	// Kind is the index's registry kind ("distperm", "sharded", ...).
	Kind string `json:"kind"`
	// Bits is the index's storage cost (the paper's cost model).
	Bits int64 `json:"bits"`
	// N is the live point count.
	N int `json:"n"`
	// Metric names the database metric.
	Metric string `json:"metric"`
	// Shards is the served view's shard count (1 for a single engine).
	Shards int `json:"shards"`
	// Workers is how many goroutines one engine search fans out over at
	// most: GOMAXPROCS.
	Workers int `json:"workers"`
	// Mutable reports whether the write endpoints (/v1/insert, /v1/delete)
	// are live; Base then names the rebuilt index kind behind the delta.
	Mutable bool   `json:"mutable"`
	Base    string `json:"base,omitempty"`
}

// EngineStatsWire mirrors distperm.EngineStats on the wire, with latency
// percentiles in both nanoseconds (for machines) and formatted durations
// (for humans reading curl output).
type EngineStatsWire struct {
	Queries int64 `json:"queries"`
	// BatchedQueries counts queries that travelled in the engine's exact
	// sub-batch jobs.
	BatchedQueries int64 `json:"batched_queries"`
	// ApproxQueries counts queries served through the approximate path;
	// ProbedBuckets and ApproxCandidates sum their probe sets and
	// candidate-set sizes.
	ApproxQueries    int64 `json:"approx_queries"`
	ProbedBuckets    int64 `json:"approx_probed_buckets"`
	ApproxCandidates int64 `json:"approx_candidates"`
	// DistinctRows is the index's distinct permutation-row count — the rank
	// table size the prefix-bucket directory is built over (0 when the index
	// does not expose one).
	DistinctRows  int     `json:"distinct_rows"`
	DistanceEvals int64   `json:"distance_evals"`
	PrunedEvals   int64   `json:"pruned_evals"` // points a bucket bound spared exact queries
	MeanEvals     float64 `json:"mean_evals"`
	P50Nanos      int64   `json:"p50_ns"`
	P99Nanos      int64   `json:"p99_ns"`
	P50           string  `json:"p50"`
	P99           string  `json:"p99"`
}

// ServerCounters is the server-level half of GET /v1/stats: HTTP traffic
// and result-cache effectiveness.
type ServerCounters struct {
	// Requests counts HTTP requests accepted on any endpoint.
	Requests int64 `json:"requests"`
	// Errors counts requests answered with a non-2xx status.
	Errors int64 `json:"errors"`
	// SingleQueries and BatchQueries split the served queries by request
	// form: singles flow through the cache, batches go to the engine as
	// submitted.
	SingleQueries int64 `json:"single_queries"`
	BatchQueries  int64 `json:"batch_queries"`
	// CoalescedBatches and CoalescedQueries always read 0: they described
	// a micro-batcher the server no longer has, and stay on the wire for
	// readers that still parse them.
	CoalescedBatches int64 `json:"coalesced_batches"`
	CoalescedQueries int64 `json:"coalesced_queries"`
	// CacheHits, CacheMisses, and CacheEntries report the result cache
	// (all zero when the cache is disabled); CacheEvictions counts entries
	// pushed out by capacity pressure.
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEntries   int   `json:"cache_entries"`
	CacheEvictions int64 `json:"cache_evictions"`
	// Inserts and Deletes count accepted write requests' mutations;
	// CacheInvalidations counts the cache flushes they forced.
	Inserts            int64 `json:"inserts"`
	Deletes            int64 `json:"deletes"`
	CacheInvalidations int64 `json:"cache_invalidations"`
}

// MutationStatsWire mirrors distperm.MutationStats on the wire — the write
// path's half of GET /v1/stats, present only on mutable servers.
type MutationStatsWire struct {
	Inserts          int64  `json:"inserts"`
	Deletes          int64  `json:"deletes"`
	LiveN            int    `json:"live_n"`
	NextID           int    `json:"next_id"`
	DeltaSize        int    `json:"delta_size"`
	Tombstones       int    `json:"tombstones"`
	PendingWrites    int    `json:"pending_writes"`
	RebuildThreshold int    `json:"rebuild_threshold"`
	DeltaPerShard    []int  `json:"delta_per_shard,omitempty"`
	Rebuilds         int64  `json:"rebuilds"`
	RebuildFailures  int64  `json:"rebuild_failures"`
	LastRebuildNanos int64  `json:"last_rebuild_ns"`
	LastRebuildError string `json:"last_rebuild_error,omitempty"`
}

// WALStatsWire mirrors distperm.WALStats on the wire — the durability
// half of GET /v1/stats, present only when the backend logs writes ahead.
type WALStatsWire struct {
	Dir      string `json:"dir"`
	Sync     string `json:"sync"`
	Seq      uint64 `json:"seq"`
	Segments int    `json:"segments"`
	// AppendedRecords/AppendedBytes count what this process wrote;
	// ReplayedRecords counts what recovery read back, and Recoveries how
	// many times the log was opened or replayed over existing state.
	AppendedRecords    int64  `json:"appended_records"`
	AppendedBytes      int64  `json:"appended_bytes"`
	Syncs              int64  `json:"syncs"`
	ReplayedRecords    int64  `json:"replayed_records"`
	Recoveries         int64  `json:"recoveries"`
	TornBytesTruncated int64  `json:"torn_bytes_truncated"`
	Checkpoints        int64  `json:"checkpoints"`
	CheckpointSeq      uint64 `json:"checkpoint_seq"`
	// Fsync latency, in the same dual shape as engine latency.
	FsyncCount   uint64  `json:"fsyncs"`
	FsyncP50Nano int64   `json:"fsync_p50_ns"`
	FsyncP99Nano int64   `json:"fsync_p99_ns"`
	FsyncP50     string  `json:"fsync_p50"`
	FsyncP99     string  `json:"fsync_p99"`
	FsyncMean    float64 `json:"fsync_mean_seconds"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Engine   EngineStatsWire    `json:"engine"`
	Server   ServerCounters     `json:"server"`
	Mutation *MutationStatsWire `json:"mutation,omitempty"`
	WAL      *WALStatsWire      `json:"wal,omitempty"`
}

// EncodePoint marshals a point into its wire shape: a Vector as a JSON
// array of numbers, a String as a JSON string — the bytes json.Marshal
// gives, a vector's appended by the codec (wire.go).
func EncodePoint(p distperm.Point) (json.RawMessage, error) {
	switch v := p.(type) {
	case distperm.Vector:
		if b, ok := appendVector(make([]byte, 0, 24*len(v)+2), v); ok {
			return b, nil
		}
		return json.Marshal([]float64(v))
	case distperm.String:
		return json.Marshal(string(v))
	default:
		return nil, fmt.Errorf("dpserver: cannot encode %T points", p)
	}
}

// DecodePoint unmarshals a wire point: a JSON array of numbers becomes a
// Vector, a JSON string becomes a String. A vector is read by the codec
// (wire.go), and by encoding/json when the codec declines it.
func DecodePoint(raw json.RawMessage) (distperm.Point, error) {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("dpserver: empty point")
	}
	switch trimmed[0] {
	case '[':
		l := lexer{b: trimmed}
		if v, ok := l.vector(); ok && l.end() {
			return v, nil
		}
		var v []float64
		if err := json.Unmarshal(trimmed, &v); err != nil {
			return nil, fmt.Errorf("dpserver: bad vector point: %w", err)
		}
		return distperm.Vector(v), nil
	case '"':
		var s string
		if err := json.Unmarshal(trimmed, &s); err != nil {
			return nil, fmt.Errorf("dpserver: bad string point: %w", err)
		}
		return distperm.String(s), nil
	default:
		return nil, fmt.Errorf("dpserver: point must be a JSON array (vector) or string, got %q", trimmed)
	}
}

// mutationWire converts a write-path snapshot to the wire shape.
func mutationWire(ms distperm.MutationStats) *MutationStatsWire {
	return &MutationStatsWire{
		Inserts:          ms.Inserts,
		Deletes:          ms.Deletes,
		LiveN:            ms.LiveN,
		NextID:           ms.NextID,
		DeltaSize:        ms.DeltaSize,
		Tombstones:       ms.Tombstones,
		PendingWrites:    ms.PendingWrites,
		RebuildThreshold: ms.RebuildThreshold,
		DeltaPerShard:    ms.DeltaPerShard,
		Rebuilds:         ms.Rebuilds,
		RebuildFailures:  ms.RebuildFailures,
		LastRebuildNanos: int64(ms.LastRebuild),
		LastRebuildError: ms.LastRebuildError,
	}
}

// walWire converts a write-ahead-log snapshot to the wire shape (nil when
// the backend does not log).
func walWire(ws distperm.WALStats) *WALStatsWire {
	if !ws.Enabled {
		return nil
	}
	p50 := time.Duration(ws.Fsync.Quantile(0.50) * float64(time.Second))
	p99 := time.Duration(ws.Fsync.Quantile(0.99) * float64(time.Second))
	return &WALStatsWire{
		Dir:                ws.Dir,
		Sync:               ws.Sync,
		Seq:                ws.Seq,
		Segments:           ws.Segments,
		AppendedRecords:    ws.AppendedRecords,
		AppendedBytes:      ws.AppendedBytes,
		Syncs:              ws.Syncs,
		ReplayedRecords:    ws.ReplayedRecords,
		Recoveries:         ws.Recoveries,
		TornBytesTruncated: ws.TornBytesTruncated,
		Checkpoints:        ws.Checkpoints,
		CheckpointSeq:      ws.CheckpointSeq,
		FsyncCount:         ws.Fsync.Count,
		FsyncP50Nano:       p50.Nanoseconds(),
		FsyncP99Nano:       p99.Nanoseconds(),
		FsyncP50:           p50.String(),
		FsyncP99:           p99.String(),
		FsyncMean:          ws.Fsync.Mean(),
	}
}

// statsWire converts an engine snapshot to the wire shape.
func statsWire(st distperm.EngineStats) EngineStatsWire {
	return EngineStatsWire{
		Queries:          st.Queries,
		BatchedQueries:   st.BatchedQueries,
		ApproxQueries:    st.ApproxQueries,
		ProbedBuckets:    st.ProbedBuckets,
		ApproxCandidates: st.ApproxCandidates,
		DistinctRows:     st.DistinctRows,
		DistanceEvals:    st.DistanceEvals,
		PrunedEvals:      st.PrunedEvals,
		MeanEvals:        st.MeanEvals,
		P50Nanos:         st.P50.Nanoseconds(),
		P99Nanos:         st.P99.Nanoseconds(),
		P50:              st.P50.String(),
		P99:              st.P99.String(),
	}
}
