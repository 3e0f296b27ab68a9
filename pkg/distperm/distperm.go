// Package distperm is the public query layer over the distance-permutation
// index family of Skala (ICDE 2008): the paper trades metric evaluations
// against index bits, and this package turns that trade-off into a servable
// API. It exposes the whole index family (linear scan, AESA, iAESA, LAESA,
// the distance-permutation index, VP-tree, GH-tree) behind these seams:
//
//   - Build: one entry point constructing any index of the family from a
//     Spec naming its kind (Kinds).
//   - Query and Search: one comparable value saying what a batch asks (kNN,
//     range, or approximate kNN) and one method answering it, the only
//     query path of every engine below; KNNBatch and KNNApproxBatch are
//     wrappers written once over it.
//   - Engine: answers each Search on its caller's goroutine — a batch fans
//     out over at most GOMAXPROCS goroutines, all reading the one index,
//     which every kind answers concurrently — over a view of it: a single segment
//     for a plain index, one per shard when a Partitioner has split the
//     database (BuildSharded). A query walks the segments one after another
//     into one collector, each pruning at the distances the ones before it
//     found, and answers identically to one index over the unpartitioned
//     database; per-query Stats aggregate into engine-level counters
//     (distance evaluations, latency percentiles), kept per shard and
//     summing to the global cost. NewEngine makes it read-only; WrapMutable
//     gives it a live write path — a delta buffer and tombstones over the
//     built base, folded in by background rebuilds that publish a new view
//     to the engine that is already serving. Its published state is one
//     immutable MutableIndex, which a read-only Engine serves through the
//     same search once it is saved and read back.
//   - Open: the one boot from durable state — a write-ahead log and its
//     checkpoints, a mapped or decoded container, or a build over a dataset
//     — into a serving Engine that owns what it opened.
//   - WriteIndex/ReadIndex: one versioned container format persisting every
//     index kind, including the sharded container (partition map plus one
//     embedded index per shard).
//
// Point, Metric, and the concrete metrics are re-exported from the internal
// layers so callers outside the module can use the package without touching
// internal paths.
package distperm

import (
	"errors"
	"fmt"
	"io"

	"distperm/internal/metric"
	"distperm/internal/sisap"
)

// Core metric-space vocabulary, shared with the internal layers.
type (
	// Point is an opaque element of a metric space (Vector for the Lp
	// family, String for the string metrics).
	Point = metric.Point
	// Metric computes distances between points; implementations satisfy the
	// metric axioms.
	Metric = metric.Metric
	// Vector is a point of a d-dimensional real vector space.
	Vector = metric.Vector
	// String is a point of a string metric space.
	String = metric.String
)

// Query vocabulary, shared with the index implementations.
type (
	// DB is an immutable database of points under a metric.
	DB = sisap.DB
	// Index answers kNN and range queries over a DB and reports its storage
	// cost in bits.
	Index = sisap.Index
	// Result is one answer: a database point index and its distance.
	Result = sisap.Result
	// Stats reports the cost of a query in metric evaluations.
	Stats = sisap.Stats
	// PermIndex is the distance-permutation index, exposed concretely for
	// its extra surface (KNNBudget, DistinctPermutations, storage splits).
	// Its query path runs the paper's table encoding live: permutation
	// distances are computed once per *distinct* stored permutation and the
	// candidates are ordered by an integer counting sort, so queries get
	// cheaper exactly where the paper's counting results say the index gets
	// smaller (DistinctPermutations ≪ n).
	PermIndex = sisap.PermIndex
	// PermDistance selects the candidate-ordering permutation distance.
	PermDistance = sisap.PermDistance
	// MutableIndex is one immutable state of a live-mutated store (base
	// index + delta + tombstones + next ID), and the DPERMIDX "mutable"
	// container kind. It is what a writable Engine publishes, copy-on-write,
	// and Snapshot returns; WrapMutable resumes one, and a read-only
	// Engine serves one over its base's shards, checking k against its live
	// points.
	MutableIndex = sisap.MutableIndex
	// ApproxIndex is the approximate-search capability: KNNApprox trades
	// bounded recall for a smaller candidate set, steered by nprobe (how
	// many permutation-prefix buckets to probe). PermIndex implements it;
	// the engines detect it on each segment's index.
	ApproxIndex = sisap.ApproxIndex
	// ApproxStats extends Stats with the probe accounting of an approximate
	// query: probed buckets against the directory size, candidate count,
	// and whether the probe set degraded to the exact scan.
	ApproxStats = sisap.ApproxStats
)

// Candidate-ordering permutation distances for PermIndex.
const (
	Footrule    = sisap.Footrule
	KendallTau  = sisap.KendallTau
	SpearmanRho = sisap.SpearmanRho
)

// Ready-made metrics.
var (
	// L1 is the Manhattan metric on Vectors.
	L1 Metric = metric.L1{}
	// L2 is the Euclidean metric on Vectors.
	L2 Metric = metric.L2{}
	// LInf is the Chebyshev metric on Vectors.
	LInf Metric = metric.LInf{}
	// Edit is the Levenshtein metric on Strings.
	Edit Metric = metric.Edit{}
	// Prefix is the prefix metric on Strings.
	Prefix Metric = metric.Prefix{}
	// Angular is the angular metric on sparse document Vectors.
	Angular Metric = metric.Angular{}
)

// LP returns the Minkowski metric for p ≥ 1, choosing the specialised
// implementation for p ∈ {1, 2, +Inf}.
func LP(p float64) Metric { return metric.NewLP(p) }

// NewDB returns a database over points under m. Unlike the internal
// constructors, which panic (their callers are trusted), the public boundary
// reports bad input as an error — including a metric that cannot measure
// the points (e.g. Edit over Vectors), which is probed here so the mismatch
// cannot surface later as a panic in a query. The slice is retained
// and the database is immutable from here on: equal-dimension Vectors are
// packed into one coordinate block, and points' entries become views of it.
func NewDB(m Metric, points []Point) (*DB, error) {
	if m == nil {
		return nil, errors.New("distperm: nil metric")
	}
	if len(points) == 0 {
		return nil, errors.New("distperm: empty database")
	}
	if err := metric.Probe(m, points[0]); err != nil {
		return nil, fmt.Errorf("distperm: %w", err)
	}
	return sisap.NewDB(m, points), nil
}

// WriteIndex serialises any index of the family in the versioned DPERMIDX
// container format. It returns the number of bytes written. The
// database points are not serialised — the index file accompanies the data.
func WriteIndex(w io.Writer, x Index) (int64, error) { return sisap.WriteIndex(w, x) }

// ReadIndex deserialises an index written by WriteIndex against db, which
// must be the database the index was built on. No metric evaluations are
// re-run — that is the point of persisting the index.
func ReadIndex(r io.Reader, db *DB) (Index, error) { return sisap.ReadIndex(r, db) }
