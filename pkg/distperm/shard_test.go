package distperm

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"distperm/internal/dataset"
	"distperm/internal/sisap"
)

// TestShardedEngineMatchesSingleEngine is the sharding acceptance test: for
// every index kind, partitioner, and a spread of shard counts, the
// scatter-gather answers (kNN and range, indices and distances) must be
// identical to a single Engine over the unpartitioned database. The single
// engine's answers in turn equal LinearScan ground truth (TestEngineMatchesLinearScan),
// so equality here means the sharded layer is exact end to end.
func TestShardedEngineMatchesSingleEngine(t *testing.T) {
	const (
		queries = 60
		k       = 7
		radius  = 0.45
	)
	db, rng := testDB(t, 31, 500, 3)
	queryPts := dataset.UniformVectors(rng, queries, 3)

	truth := sisap.NewLinearScan(db)
	wantKNN := make([][]Result, queries)
	wantRange := make([][]Result, queries)
	for i, q := range queryPts {
		wantKNN[i], _ = truth.KNN(q, k)
		wantRange[i], _ = truth.Range(q, radius)
	}

	for _, kind := range Kinds() {
		for _, p := range []Partitioner{RoundRobin{}, HashPoint{}} {
			for _, shards := range []int{1, 3, 8} {
				name := fmt.Sprintf("%s/%s/shards=%d", kind, p.Name(), shards)
				sx, err := BuildSharded(db, Spec{Index: kind, K: 6, Seed: 9}, shards, p)
				if err != nil {
					t.Fatalf("%s: BuildSharded: %v", name, err)
				}
				if got := sx.NumShards(); got != shards {
					t.Fatalf("%s: NumShards() = %d", name, got)
				}
				se, err := NewShardedEngine(sx, 2)
				if err != nil {
					t.Fatalf("%s: NewShardedEngine: %v", name, err)
				}
				gotKNN, err := se.KNNBatch(queryPts, k)
				if err != nil {
					t.Fatalf("%s: KNNBatch: %v", name, err)
				}
				gotRange, _, err := se.Search(queryPts, Query{Radius: radius})
				if err != nil {
					t.Fatalf("%s: range Search: %v", name, err)
				}
				se.Close()
				for i := range queryPts {
					if len(gotKNN[i]) != len(wantKNN[i]) {
						t.Fatalf("%s: query %d: %d kNN results, want %d",
							name, i, len(gotKNN[i]), len(wantKNN[i]))
					}
					for j := range wantKNN[i] {
						if gotKNN[i][j] != wantKNN[i][j] {
							t.Fatalf("%s: query %d kNN result %d = %+v, want %+v",
								name, i, j, gotKNN[i][j], wantKNN[i][j])
						}
					}
					if len(gotRange[i]) != len(wantRange[i]) {
						t.Fatalf("%s: query %d: %d range results, want %d",
							name, i, len(gotRange[i]), len(wantRange[i]))
					}
					for j := range wantRange[i] {
						if gotRange[i][j] != wantRange[i][j] {
							t.Fatalf("%s: query %d range result %d differs", name, i, j)
						}
					}
				}
			}
		}
	}
}

// TestShardedEngineSmallShards covers k larger than a shard: every shard
// contributes everything it has and the merge still recovers the exact
// global top k.
func TestShardedEngineSmallShards(t *testing.T) {
	db, rng := testDB(t, 32, 10, 2)
	queryPts := dataset.UniformVectors(rng, 15, 2)
	sx, err := BuildSharded(db, Spec{Index: "linear"}, 4, RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardedEngine(sx, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	const k = 7 // > ceil(10/4), so every shard is exhausted
	got, err := se.KNNBatch(queryPts, k)
	if err != nil {
		t.Fatal(err)
	}
	truth := sisap.NewLinearScan(db)
	for i, q := range queryPts {
		want, _ := truth.KNN(q, k)
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("query %d result %d = %+v, want %+v", i, j, got[i][j], want[j])
			}
		}
	}
}

// TestShardedIndexServedByPlainEngine: a ShardedIndex satisfies Index, so a
// plain Engine can serve it directly too.
func TestShardedIndexServedByPlainEngine(t *testing.T) {
	db, rng := testDB(t, 33, 300, 3)
	queryPts := dataset.UniformVectors(rng, 40, 3)
	sx, err := BuildSharded(db, Spec{Index: "distperm", K: 5, Seed: 2}, 3, RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(db, sx, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	got, err := e.KNNBatch(queryPts, 4)
	if err != nil {
		t.Fatal(err)
	}
	truth := sisap.NewLinearScan(db)
	for i, q := range queryPts {
		want, _ := truth.KNN(q, 4)
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("query %d result %d differs", i, j)
			}
		}
	}
}

// TestShardedStatsAggregate: each logical query fans out to every shard, so
// per-shard sub-query counts and distance evaluations must sum exactly to
// the aggregate — the paper's cost model composing additively across shards.
func TestShardedStatsAggregate(t *testing.T) {
	const (
		queries = 80
		shards  = 4
	)
	db, rng := testDB(t, 34, 400, 3)
	queryPts := dataset.UniformVectors(rng, queries, 3)
	sx, err := BuildSharded(db, Spec{Index: "vptree", Seed: 5}, shards, RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardedEngine(sx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	if _, err := se.KNNBatch(queryPts, 3); err != nil {
		t.Fatal(err)
	}

	per := se.ShardStats()
	if len(per) != shards {
		t.Fatalf("ShardStats() has %d entries, want %d", len(per), shards)
	}
	var sumQ, sumE int64
	for s, st := range per {
		if st.Queries != queries {
			t.Errorf("shard %d answered %d sub-queries, want %d", s, st.Queries, queries)
		}
		if st.DistanceEvals <= 0 {
			t.Errorf("shard %d reports no distance evaluations", s)
		}
		sumQ += st.Queries
		sumE += st.DistanceEvals
	}
	agg := se.Stats()
	if agg.Queries != sumQ {
		t.Errorf("aggregate Queries = %d, shard sum = %d", agg.Queries, sumQ)
	}
	if agg.DistanceEvals != sumE {
		t.Errorf("aggregate DistanceEvals = %d, shard sum = %d", agg.DistanceEvals, sumE)
	}
	if agg.MeanEvals <= 0 || agg.P99 < agg.P50 || agg.P50 < 0 {
		t.Errorf("implausible aggregate stats: %+v", agg)
	}
}

// TestShardedSerializeRoundTrip writes the sharded container (shard count,
// partition map, one embedded index per shard) for several member kinds and
// demands bit-identical query behaviour from the reloaded copy.
func TestShardedSerializeRoundTrip(t *testing.T) {
	db, rng := testDB(t, 35, 240, 3)
	queryPts := dataset.UniformVectors(rng, 15, 3)
	for _, kind := range []string{"linear", "laesa", "distperm", "vptree"} {
		sx, err := BuildSharded(db, Spec{Index: kind, K: 5, Seed: 8}, 3, HashPoint{})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		var buf bytes.Buffer
		n, err := WriteIndex(&buf, sx)
		if err != nil {
			t.Fatalf("%s: write: %v", kind, err)
		}
		if n != int64(buf.Len()) {
			t.Errorf("%s: reported %d bytes, wrote %d", kind, n, buf.Len())
		}
		got, err := ReadIndex(&buf, db)
		if err != nil {
			t.Fatalf("%s: read: %v", kind, err)
		}
		gx, ok := got.(*ShardedIndex)
		if !ok {
			t.Fatalf("%s: reloaded as %T", kind, got)
		}
		if gx.NumShards() != sx.NumShards() {
			t.Errorf("%s: reloaded with %d shards, want %d", kind, gx.NumShards(), sx.NumShards())
		}
		if gx.IndexBits() != sx.IndexBits() {
			t.Errorf("%s: IndexBits %d != %d after round trip", kind, gx.IndexBits(), sx.IndexBits())
		}
		for i, q := range queryPts {
			a, as := sx.KNN(q, 5)
			b, bs := gx.KNN(q, 5)
			if as != bs {
				t.Errorf("%s: query %d stats diverge (%+v vs %+v)", kind, i, as, bs)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("%s: query %d kNN result %d differs after round trip", kind, i, j)
				}
			}
			ar, _ := sx.Range(q, 0.3)
			br, _ := gx.Range(q, 0.3)
			if len(ar) != len(br) {
				t.Fatalf("%s: query %d range sizes differ", kind, i)
			}
			for j := range ar {
				if ar[j] != br[j] {
					t.Fatalf("%s: query %d range result %d differs", kind, i, j)
				}
			}
		}
		// The reloaded container serves through the sharded engine too.
		se, err := NewShardedEngine(gx, 2)
		if err != nil {
			t.Fatalf("%s: engine over reloaded index: %v", kind, err)
		}
		if _, err := se.KNNBatch(queryPts, 2); err != nil {
			t.Errorf("%s: reloaded engine batch: %v", kind, err)
		}
		se.Close()
	}
}

// TestShardedSerializeRejectsCorruption fuzzes the sharded container header
// fields that the decoder must bounds-check before trusting.
func TestShardedSerializeRejectsCorruption(t *testing.T) {
	db, _ := testDB(t, 36, 60, 2)
	sx, err := BuildSharded(db, Spec{Index: "linear"}, 2, RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := WriteIndex(&buf, sx); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Layout: 8 magic + 4 version + 4 kindLen + 7 kind + 8 n + 4 shardCount.
	const shardCountOff = 8 + 4 + 4 + 7 + 8

	zeroShards := append([]byte(nil), raw...)
	copy(zeroShards[shardCountOff:], []byte{0, 0, 0, 0})
	if _, err := ReadIndex(bytes.NewReader(zeroShards), db); err == nil ||
		!strings.Contains(err.Error(), "shard count") {
		t.Errorf("zero shard count: %v", err)
	}
	hugeShards := append([]byte(nil), raw...)
	copy(hugeShards[shardCountOff:], []byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadIndex(bytes.NewReader(hugeShards), db); err == nil ||
		!strings.Contains(err.Error(), "shard count") {
		t.Errorf("huge shard count: %v", err)
	}
	// A part length with the top bit set must be rejected in uint64 space,
	// not wrap negative through int() and panic in make().
	hugePart := append([]byte(nil), raw...)
	copy(hugePart[shardCountOff+4:], []byte{0, 0, 0, 0, 0, 0, 0, 0x80})
	if _, err := ReadIndex(bytes.NewReader(hugePart), db); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Errorf("huge part length: %v", err)
	}
	if _, err := ReadIndex(bytes.NewReader(raw[:len(raw)-9]), db); err == nil {
		t.Error("truncated sharded file should error")
	}
	other, _ := testDB(t, 37, 10, 2)
	if _, err := ReadIndex(bytes.NewReader(raw), other); err == nil {
		t.Error("database size mismatch should error")
	}
}

// badPartitioner routes everything to one shard (or out of range) to
// exercise Partition's validation.
type badPartitioner struct{ to int }

func (badPartitioner) Name() string                { return "bad" }
func (b badPartitioner) Shard(int, Point, int) int { return b.to }

func TestPartitionErrors(t *testing.T) {
	db, _ := testDB(t, 38, 20, 2)
	if _, err := Partition(nil, 2, RoundRobin{}); err == nil {
		t.Error("nil database should error")
	}
	if _, err := Partition(db, 2, nil); err == nil {
		t.Error("nil partitioner should error")
	}
	for _, shards := range []int{0, -1, 21} {
		if _, err := Partition(db, shards, RoundRobin{}); err == nil {
			t.Errorf("shards=%d should error", shards)
		}
	}
	if _, err := Partition(db, 2, badPartitioner{to: 0}); err == nil ||
		!strings.Contains(err.Error(), "empty") {
		t.Error("empty shard should be reported")
	}
	if _, err := Partition(db, 2, badPartitioner{to: 5}); err == nil {
		t.Error("out-of-range shard assignment should error")
	}
	if _, err := BuildSharded(db, Spec{Index: "bogus"}, 2, RoundRobin{}); err == nil {
		t.Error("unknown member kind should error")
	}
	if _, err := NewShardedEngine(nil, 1); err == nil {
		t.Error("nil sharded index should error")
	}
}

// TestHashPointRejectsUnknownTypes: HashPoint must refuse point types it
// cannot hash content-stably (a formatted pointer would shard differently
// every process run) rather than silently breaking determinism.
func TestHashPointRejectsUnknownTypes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("HashPoint over an unsupported point type should panic")
		}
	}()
	type opaque struct{ x int }
	HashPoint{}.Shard(0, &opaque{1}, 2)
}

func TestPartitionerByName(t *testing.T) {
	for _, name := range []string{"roundrobin", "hash"} {
		p, err := PartitionerByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("%s resolved to %s", name, p.Name())
		}
	}
	if _, err := PartitionerByName("modulo"); err == nil {
		t.Error("unknown partitioner should error")
	}
}

// evenOdd is a caller's own placement strategy: shard 0 gets even IDs,
// shard 1 odd IDs (shards must be 2).
type evenOdd struct{}

func (evenOdd) Name() string                          { return "evenodd" }
func (evenOdd) Shard(id int, _ Point, shards int) int { return id % 2 % shards }

// TestCustomPartitioner: a strategy of the caller's needs no name in the
// package's table — it is handed to BuildSharded as a value and places the
// points; only the built-in names resolve through PartitionerByName.
func TestCustomPartitioner(t *testing.T) {
	if _, err := PartitionerByName("evenodd"); err == nil {
		t.Error("PartitionerByName resolved a name that is not built in")
	}
	db, _ := testDB(t, 41, 20, 2)
	sx, err := BuildSharded(db, Spec{Index: "linear"}, 2, evenOdd{})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		for _, id := range sx.Part(s) {
			if id%2 != s {
				t.Fatalf("evenodd sent ID %d to shard %d", id, s)
			}
		}
	}
}

// TestShardedEngineEmptyBatch: an empty batch short-circuits without
// scattering — no sub-queries reach any shard.
func TestShardedEngineEmptyBatch(t *testing.T) {
	db, _ := testDB(t, 42, 30, 2)
	sx, err := BuildSharded(db, Spec{Index: "linear"}, 3, RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardedEngine(sx, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	for _, call := range []func() ([][]Result, error){
		func() ([][]Result, error) { return se.KNNBatch(nil, 2) },
		func() ([][]Result, error) { return se.KNNBatch([]Point{}, 2) },
		func() ([][]Result, error) { out, _, err := se.Search(nil, Query{Radius: 0.3}); return out, err },
	} {
		out, err := call()
		if err != nil {
			t.Fatal(err)
		}
		if out == nil || len(out) != 0 {
			t.Fatalf("empty batch returned %v, want empty non-nil slice", out)
		}
	}
	if st := se.Stats(); st.Queries != 0 {
		t.Errorf("empty batches recorded %d sub-queries, want 0", st.Queries)
	}
}

// TestShardedEngineClosed: batches after Close surface the engine-closed
// error instead of hanging or panicking.
func TestShardedEngineClosed(t *testing.T) {
	db, rng := testDB(t, 39, 40, 2)
	sx, err := BuildSharded(db, Spec{Index: "linear"}, 2, RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardedEngine(sx, 1)
	if err != nil {
		t.Fatal(err)
	}
	qs := dataset.UniformVectors(rng, 3, 2)
	if _, err := se.KNNBatch(qs, 0); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := se.KNNBatch(qs, 41); err == nil {
		t.Error("k>n should error")
	}
	if _, _, err := se.Search(qs, Query{Radius: -0.5}); err == nil {
		t.Error("negative radius should error")
	}
	se.Close()
	se.Close() // idempotent
	if _, err := se.KNNBatch(qs, 1); err == nil {
		t.Error("batch after Close should error")
	}
	if _, _, err := se.Search(qs, Query{Radius: 0.1}); err == nil {
		t.Error("range batch after Close should error")
	}
}

// TestEngineShardedViewIdenticalAnswers: one Engine type serves a plain and
// a sharded index. On a database with planted ties (every point stored
// twice, so equal distances straddle shards and only the global-ID
// tie-break orders them), NewEngine over the sharded index, the
// NewShardedEngine wrapper and an Engine over the single index give
// byte-identical kNN, range and approximate-at-full-coverage answers, and
// the sharded engine's per-shard counters sum field for field to Stats.
func TestEngineShardedViewIdenticalAnswers(t *testing.T) {
	const shards, perShard, k, radius = 4, 2, 9, 0.4
	rng := rand.New(rand.NewSource(61))
	pts := dataset.UniformVectors(rng, 300, 3)
	db, err := NewDB(L2, append(pts, pts...))
	if err != nil {
		t.Fatal(err)
	}
	// Half the queries are database points: distance-0 ties too.
	qs := append(dataset.UniformVectors(rng, 20, 3), pts[:20]...)
	spec := Spec{Index: "distperm", K: 6, Seed: 61}
	idx, err := Build(db, spec)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := BuildSharded(db, spec, shards, RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewEngine(db, idx, perShard)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	viaNew, err := NewEngine(db, sx, perShard)
	if err != nil {
		t.Fatal(err)
	}
	defer viaNew.Close()
	viaWrapper, err := NewShardedEngine(sx, perShard)
	if err != nil {
		t.Fatal(err)
	}
	defer viaWrapper.Close()
	procs := runtime.GOMAXPROCS(0)
	if single.Shards() != 1 || single.Workers() != procs || len(single.ShardStats()) != 1 {
		t.Fatalf("single index: %d shards, %d workers, %d shard stats; want 1, %d, 1",
			single.Shards(), single.Workers(), len(single.ShardStats()), procs)
	}

	for _, q := range []Query{
		{K: k},
		{K: 1},
		{Radius: radius},
		{K: k, Approx: true, NProbe: 1 << 30}, // every bucket of every directory
	} {
		want, _, err := single.Search(qs, q)
		if err != nil {
			t.Fatalf("%+v: single: %v", q, err)
		}
		for name, e := range map[string]*Engine{"NewEngine": viaNew, "NewShardedEngine": viaWrapper} {
			got, sts, err := e.Search(qs, q)
			if err != nil {
				t.Fatalf("%+v: %s: %v", q, name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v: %s over %d shards disagrees with the single index", q, name, shards)
			}
			for i, st := range sts {
				if !st.Exact {
					t.Fatalf("%+v: %s: query %d not exact at full coverage: %+v", q, name, i, st)
				}
			}
		}
	}

	for name, e := range map[string]*Engine{"NewEngine": viaNew, "NewShardedEngine": viaWrapper} {
		if e.Shards() != shards || e.Workers() != procs {
			t.Errorf("%s: %d shards, %d workers; want %d, %d", name, e.Shards(), e.Workers(), shards, procs)
		}
		var sum EngineStats
		for s, st := range e.ShardStats() {
			if st.Queries != int64(4*len(qs)) {
				t.Errorf("%s: shard %d answered %d sub-queries, want %d", name, s, st.Queries, 4*len(qs))
			}
			sum.add(st)
			sum.DistinctRows += st.DistinctRows
		}
		agg := e.Stats()
		agg.MeanEvals, agg.P50, agg.P99 = 0, 0, 0 // derived, not summed
		if sum != agg {
			t.Errorf("%s: shard stats sum to %+v, Stats() is %+v", name, sum, agg)
		}
		if agg.BatchedQueries == 0 || agg.ApproxQueries == 0 || agg.DistinctRows == 0 {
			t.Errorf("%s: a counter never moved: %+v", name, agg)
		}
	}
}

// TestShardStatsReportBounds: ShardStats reports each segment's own bound
// cells, and Stats their sum. Over 4 000 points and 12 sites the plain engine
// bounds its buckets once an exact query has run; split four ways round-robin,
// no shard's buckets are large enough to be worth bounding, which only the
// per-shard figures show.
func TestShardStatsReportBounds(t *testing.T) {
	const n, k = 4000, 12
	db, rng := testDB(t, 47, n, 4)
	q := dataset.UniformVectors(rng, 1, 4)
	spec := Spec{Index: "distperm", K: k, Seed: 5}
	idx, err := Build(db, spec)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := BuildSharded(db, spec, 4, RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		idx   Index
		bound bool
	}{{"plain", idx, true}, {"4 shards", sx, false}} {
		e, err := NewEngine(db, c.idx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.KNNBatch(q, 10); err != nil {
			t.Fatal(err)
		}
		shards, total := e.ShardStats(), e.Stats()
		sum := 0
		for s, st := range shards {
			if c.bound != (st.BoundCells > 0) {
				t.Errorf("%s: shard %d reports %d bound cells", c.name, s, st.BoundCells)
			}
			sum += st.BoundCells
		}
		if sum != total.BoundCells {
			t.Errorf("%s: shards report %d bound cells, Stats %d", c.name, sum, total.BoundCells)
		}
		e.Close()
	}
}
