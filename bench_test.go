// Package distperm_test benchmarks the regeneration of every table and
// figure in the paper's evaluation (Tables 1–3, Figures 1–7, the Eq. 12
// counterexample, and the Corollary 5/8 analyses), plus micro-benchmarks of
// the hot paths. Workloads run at experiments.TestScale so `go test
// -bench=.` completes quickly; the cmd/tables and cmd/figures binaries run
// the same code at paper scale.
package distperm_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distperm/internal/core"
	"distperm/internal/counting"
	"distperm/internal/dataset"
	"distperm/internal/experiments"
	"distperm/internal/metric"
	"distperm/internal/perm"
	"distperm/internal/sisap"
	"distperm/internal/tree"
	"distperm/internal/voronoi"
	"distperm/pkg/distperm"
	"distperm/pkg/dpserver"
	"distperm/pkg/dpserver/client"
	"distperm/pkg/obs"
)

func benchCfg() experiments.Config { return experiments.TestScale() }

// BenchmarkTable1 regenerates the exact Euclidean counts N_{d,2}(k) for
// d = 1..10, k = 2..12 (paper Table 1), bypassing the shared memo each
// iteration by rendering the table too.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.RunTable1()
		t.Write(io.Discard)
	}
}

// BenchmarkTable2 regenerates the SISAP-analogue database counts (paper
// Table 2) at test scale.
func BenchmarkTable2(b *testing.B) {
	cfg := benchCfg()
	cfg.SISAPScale = 400
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunTable2(cfg).Write(io.Discard)
	}
}

// BenchmarkTable3 regenerates the uniform-random-vector counts (paper
// Table 3) at test scale.
func BenchmarkTable3(b *testing.B) {
	cfg := experiments.Config{VectorN: 5_000, VectorRuns: 1, SISAPScale: 100, GridSide: 100, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunTable3(cfg).Write(io.Discard)
	}
}

// BenchmarkFig1Order1Voronoi rasterises the order-1 (classical) Voronoi
// diagram of the four-site configuration (paper Fig 1).
func BenchmarkFig1Order1Voronoi(b *testing.B) {
	sites := voronoi.PaperFourSites()
	g := voronoi.Grid{Rect: voronoi.WidePlane, W: 300, H: 300}
	for i := 0; i < b.N; i++ {
		if cells := voronoi.Order(metric.L2{}, sites, 1, g).Cells(); cells != 4 {
			b.Fatalf("cells = %d", cells)
		}
	}
}

// BenchmarkFig2Order2Voronoi rasterises the order-2 diagram (paper Fig 2).
func BenchmarkFig2Order2Voronoi(b *testing.B) {
	sites := voronoi.PaperFourSites()
	g := voronoi.Grid{Rect: voronoi.WidePlane, W: 300, H: 300}
	for i := 0; i < b.N; i++ {
		voronoi.Order(metric.L2{}, sites, 2, g)
	}
}

// BenchmarkFig3PermDiagramL2 rasterises the full distance-permutation
// diagram under L2 (paper Fig 3; 18 cells).
func BenchmarkFig3PermDiagramL2(b *testing.B) {
	sites := voronoi.PaperFourSites()
	g := voronoi.Grid{Rect: voronoi.WidePlane, W: 300, H: 300}
	for i := 0; i < b.N; i++ {
		voronoi.Permutations(metric.L2{}, sites, g)
	}
}

// BenchmarkFig4PermDiagramL1 rasterises the full diagram under L1 (paper
// Fig 4; 18 cells, different permutation set).
func BenchmarkFig4PermDiagramL1(b *testing.B) {
	sites := voronoi.PaperFourSites()
	g := voronoi.Grid{Rect: voronoi.WidePlane, W: 300, H: 300}
	for i := 0; i < b.N; i++ {
		voronoi.Permutations(metric.L1{}, sites, g)
	}
}

// BenchmarkFig5PrefixMetric recomputes the prefix-metric example and its
// trie cross-validation (paper Fig 5).
func BenchmarkFig5PrefixMetric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.RunFigurePrefix()
		if !f.TrieOK {
			b.Fatal("trie mismatch")
		}
	}
}

// BenchmarkFig6Construction builds and verifies the Theorem 6 construction
// realising all k! permutations (paper Fig 6), k=5 in 4 dimensions.
func BenchmarkFig6Construction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.RunFigureConstruction(5, 2)
		if f.VerifyErr != nil {
			b.Fatal(f.VerifyErr)
		}
	}
}

// BenchmarkFig7Coverage regenerates the box-limited cell coverage series
// (paper Fig 7).
func BenchmarkFig7Coverage(b *testing.B) {
	cfg := experiments.Config{VectorN: 10_000, GridSide: 300, Seed: 1}
	for i := 0; i < b.N; i++ {
		experiments.RunFigureCoverage(cfg)
	}
}

// BenchmarkCounterexample reruns the Eq. 12 refutation (paper §5) at
// 100k points.
func BenchmarkCounterexample(b *testing.B) {
	cfg := experiments.Config{VectorN: 100_000, Seed: 1}
	for i := 0; i < b.N; i++ {
		experiments.RunCounterexample(cfg)
	}
}

// BenchmarkCorollary5 builds the tree-metric path construction and counts
// its permutations (paper §3), k = 10.
func BenchmarkCorollary5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sp, sites, points := tree.Corollary5Construction(10)
		if got := core.CountDistinct(sp, sites, points); got != 46 {
			b.Fatalf("count = %d", got)
		}
	}
}

// BenchmarkStorageBits regenerates the Corollary 8 storage analysis.
func BenchmarkStorageBits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunStorageTable(4, 16).Write(io.Discard)
	}
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkPermutationL2 measures one distance-permutation computation
// (k=12 sites, 8-dim L2), the inner loop of every experiment.
func BenchmarkPermutationL2(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sites := dataset.UniformVectors(rng, 12, 8)
	pm := core.NewPermuter(metric.L2{}, sites)
	y := dataset.UniformVectors(rng, 1, 8)[0]
	buf := make(perm.Permutation, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pm.PermutationInto(y, buf)
	}
}

// BenchmarkCounterAdd measures the streaming distinct-permutation counter.
func BenchmarkCounterAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	sites := dataset.UniformVectors(rng, 8, 4)
	pts := dataset.UniformVectors(rng, 4096, 4)
	c := core.NewCounter(metric.L2{}, sites)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(pts[i&4095])
	}
}

// BenchmarkEuclideanCount measures the memoised Theorem 7 recurrence at a
// fresh large argument each iteration cycle.
func BenchmarkEuclideanCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		counting.EuclideanCount(10, 50+i%8)
	}
}

// BenchmarkKendallTau measures the O(k log k) discordant-pair count, k=64.
func BenchmarkKendallTau(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := perm.Permutation(rng.Perm(64))
	q := perm.Permutation(rng.Perm(64))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perm.KendallTau(p, q)
	}
}

// BenchmarkEditDistance measures the Levenshtein dynamic program on
// dictionary-length words.
func BenchmarkEditDistance(b *testing.B) {
	a, c := "counterexample", "counting"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metric.EditDistance(a, c)
	}
}

// benchmarkIndexKNN shares the query loop across index benchmarks.
func benchmarkIndexKNN(b *testing.B, build func(db *sisap.DB, rng *rand.Rand) sisap.Index) {
	rng := rand.New(rand.NewSource(4))
	db := sisap.NewDB(metric.L2{}, dataset.UniformVectors(rng, 2_000, 6))
	idx := build(db, rng)
	queries := dataset.UniformVectors(rng, 64, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.KNN(queries[i&63], 1)
	}
}

// BenchmarkKNNLinear is the baseline scan.
func BenchmarkKNNLinear(b *testing.B) {
	benchmarkIndexKNN(b, func(db *sisap.DB, rng *rand.Rand) sisap.Index {
		return sisap.NewLinearScan(db)
	})
}

// BenchmarkKNNLAESA measures LAESA with 12 max-spread pivots.
func BenchmarkKNNLAESA(b *testing.B) {
	benchmarkIndexKNN(b, func(db *sisap.DB, rng *rand.Rand) sisap.Index {
		return sisap.NewLAESAMaxSpread(db, 12)
	})
}

// BenchmarkKNNVPTree measures the vantage-point tree.
func BenchmarkKNNVPTree(b *testing.B) {
	benchmarkIndexKNN(b, func(db *sisap.DB, rng *rand.Rand) sisap.Index {
		return sisap.NewVPTree(db, rng)
	})
}

// BenchmarkKNNPermIndexBudget measures the distperm index at a 5% scan
// budget (its intended operating point).
func BenchmarkKNNPermIndexBudget(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	db := sisap.NewDB(metric.L2{}, dataset.UniformVectors(rng, 2_000, 6))
	idx := sisap.NewPermIndex(db, rng.Perm(2_000)[:12], sisap.Footrule)
	queries := dataset.UniformVectors(rng, 64, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.KNNBudget(queries[i&63], 1, 100)
	}
}

// BenchmarkRecallCurve regenerates the distperm cost/quality curve and
// reports recall at a 5% budget as a custom metric (the search-performance
// side of the paper's storage/search trade-off).
func BenchmarkRecallCurve(b *testing.B) {
	cfg := experiments.Config{VectorN: 3_000, Seed: 1}
	var recall5 float64
	for i := 0; i < b.N; i++ {
		rc := experiments.RunRecallCurve(cfg, 4, 10, 20, sisap.Footrule)
		recall5 = rc.Recall[2] // n/20 budget
	}
	b.ReportMetric(recall5, "recall@5%")
}

// BenchmarkSiteSweep regenerates the §4 diminishing-returns sweep (bits and
// search quality vs number of sites).
func BenchmarkSiteSweep(b *testing.B) {
	cfg := experiments.Config{VectorN: 3_000, Seed: 1}
	for i := 0; i < b.N; i++ {
		experiments.RunSiteSweep(cfg, 4, []int{2, 4, 8, 16}, 10)
	}
}

// BenchmarkEngineThroughput measures batched 1-NN throughput of the public
// query engine (pkg/distperm) over the distance-permutation index as a
// batch's fan-out grows: the workers=W row runs at GOMAXPROCS = W, the width
// Search fans a batch out to. Each query is its own exact walk on a
// goroutine's replica, so the work parallelises across replicas, up to the
// cores there are.
func BenchmarkEngineThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	db, err := distperm.NewDB(distperm.L2, dataset.UniformVectors(rng, 4_000, 6))
	if err != nil {
		b.Fatal(err)
	}
	idx, err := distperm.Build(db, distperm.Spec{Index: "distperm", K: 12, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	queries := dataset.UniformVectors(rng, 256, 6)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			e, err := distperm.NewEngine(db, idx, 0)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			served := 0
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := e.KNNBatch(queries, 1); err != nil {
					b.Fatal(err)
				}
				served += len(queries)
			}
			b.ReportMetric(float64(served)/time.Since(start).Seconds(), "queries/s")
		})
	}
}

// BenchmarkShardedThroughput measures the sharded serving layer: one
// distance-permutation index per shard on one Engine, each query walking the
// shards in turn into one collector. The shards=S rows are batched 1-NN
// throughput as the shard count grows (4 000 uniform points): per-shard
// indexes are smaller (n/S points each), while every query pays each shard's
// fixed cost (its site distances, its bucket bounds). The single/callers=C
// rows are the lone query on the store shape of perflab's mixed-rw-sharded
// (50 000 clustered 6-d points, 4 round-robin shards, 12 sites, Footrule):
// single exact 10-NN queries from C closed-loop callers, in p50-µs and
// queries/s.
func BenchmarkShardedThroughput(b *testing.B) {
	b.Run("single", benchShardedSingle)
	rng := rand.New(rand.NewSource(9))
	db, err := distperm.NewDB(distperm.L2, dataset.UniformVectors(rng, 4_000, 6))
	if err != nil {
		b.Fatal(err)
	}
	queries := dataset.UniformVectors(rng, 256, 6)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sx, err := distperm.BuildSharded(db,
				distperm.Spec{Index: "distperm", K: 12, Seed: 9}, shards, distperm.RoundRobin{})
			if err != nil {
				b.Fatal(err)
			}
			se, err := distperm.NewEngine(db, sx, 0)
			if err != nil {
				b.Fatal(err)
			}
			defer se.Close()
			served := 0
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := se.KNNBatch(queries, 1); err != nil {
					b.Fatal(err)
				}
				served += len(queries)
			}
			b.ReportMetric(float64(served)/time.Since(start).Seconds(), "queries/s")
		})
	}
}

func benchShardedSingle(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	pts := dataset.ClusteredVectors(rng, 50_000, 6, 32, 0.05)
	db, err := distperm.NewDB(distperm.L2, pts)
	if err != nil {
		b.Fatal(err)
	}
	sx, err := distperm.BuildSharded(db,
		distperm.Spec{Index: "distperm", K: 12, PermDist: distperm.Footrule, Seed: 12}, 4, distperm.RoundRobin{})
	if err != nil {
		b.Fatal(err)
	}
	e, err := distperm.NewEngine(db, sx, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	queries := make([]distperm.Point, 256) // a data point plus N(0, 0.01) noise
	for i := range queries {
		v := slices.Clone(pts[rng.Intn(len(pts))].(distperm.Vector))
		for j := range v {
			v[j] += 0.01 * rng.NormFloat64()
		}
		queries[i] = v
	}
	// The first exact query of each shard sweeps its bounds and lays out its
	// bucket-major rows; that is set-up, not the query under test.
	if _, err := e.KNNBatch(queries[:1], 10); err != nil {
		b.Fatal(err)
	}
	knn := distperm.Query{K: 10}
	for _, callers := range []int{1, 2} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			closedLoop(b, callers, func(q distperm.Point) error {
				_, _, err := e.Search([]distperm.Point{q}, knn)
				return err
			}, queries)
		})
	}
}

// closedLoop shares b.N calls of fire, over queries in turn, among callers
// closed-loop goroutines (each sends its next call once its last returns)
// and reports queries/s and the median and 99th-percentile call's latency,
// p50-µs and p99-µs.
func closedLoop(b *testing.B, callers int, fire func(distperm.Point) error, queries []distperm.Point) {
	lat := make([]time.Duration, b.N)
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < b.N; i = int(next.Add(1)) - 1 {
				t0 := time.Now()
				if err := fire(queries[i%len(queries)]); err != nil {
					b.Error(err)
					return
				}
				lat[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "queries/s")
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)/2])/float64(time.Microsecond), "p50-µs")
	b.ReportMetric(float64(lat[len(lat)*99/100])/float64(time.Microsecond), "p99-µs")
}

// BenchmarkCoalescedServing measures the serving subsystem's admission gate
// (pkg/dpserver) against per-request submission: single exact 10-NN
// queries over n=20k clustered points (distperm, k=12) from 1, 2, 8 and 64
// closed-loop callers, either each as its own one-query Engine.Search
// (mode=per-request) or through the gate the server runs, GOMAXPROCS
// searches inside the engine at once and the rest queued in arrival order
// (mode=admitted). conc=1 and 2 are the idle path: the gate must cost next
// to nothing there (admitted ≈ per-request in queries/s and p50-µs). conc=8
// and 64 are the loaded path, where the trade shows: per-request callers
// all search at once and the unlucky ones starve (p99-µs),
// while admitted callers wait their turn — a higher p50-µs for a bounded
// p99-µs.
func BenchmarkCoalescedServing(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	db, err := distperm.NewDB(distperm.L2, dataset.ClusteredVectors(rng, 20_000, 6, 32, 0.02))
	if err != nil {
		b.Fatal(err)
	}
	idx, err := distperm.Build(db, distperm.Spec{Index: "distperm", K: 12, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	queries := dataset.UniformVectors(rng, 256, 6)
	knn := distperm.Query{K: 10}

	for _, conc := range []int{1, 2, 8, 64} {
		for _, mode := range []string{"per-request", "admitted"} {
			b.Run(fmt.Sprintf("conc=%d/mode=%s", conc, mode), func(b *testing.B) {
				e, err := distperm.NewEngine(db, idx, 0)
				if err != nil {
					b.Fatal(err)
				}
				defer e.Close()
				fire := func(q distperm.Point) error {
					_, _, err := e.Search([]distperm.Point{q}, knn)
					return err
				}
				if mode == "admitted" {
					gate := dpserver.NewCoalescer(e, 0, 0)
					fire = func(q distperm.Point) error {
						_, err := gate.KNN(q, knn.K)
						return err
					}
				}
				closedLoop(b, conc, fire, queries)
			})
		}
	}
}

// BenchmarkServeLoopback is perflab's cache-hot in process: two
// one-connection Go clients (pkg/dpserver/client) over 127.0.0.1 share b.N
// single 10-NN queries whose answers the server's result cache already
// holds (req=knn-hit) — the wire codec, net/http, the handler and the cache,
// no engine work — beside the floor net/http sets for the same clients
// (req=healthz). With -benchmem, allocs/op and B/op count both ends of the
// socket, as perflab's proc.allocs_per_query does.
func BenchmarkServeLoopback(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	db, err := distperm.NewDB(distperm.L2, dataset.UniformVectors(rng, 2_000, 6))
	if err != nil {
		b.Fatal(err)
	}
	idx, err := distperm.Build(db, distperm.Spec{Index: "distperm", K: 12, Seed: 19})
	if err != nil {
		b.Fatal(err)
	}
	e, err := distperm.NewEngine(db, idx, 0)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := dpserver.New(e, dpserver.Config{CacheSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	defer func() { cancel(); <-served }()
	clients := make([]*client.Client, 2)
	for i := range clients {
		clients[i] = client.New("http://" + ln.Addr().String())
		clients[i].HTTPClient = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		defer clients[i].HTTPClient.CloseIdleConnections()
	}
	queries := dataset.UniformVectors(rng, 256, 6)
	for _, q := range queries {
		if _, err := clients[0].KNN(ctx, q, 10); err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range []struct {
		name string
		call func(c *client.Client, i int) error
	}{
		{"req=knn-hit", func(c *client.Client, i int) error { _, err := c.KNN(ctx, queries[i&255], 10); return err }},
		{"req=healthz", func(c *client.Client, _ int) error { return c.Health(ctx) }},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			var next atomic.Int64
			var wg sync.WaitGroup
			for _, c := range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := int(next.Add(1)) - 1; i < b.N; i = int(next.Add(1)) - 1 {
						if err := row.call(c, i); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkMutableKNN measures the live-mutation read path: batched 1-NN
// through a MutableEngine as the pending delta grows. delta=0 is the
// pass-through cost of the snapshot's gid remap; larger deltas add the
// exact linear scan each query pays until the background rebuild folds the
// writes in — the knob -rebuild-threshold trades this per-query cost
// against rebuild churn.
func BenchmarkMutableKNN(b *testing.B) {
	for _, delta := range []int{0, 256} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			rng := rand.New(rand.NewSource(13))
			db, err := distperm.NewDB(distperm.L2, dataset.UniformVectors(rng, 2_000, 6))
			if err != nil {
				b.Fatal(err)
			}
			me, err := distperm.NewMutableEngine(db, distperm.MutableConfig{
				Spec: distperm.Spec{Index: "distperm", K: 12, Seed: 13},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer me.Close()
			for _, p := range dataset.UniformVectors(rng, delta, 6) {
				if _, err := me.Insert(p); err != nil {
					b.Fatal(err)
				}
			}
			queries := dataset.UniformVectors(rng, 64, 6)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := me.KNNBatch(queries[i&63:i&63+1], 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMutableKNNTombstones measures a mutated store's exact read path:
// single 10-NN queries through a 4-shard MutableEngine over 50k clustered
// points with 64 tombstones and 64 delta points pending, as between two
// rebuilds of the mixed read/write workload. Every shard's walk skips the
// tombstones and prunes at the 10th live distance; the delta points are
// offered to the merged answer.
func BenchmarkMutableKNNTombstones(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	pts := dataset.ClusteredVectors(rng, 50_000, 6, 32, 0.05)
	near := func() distperm.Point { // a stored point plus a little noise
		v := slices.Clone(pts[rng.Intn(len(pts))].(metric.Vector))
		for j := range v {
			v[j] += 0.01 * rng.NormFloat64()
		}
		return v
	}
	db, err := distperm.NewDB(distperm.L2, pts)
	if err != nil {
		b.Fatal(err)
	}
	me, err := distperm.NewMutableEngine(db, distperm.MutableConfig{
		Spec:   distperm.Spec{Index: "distperm", K: 12, Seed: 31},
		Shards: 4, Partitioner: distperm.RoundRobin{},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer me.Close()
	for _, id := range rng.Perm(db.N())[:64] {
		if err := me.Delete(id); err != nil {
			b.Fatal(err)
		}
	}
	for range 64 {
		if _, err := me.Insert(near()); err != nil {
			b.Fatal(err)
		}
	}
	queries := make([]distperm.Point, 64)
	for i := range queries {
		queries[i] = near()
	}
	q := distperm.Query{K: 10}
	if _, _, err := me.Search(queries[:1], q); err != nil { // the first query sweeps the bounds
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := me.Search(queries[i&63:i&63+1], q); err != nil {
			b.Fatal(err)
		}
	}
}

// scanOrderDB builds the ScanOrder/KNNBudget benchmark workloads at a
// representative serving size (n=20k, k=12). data=uniform is the
// permutation-rich case; data=clustered (32 tight clusters) is the paper's
// distinct ≪ n regime, where the table-encoded scan computes each
// permutation distance once per distinct permutation instead of once per
// point and the win is largest.
func scanOrderDB(b *testing.B, clustered bool) (*sisap.PermIndex, []metric.Point) {
	rng := rand.New(rand.NewSource(15))
	var pts []metric.Point
	if clustered {
		pts = dataset.ClusteredVectors(rng, 20_000, 6, 32, 0.02)
	} else {
		pts = dataset.UniformVectors(rng, 20_000, 6)
	}
	db := sisap.NewDB(metric.L2{}, pts)
	idx := sisap.NewPermIndex(db, rng.Perm(db.N())[:12], sisap.Footrule)
	queries := dataset.UniformVectors(rng, 64, 6)
	b.Logf("distinct permutations: %d of %d points", idx.DistinctPermutations(), db.N())
	return idx, queries
}

// BenchmarkScanOrder measures the full candidate-ordering pass — the heart
// of every PermIndex query: query permutation, per-distinct distance
// kernel, key scatter, counting sort.
func BenchmarkScanOrder(b *testing.B) {
	for _, data := range []string{"uniform", "clustered"} {
		b.Run("data="+data, func(b *testing.B) {
			idx, queries := scanOrderDB(b, data == "clustered")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx.ScanOrder(queries[i&63])
			}
		})
	}
}

// BenchmarkKNNBudget measures the budgeted kNN at a 5% scan budget, the
// index's intended operating point: the partial counting sort orders only
// the first maxEvals candidates instead of the whole database.
func BenchmarkKNNBudget(b *testing.B) {
	for _, data := range []string{"uniform", "clustered"} {
		b.Run("data="+data, func(b *testing.B) {
			idx, queries := scanOrderDB(b, data == "clustered")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx.KNNBudget(queries[i&63], 1, 1_000)
			}
		})
	}
}

// BenchmarkInstrumentedKNN prices the observability layer on the shape
// Engine.serve really runs: an 8-query sub-batch walked query by query, each
// query timed and Observed in the latency histogram on its own, either into a
// nil histogram (instrumentation compiled in, metrics disabled: noop) or into
// a registered one (observed). The two are timed in pairs, not as two
// benchmarks one after the other: each iteration is one round of four
// batches, noop, observed, observed, noop, so that the box's drift and the
// second batch's warmer caches fall on both modes alike, and observed/noop is
// the median over the rounds of the round's observed ÷ noop time.
func BenchmarkInstrumentedKNN(b *testing.B) {
	b.Run("shape=knnbatch8", func(b *testing.B) {
		idx, queries := scanOrderDB(b, false)
		qs := queries[:8]
		observed := obs.NewRegistry().Histogram("bench_knn_seconds", "bench", obs.DefLatencyBuckets, nil)
		batch := func(h *obs.Histogram) time.Duration {
			start := time.Now()
			for _, q := range qs {
				qStart := time.Now()
				idx.KNN(q, 1)
				h.Observe(time.Since(qStart).Seconds())
			}
			return time.Since(start)
		}
		batch(nil) // the store's first query computes its bounds: set-up
		ratios := make([]float64, b.N)
		b.ResetTimer()
		for i := range ratios {
			noop := batch(nil)
			on := batch(observed)
			on += batch(observed)
			noop += batch(nil)
			ratios[i] = float64(on) / float64(noop)
		}
		b.StopTimer()
		slices.Sort(ratios)
		b.ReportMetric(ratios[len(ratios)/2], "observed/noop")
	})
}

// openContainer holds the one-time n=200k build behind
// BenchmarkOpenContainer: one distance-permutation index written as both a
// compact (bit-packed stream) container and a frozen (sectioned, mmap-ready)
// container. Shared across sub-benchmarks so the build and the two writes
// happen once per test process.
var openContainer struct {
	once    sync.Once
	db      *distperm.DB
	compact string
	frozen  string
	err     error
}

func openContainerFiles(b *testing.B) (*distperm.DB, string, string) {
	b.Helper()
	oc := &openContainer
	oc.once.Do(func() {
		rng := rand.New(rand.NewSource(17))
		oc.db, oc.err = distperm.NewDB(distperm.L2, dataset.UniformVectors(rng, 200_000, 6))
		if oc.err != nil {
			return
		}
		var idx distperm.Index
		if idx, oc.err = distperm.Build(oc.db,
			distperm.Spec{Index: "distperm", K: 12, Seed: 17}); oc.err != nil {
			return
		}
		dir, err := os.MkdirTemp("", "distperm-bench")
		if err != nil {
			oc.err = err
			return
		}
		oc.compact = filepath.Join(dir, "index.dpx")
		oc.frozen = filepath.Join(dir, "index.frozen")
		write := func(path string, w func(io.Writer) error) {
			if oc.err != nil {
				return
			}
			f, err := os.Create(path)
			if err != nil {
				oc.err = err
				return
			}
			oc.err = w(f)
			if cerr := f.Close(); oc.err == nil {
				oc.err = cerr
			}
		}
		write(oc.compact, func(w io.Writer) error { _, err := distperm.WriteIndex(w, idx); return err })
		write(oc.frozen, func(w io.Writer) error {
			_, err := distperm.WriteFrozenIndex(w, idx.(*distperm.PermIndex))
			return err
		})
	})
	if oc.err != nil {
		b.Fatal(oc.err)
	}
	return oc.db, oc.compact, oc.frozen
}

// BenchmarkOpenContainer measures cold-open cost at serving scale (n=200k,
// k=12): mode=stream decodes the compact container — the restart cost every
// daemon paid before the frozen format — while mode=mmap maps the frozen
// container, verifies section checksums, and hands out views without
// copying. The gap is the daemon's O(index) → O(1) restart win; the
// open-and-queryable contract is kept honest by one budgeted kNN per open
// (a full scan would bury the open cost under 200k metric evaluations).
// mode=mmap-selfcontained supplies no database — the open a restarted daemon
// (and perflab's approx-mmap set-up) pays: on top of the checksum pass it
// notes which row holds each point, n uint32s, and boxes no point.
// mode=mmap-selfcontained/first=knn is that open through its first exact
// 10-NN answer: the walk over the cells and bounds the file carries (PFR4),
// with nothing swept or copied.
func BenchmarkOpenContainer(b *testing.B) {
	db, compact, frozen := openContainerFiles(b)
	q := db.Points[0]
	open := func(b *testing.B, path string, opts distperm.LoadOptions, exact bool) {
		for i := 0; i < b.N; i++ {
			st, err := distperm.Load(path, opts)
			if err != nil {
				b.Fatal(err)
			}
			px := st.Index.(*distperm.PermIndex)
			rs, _ := px.KNNBudget(q, 1, 64)
			if exact {
				rs, _ = px.KNN(q, 10)
			}
			if rs[0].ID != 0 {
				b.Fatalf("self-query answered %v", rs)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("mode=stream", func(b *testing.B) { open(b, compact, distperm.LoadOptions{DB: db}, false) })
	b.Run("mode=mmap", func(b *testing.B) { open(b, frozen, distperm.LoadOptions{Mmap: true, DB: db}, false) })
	b.Run("mode=mmap-selfcontained", func(b *testing.B) { open(b, frozen, distperm.LoadOptions{Mmap: true}, false) })
	b.Run("mode=mmap-selfcontained/first=knn", func(b *testing.B) { open(b, frozen, distperm.LoadOptions{Mmap: true}, true) })
}

// approxBench holds the one-time n=200k builds behind BenchmarkApproxKNN:
// one distance-permutation index per data shape plus the exact top-10
// answers for a shared query set, so each sub-benchmark can report its
// measured recall@10 next to its throughput. Shared across sub-benchmarks so
// the builds and the truth scans happen once per test process.
var approxBench struct {
	once    sync.Once
	db      map[string]*sisap.DB
	idx     map[string]*sisap.PermIndex
	truth   map[string][][]sisap.Result
	queries map[string][]metric.Point
}

func approxBenchIndex(b *testing.B, data string) (*sisap.PermIndex, []metric.Point, [][]sisap.Result) {
	b.Helper()
	ab := &approxBench
	ab.once.Do(func() {
		rng := rand.New(rand.NewSource(19))
		ab.db = make(map[string]*sisap.DB)
		ab.idx = make(map[string]*sisap.PermIndex)
		ab.truth = make(map[string][][]sisap.Result)
		ab.queries = make(map[string][]metric.Point)
		for _, name := range []string{"uniform", "clustered"} {
			var pts []metric.Point
			if name == "clustered" {
				pts = dataset.ClusteredVectors(rng, 200_000, 6, 32, 0.05)
			} else {
				pts = dataset.UniformVectors(rng, 200_000, 6)
			}
			db := sisap.NewDB(metric.L2{}, pts)
			idx := sisap.NewPermIndex(db, rng.Perm(db.N())[:12], sisap.Footrule)
			// Queries follow the data distribution — perturbed database
			// points, the workload shape a kNN serving index actually sees.
			queries := make([]metric.Point, 64)
			for i := range queries {
				base := pts[rng.Intn(len(pts))].(metric.Vector)
				q := make(metric.Vector, len(base))
				for j, v := range base {
					q[j] = v + 0.01*rng.NormFloat64()
				}
				queries[i] = q
			}
			truth := make([][]sisap.Result, len(queries))
			for i, q := range queries {
				truth[i], _ = idx.KNN(q, 10)
			}
			ab.db[name] = db
			ab.idx[name] = idx
			ab.truth[name] = truth
			ab.queries[name] = queries
		}
	})
	return ab.idx[data], ab.queries[data], ab.truth[data]
}

// BenchmarkApproxKNN measures the prefix-bucket approximate 10-NN path at
// serving scale (n=200k, k=12 sites), sweeping nprobe on uniform
// (permutation-rich) and clustered (distinct ≪ n) data. Each approximate
// sub-benchmark reports the recall@10 of its operating point as a custom
// metric. Two baselines sit beside the sweep: nprobe=exact is the index's
// own exact search (the pruned bucket walk since PR 18, over contiguous
// buckets since PR 20; on uniform data it is the watch for a walk that
// prunes little) and linear is the LinearScan oracle over the same
// database — the honest floor for "measure every point". Every row but linear
// also reports evals/op, the mean DistanceEvals of the 64 queries (k sites
// plus the points measured: a probe measures only the cells of its buckets
// that its bounds do not exclude), and so do the clustered index's rows over
// its frozen (PFR4) file mapped with no database, which walks the heap
// store's cells under its bounds: their evals/op equal the heap rows'.
func BenchmarkApproxKNN(b *testing.B) {
	evals := func(b *testing.B, walk func(i int) sisap.Stats) {
		b.StopTimer()
		sum := 0
		for i := range 64 {
			sum += walk(i).DistanceEvals
		}
		b.ReportMetric(float64(sum)/64, "evals/op")
	}
	for _, data := range []string{"uniform", "clustered"} {
		b.Run("data="+data+"/linear", func(b *testing.B) {
			_, queries, _ := approxBenchIndex(b, data)
			scan := sisap.NewLinearScan(approxBench.db[data])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scan.KNN(queries[i&63], 10)
			}
			b.ReportMetric(1, "recall@10")
		})
		b.Run("data="+data+"/nprobe=exact", func(b *testing.B) {
			idx, queries, _ := approxBenchIndex(b, data)
			knn := func(i int) sisap.Stats { _, st := idx.KNN(queries[i&63], 10); return st }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				knn(i)
			}
			b.ReportMetric(1, "recall@10")
			evals(b, knn)
		})
		for _, nprobe := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("data=%s/nprobe=%d", data, nprobe), func(b *testing.B) {
				idx, queries, truth := approxBenchIndex(b, data)
				recall := 0.0
				for qi, q := range queries {
					got, _ := idx.KNNApprox(q, 10, nprobe)
					hit := 0
					for _, r := range got {
						for _, w := range truth[qi] {
							if r.ID == w.ID {
								hit++
								break
							}
						}
					}
					recall += float64(hit) / float64(len(truth[qi]))
				}
				probe := func(i int) sisap.Stats { _, st := idx.KNNApprox(queries[i&63], 10, nprobe); return st.Stats }
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					probe(i)
				}
				b.ReportMetric(recall/float64(len(queries)), "recall@10")
				evals(b, probe)
			})
		}
	}
	// The clustered index again, frozen and opened from the mapping with no
	// database: its buckets are runs of the file's own points section.
	idx, queries, _ := approxBenchIndex(b, "clustered")
	path := filepath.Join(b.TempDir(), "clustered.frozen")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sisap.WriteFrozen(f, idx); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	m, err := sisap.OpenMapped(path, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	b.Run("data=clustered/origin=mmap/nprobe=exact", func(b *testing.B) {
		knn := func(i int) sisap.Stats { _, st := m.Index().KNN(queries[i&63], 10); return st }
		for i := 0; i < b.N; i++ {
			knn(i)
		}
		evals(b, knn)
	})
	b.Run("data=clustered/origin=mmap/nprobe=4", func(b *testing.B) {
		probe := func(i int) sisap.Stats { _, st := m.Index().KNNApprox(queries[i&63], 10, 4); return st.Stats }
		for i := 0; i < b.N; i++ {
			probe(i)
		}
		evals(b, probe)
	})
}

// BenchmarkKNNExhaustive pins what the index earns on exact search at
// serving scale (n=200k clustered, the BenchmarkApproxKNN build): the
// index's exact 10-NN, which walks prefix buckets, and the cells inside the
// buckets that survive, under their site-distance bounds and measures only
// the cells that can still hold an answer (≈ 4 % of the points here, each
// cell one contiguous run); the LinearScan oracle; a range query at the
// radius of that 10-NN answer, which rides the same walk with a fixed limit;
// and the per-query cost of a 32-query KNNBatch, which is that walk once per
// query; then the walk, the range query at each query's true 10th distance
// and the scan again on a uniform store at perflab's S2 shape (uniform/knn,
// uniform/range, uniform/linear). All are exact. knn must sit well under
// linear on this data: a knn ≈ linear reading means the bounds stopped
// pruning (or the store stopped qualifying for them). knnbatch/query should
// track knn; a reading near linear means a batch stopped pruning. knn, range,
// uniform/knn and uniform/range also report evals/op, the mean DistanceEvals
// of the 64 queries: a count, so it repeats exactly and records the points
// the walk measures.
func BenchmarkKNNExhaustive(b *testing.B) {
	idx, queries, truth := approxBenchIndex(b, "clustered")
	scan := sisap.NewLinearScan(approxBench.db["clustered"])
	evals := func(b *testing.B, walk func(i int) sisap.Stats) {
		b.StopTimer()
		sum := 0
		for i := range 64 {
			sum += walk(i).DistanceEvals
		}
		b.ReportMetric(float64(sum)/64, "evals/op")
	}
	b.Run("knn", func(b *testing.B) {
		knn := func(i int) sisap.Stats { _, st := idx.KNN(queries[i&63], 10); return st }
		for i := 0; i < b.N; i++ {
			knn(i)
		}
		evals(b, knn)
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scan.KNN(queries[i&63], 10)
		}
	})
	b.Run("range", func(b *testing.B) {
		within := func(i int) sisap.Stats { _, st := idx.Range(queries[i&63], truth[i&63][9].Distance); return st }
		for i := 0; i < b.N; i++ {
			within(i)
		}
		evals(b, within)
	})
	b.Run("knnbatch/query", func(b *testing.B) {
		for i := 0; i < b.N; i += 32 {
			idx.KNNBatch(queries[i&32:i&32+32], 10)
		}
	})
	b.Run("uniform/knn", func(b *testing.B) {
		_, uidx, uqueries, _ := s2BenchIndex("uniform")
		b.ResetTimer()
		knn := func(i int) sisap.Stats { _, st := uidx.KNN(uqueries[i&63], 10); return st }
		for i := 0; i < b.N; i++ {
			knn(i)
		}
		evals(b, knn)
	})
	b.Run("uniform/range", func(b *testing.B) {
		_, uidx, uqueries, tenth := s2BenchIndex("uniform")
		b.ResetTimer()
		within := func(i int) sisap.Stats { _, st := uidx.Range(uqueries[i&63], tenth[i&63]); return st }
		for i := 0; i < b.N; i++ {
			within(i)
		}
		evals(b, within)
	})
	b.Run("uniform/linear", func(b *testing.B) {
		db, _, uqueries, _ := s2BenchIndex("uniform")
		uscan := sisap.NewLinearScan(db)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			uscan.KNN(uqueries[i&63], 10)
		}
	})
	for _, store := range []string{"uniform-l1", "uniform-linf"} {
		b.Run(store+"/knn", func(b *testing.B) {
			_, uidx, uqueries, _ := s2BenchIndex(store)
			b.ResetTimer()
			knn := func(i int) sisap.Stats { _, st := uidx.KNN(uqueries[i&63], 10); return st }
			for i := 0; i < b.N; i++ {
				knn(i)
			}
			evals(b, knn)
		})
	}
}

// s2Bench is perflab's S2 store (batch64-uniform): n=50k uniform 6-d points,
// 12 sites, uniform queries and each one's true 10th distance — the store
// where the bisector term of each bucket's prefix, not its site ranges, does
// most of the pruning — under L2 ("uniform"), and the same points, sites and
// queries under L1 and L∞, which have no bisector term and walk from their
// buckets. Each is built on first use, so a run that selects none of
// BenchmarkKNNExhaustive's uniform* sub-benchmarks does not pay for it.
var s2Bench = map[string]*s2Store{"uniform": {m: metric.L2{}}, "uniform-l1": {m: metric.L1{}}, "uniform-linf": {m: metric.LInf{}}}

type s2Store struct {
	once    sync.Once
	m       metric.Metric
	db      *sisap.DB
	idx     *sisap.PermIndex
	queries []metric.Point
	tenth   []float64
}

func s2BenchIndex(store string) (*sisap.DB, *sisap.PermIndex, []metric.Point, []float64) {
	s := s2Bench[store]
	s.once.Do(func() {
		rng := rand.New(rand.NewSource(44))
		s.db = sisap.NewDB(s.m, dataset.UniformVectors(rng, 50_000, 6))
		s.idx, s.queries = sisap.NewPermIndex(s.db, rng.Perm(s.db.N())[:12], sisap.Footrule), dataset.UniformVectors(rng, 64, 6)
		s.idx.KNN(s.queries[0], 10) // the rows and bounds are set-up, not the query under test
		scan := sisap.NewLinearScan(s.db)
		for _, q := range s.queries {
			rs, _ := scan.KNN(q, 10)
			s.tenth = append(s.tenth, rs[9].Distance)
		}
	})
	return s.db, s.idx, s.queries, s.tenth
}

// BenchmarkPermIndexBuild measures what a store pays before it answers an
// exact query, at perflab's S1 shape (n=200k clustered, d=6, 12 sites):
// stage=build is the construction alone (k·n site distances, one packed pass
// per point, spread over GOMAXPROCS workers, and the row dedup); stage=ready
// is the build plus the first exact 10-NN, which lays out the bucket-major
// rows and sweeps their bounds — what every boot and every mutable rebuild
// pays.
func BenchmarkPermIndexBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	db := sisap.NewDB(metric.L2{}, dataset.ClusteredVectors(rng, 200_000, 6, 32, 0.05))
	siteIDs := rng.Perm(db.N())[:12]
	q := dataset.ClusteredVectors(rng, 1, 6, 32, 0.05)[0]
	b.Run("stage=build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sisap.NewPermIndex(db, siteIDs, sisap.Footrule)
		}
	})
	b.Run("stage=ready", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sisap.NewPermIndex(db, siteIDs, sisap.Footrule).KNN(q, 10)
		}
	})
}

// BenchmarkAblationPermDistance compares the three candidate-ordering
// permutation distances (the DESIGN.md ablation).
func BenchmarkAblationPermDistance(b *testing.B) {
	for _, d := range []sisap.PermDistance{sisap.Footrule, sisap.KendallTau, sisap.SpearmanRho} {
		d := d
		b.Run(d.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			db := sisap.NewDB(metric.L2{}, dataset.UniformVectors(rng, 1_000, 5))
			idx := sisap.NewPermIndex(db, rng.Perm(1_000)[:10], d)
			queries := dataset.UniformVectors(rng, 32, 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx.ScanOrder(queries[i&31])
			}
		})
	}
}

// BenchmarkWALAppend prices durability: one insert record appended to the
// write-ahead log under each sync policy. always pays an fsync inside
// every acknowledged write (the crash-safe default), interval amortises
// the fsync over a background timer, never leaves persistence to the OS
// page cache — the measured gap is exactly what -wal-sync trades away.
func BenchmarkWALAppend(b *testing.B) {
	for _, sync := range []distperm.SyncPolicy{distperm.SyncAlways, distperm.SyncInterval, distperm.SyncNever} {
		b.Run("sync="+sync.String(), func(b *testing.B) {
			w, err := distperm.OpenWAL(b.TempDir(), distperm.WALOptions{Sync: sync})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			p := distperm.Vector{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Append(distperm.WALRecord{Op: distperm.WALInsert, GID: i, Point: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
