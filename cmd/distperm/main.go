// Command distperm counts the distinct distance permutations of a dataset,
// the measurement at the heart of the paper's experiments. It mirrors the
// author's SISAP-library "build-distperm-*" programs: it can emit the raw
// permutations in ASCII (one per line, 1-based, the format those programs
// wrote for `sort | uniq | wc` pipelines) or just the count, against either
// a generated dataset or vectors read from a file.
//
// With -serve it instead runs the public query-engine layer (pkg/distperm):
// it builds the requested index over the dataset and answers a batch of kNN
// queries on a goroutine worker pool, reporting throughput and the
// engine-level cost counters (distance evaluations, latency percentiles).
// With -shards S (S > 1) the database is partitioned (any built-in
// -partition strategy) and served scatter-gather, one worker pool per
// shard, reporting per-shard and aggregate stats. Serving over HTTP is
// distpermd's job (cmd/distpermd).
//
// Usage:
//
//	distperm -gen uniform -d 4 -n 100000 -metric L2 -k 8
//	distperm -gen english -n 5000 -k 6 -emit      # print permutations
//	distperm -file points.txt -metric L1 -k 5     # whitespace-separated vectors
//	distperm -gen uniform -d 3 -n 100000 -metric L1 -k 5 -bounds
//	distperm -serve -gen uniform -d 6 -n 20000 -k 12 -index distperm -queries 5000 -workers 8
//	distperm -serve -gen uniform -d 6 -n 20000 -k 12 -queries 5000 -shards 4 -partition hash
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	"distperm/internal/core"
	"distperm/internal/counting"
	"distperm/internal/dataset"
	"distperm/internal/metric"
	"distperm/internal/perm"
	"distperm/pkg/distperm"
)

func main() {
	var (
		gen    = flag.String("gen", "uniform", "generator: uniform, gauss, clustered, dutch, english, french, german, italian, norwegian, spanish, listeria, long, short, colors, nasa")
		file   = flag.String("file", "", "read whitespace-separated vectors from a file instead of generating")
		n      = flag.Int("n", 100_000, "points to generate")
		d      = flag.Int("d", 4, "dimensions (vector generators)")
		k      = flag.Int("k", 8, "number of sites")
		mname  = flag.String("metric", "", "override metric: L1, L2, Linf, edit, prefix, angular (generators pick a default)")
		seed   = flag.Int64("seed", 1, "random seed")
		emit   = flag.Bool("emit", false, "write every point's permutation to stdout (1-based)")
		bounds = flag.Bool("bounds", false, "also print the applicable theoretical bounds")

		serve     = flag.Bool("serve", false, "batch-query mode: build an index and serve kNN traffic on a worker pool")
		index     = flag.String("index", "distperm", "index kind for -serve: "+strings.Join(distperm.Kinds(), ", "))
		queries   = flag.Int("queries", 1_000, "queries to serve in -serve mode")
		knn       = flag.Int("knn", 1, "neighbours per query in -serve mode")
		workers   = flag.Int("workers", 0, "worker goroutines per shard in -serve mode (0 = NumCPU)")
		shards    = flag.Int("shards", 1, "partition the database across this many scatter-gather shards in -serve mode")
		partition = flag.String("partition", "roundrobin", "shard placement strategy for -shards > 1: "+strings.Join(distperm.Partitioners(), ", "))
	)
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	ds, err := dataset.Load(rng, *gen, *file, *n, *d)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *mname != "" {
		m, err := metric.ByName(*mname)
		if err == nil {
			// e.g. -metric edit over a vector dataset: a clean error here,
			// not a panic inside the counter or an engine worker.
			err = metric.Probe(m, ds.Points[0])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		ds.Metric = m
	}

	if *serve {
		cfg := serveConfig{
			Index: *index, K: *k, KNN: *knn,
			Queries: *queries, Workers: *workers,
			Shards: *shards, Partition: *partition,
		}
		if err := runServe(os.Stdout, ds, rng, cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}

	sites := ds.ChooseSites(rng, *k)
	if *emit {
		w := bufio.NewWriter(os.Stdout)
		defer w.Flush()
		pm := core.NewPermuter(ds.Metric, sites)
		buf := make(perm.Permutation, *k)
		for _, pt := range ds.Points {
			pm.PermutationInto(pt, buf)
			fmt.Fprintln(w, buf.String())
		}
		return
	}

	count := core.CountDistinct(ds.Metric, sites, ds.Points)
	fmt.Printf("%s: n=%d metric=%s k=%d distinct permutations=%d (k!=%s)\n",
		ds.Name, ds.N(), ds.Metric.Name(), *k, count, counting.Factorial(*k))
	if *bounds {
		fmt.Printf("  Euclidean max N(%d,%d) = %s\n", *d, *k, counting.EuclideanCount(*d, *k))
		fmt.Printf("  tree-metric bound C(k,2)+1 = %s\n", counting.TreeBound(*k))
		if *d <= 6 {
			fmt.Printf("  Theorem 9 L1 bound = %s\n", counting.L1Bound(*d, *k))
			fmt.Printf("  Theorem 9 Linf bound = %s\n", counting.LInfBound(*d, *k))
		}
	}
}

// serveConfig collects the -serve mode parameters.
type serveConfig struct {
	Index     string
	K         int
	KNN       int
	Queries   int
	Workers   int
	Shards    int
	Partition string
}

// runServe builds the requested index through the public Build entry point and
// serves a batch of kNN queries (sampled from the dataset) on the engine's
// worker pool, printing throughput and cost counters to w. With Shards > 1
// the database is partitioned and served scatter-gather — workers per shard
// — and both per-shard and aggregate stats are reported.
func runServe(w io.Writer, ds *dataset.Dataset, rng *rand.Rand, cfg serveConfig) error {
	db, err := distperm.NewDB(ds.Metric, ds.Points)
	if err != nil {
		return err
	}
	spec := distperm.Spec{Index: cfg.Index, K: cfg.K, Seed: rng.Int63()}
	var p distperm.Partitioner
	if cfg.Shards > 1 {
		if p, err = distperm.PartitionerByName(cfg.Partition); err != nil {
			return err
		}
	}
	var idx distperm.Index
	var sx *distperm.ShardedIndex // non-nil iff sharded
	buildStart := time.Now()
	if p != nil {
		sx, err = distperm.BuildSharded(db, spec, cfg.Shards, p)
		idx = sx
	} else {
		idx, err = distperm.Build(db, spec)
	}
	if err != nil {
		return err
	}
	buildTime := time.Since(buildStart)

	e, err := distperm.NewEngine(db, idx, cfg.Workers)
	if err != nil {
		return err
	}
	defer e.Close()

	start := time.Now()
	if _, err := e.KNNBatch(ds.Sample(rng, cfg.Queries), cfg.KNN); err != nil {
		return err
	}
	elapsed := time.Since(start)
	st := e.Stats()

	if sx == nil {
		fmt.Fprintf(w, "%s: n=%d metric=%s index=%s (%d bits), built in %v\n",
			ds.Name, ds.N(), ds.Metric.Name(), idx.Name(), idx.IndexBits(), buildTime.Round(time.Millisecond))
		fmt.Fprintf(w, "served %d %d-NN queries on %d workers in %v (%.0f queries/s)\n",
			st.Queries, cfg.KNN, e.Workers(), elapsed.Round(time.Millisecond),
			float64(st.Queries)/elapsed.Seconds())
		fmt.Fprintf(w, "distance evals: %d total, %.1f mean/query; latency p50 %v, p99 %v\n",
			st.DistanceEvals, st.MeanEvals, st.P50, st.P99)
		return nil
	}
	fmt.Fprintf(w, "%s: n=%d metric=%s index=%s[%s×%d] (%d bits), %s partition, built in %v\n",
		ds.Name, ds.N(), ds.Metric.Name(), sx.Name(), cfg.Index, sx.NumShards(),
		sx.IndexBits(), p.Name(), buildTime.Round(time.Millisecond))
	fmt.Fprintf(w, "served %d %d-NN queries on %d shards × %d workers in %v (%.0f queries/s)\n",
		cfg.Queries, cfg.KNN, e.Shards(), e.Workers()/e.Shards(),
		elapsed.Round(time.Millisecond), float64(cfg.Queries)/elapsed.Seconds())
	for s, sst := range e.ShardStats() {
		fmt.Fprintf(w, "  shard %d: n=%d, %d sub-queries, %d evals (%.1f mean), p50 %v, p99 %v\n",
			s, sx.ShardDB(s).N(), sst.Queries, sst.DistanceEvals, sst.MeanEvals, sst.P50, sst.P99)
	}
	fmt.Fprintf(w, "aggregate: distance evals %d total, %.1f mean/sub-query; latency p50 %v, p99 %v\n",
		st.DistanceEvals, st.MeanEvals, st.P50, st.P99)
	return nil
}
