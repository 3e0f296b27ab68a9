// Search comparison: the storage-vs-search trade-off the paper's counting
// results quantify, served through the public engine layer. Builds the whole
// index family over one database via the pkg/distperm Build registry, then
// answers the same 1-NN batch on each index through a concurrent Engine —
// checking every answer against the linear-scan ground truth — and reports,
// per index, the storage bits and the engine's mean distance evaluations per
// query. For the distance-permutation index it also reports how far down the
// permutation-ordered scan the true nearest neighbour sits. Finally the same
// database is partitioned across shards and served scatter-gather by the
// same Engine, to show answers stay identical while per-shard cost counters
// sum to the aggregate.
package main

import (
	"fmt"
	"math/rand"

	"distperm/internal/dataset"
	"distperm/pkg/distperm"
)

const (
	n       = 4_000
	dims    = 6
	kSites  = 12
	queries = 50
	seed    = 3
	shards  = 4
)

func main() {
	rng := rand.New(rand.NewSource(seed))
	points := dataset.UniformVectors(rng, n, dims)
	db, err := distperm.NewDB(distperm.L2, points)
	if err != nil {
		panic(err)
	}
	queryPts := dataset.UniformVectors(rng, queries, dims)

	kinds := []string{"linear", "aesa", "laesa", "distperm", "vptree", "ghtree"}
	var truth [][]distperm.Result
	var permIdx *distperm.PermIndex

	fmt.Printf("database: n=%d, %d-dim uniform, L2; %d 1-NN queries; k=%d pivots/sites\n\n",
		n, dims, queries, kSites)
	fmt.Printf("%-10s %14s %18s\n", "index", "bits", "avg dist evals")
	for _, kind := range kinds {
		idx, err := distperm.Build(db, distperm.Spec{Index: kind, K: kSites, Seed: seed})
		if err != nil {
			panic(err)
		}
		if p, ok := idx.(*distperm.PermIndex); ok {
			permIdx = p
		}
		engine, got := serve(db, idx, queryPts, truth)
		if truth == nil {
			truth = got // linear scan defines the correct answers
		}
		fmt.Printf("%-10s %14d %18.1f\n", idx.Name(), idx.IndexBits(), engine.Stats().MeanEvals)
		engine.Close()
	}

	// The distperm index's exact KNN scans everything; its real value is
	// the quality of its candidate ordering and its tiny footprint.
	totalRank := 0
	for _, q := range queryPts {
		rank, _ := permIdx.EvalsToFindTrueKNN(q, 1)
		totalRank += rank
	}
	fmt.Printf("\ndistperm candidate ordering: true NN found after %.1f of %d points on average (%.2f%%)\n",
		float64(totalRank)/queries, n, 100*float64(totalRank)/queries/n)
	fmt.Printf("distperm distinct permutations stored: %d of %d points (k! = 479001600)\n",
		permIdx.DistinctPermutations(), n)
	fmt.Printf("distperm bits: naive %d, shared-table %d — the table wins once n grows\n",
		permIdx.NaiveIndexBits(), permIdx.TableIndexBits())
	fmt.Printf("               relative to the number of realisable permutations (paper §4).\n")

	// Scatter-gather sharding: the same database partitioned across shards,
	// every shard a segment of the one engine's view. Answers must stay
	// byte-identical to the unpartitioned ground truth, and the per-shard
	// distance-evaluation counters sum exactly to the aggregate — the paper's
	// cost model composes additively across shards.
	sx, err := distperm.BuildSharded(db,
		distperm.Spec{Index: "distperm", K: kSites, Seed: seed}, shards, distperm.RoundRobin{})
	if err != nil {
		panic(err)
	}
	se, _ := serve(db, sx, queryPts, truth)
	defer se.Close()
	fmt.Printf("\nsharded serving (%d shards, roundrobin): all %d answers identical\n",
		se.Shards(), queries)
	var sum int64
	for s, st := range se.ShardStats() {
		fmt.Printf("  shard %d: n=%d, %d evals\n", s, sx.ShardDB(s).N(), st.DistanceEvals)
		sum += st.DistanceEvals
	}
	agg := se.Stats()
	fmt.Printf("  aggregate: %d evals (per-shard sum %d — exact)\n", agg.DistanceEvals, sum)
}

// serve answers the 1-NN batch on an Engine over idx and panics if any answer disagrees with truth — nil for
// the first index, whose answers define it. The caller closes the engine.
func serve(db *distperm.DB, idx distperm.Index, qs []distperm.Point, truth [][]distperm.Result) (*distperm.Engine, [][]distperm.Result) {
	engine, err := distperm.NewEngine(db, idx, 0)
	if err != nil {
		panic(err)
	}
	got, err := engine.KNNBatch(qs, 1)
	if err != nil {
		panic(err)
	}
	for i := range truth {
		if got[i][0].ID != truth[i][0].ID {
			panic(fmt.Sprintf("%s: wrong 1-NN (%d vs %d)", idx.Name(), got[i][0].ID, truth[i][0].ID))
		}
	}
	return engine, got
}
