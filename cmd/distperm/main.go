// Command distperm counts the distinct distance permutations of a dataset,
// the measurement at the heart of the paper's experiments. It mirrors the
// author's SISAP-library "build-distperm-*" programs: it can emit the raw
// permutations in ASCII (one per line, 1-based, the format those programs
// wrote for `sort | uniq | wc` pipelines) or just the count, against either
// a generated dataset or vectors read from a file.
//
// Usage:
//
//	distperm -gen uniform -d 4 -n 100000 -metric L2 -k 8
//	distperm -gen english -n 5000 -k 6 -emit      # print permutations
//	distperm -file points.txt -metric L1 -k 5     # whitespace-separated vectors
//	distperm -gen uniform -d 3 -n 100000 -metric L1 -k 5 -bounds
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"distperm/internal/core"
	"distperm/internal/counting"
	"distperm/internal/dataset"
	"distperm/internal/metric"
	"distperm/internal/perm"
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
	)
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	ds, err := dataset.Load(rng, *gen, *file, *n, *d)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *k < 1 || *k > ds.N() {
		fmt.Fprintf(os.Stderr, "-k %d: need 1 ≤ k ≤ n = %d\n", *k, ds.N())
		os.Exit(2)
	}
	if *mname != "" {
		m, err := metric.ByName(*mname)
		if err == nil {
			// e.g. -metric edit over a vector dataset: a clean error here,
			// not a panic inside the counter.
			err = metric.Probe(m, ds.Points[0])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		ds.Metric = m
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
