package sisap

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"distperm/internal/dataset"
	"distperm/internal/metric"
)

// concurrentAnswers runs every query operation x offers over qs, starting at
// qs[first], and renders each answer with its Stats: %v prints a float64 in
// the shortest form that reads back to the same bits, so equal strings are
// bit-identical answers.
func concurrentAnswers(x Index, qs []metric.Point, first, k int) []string {
	var out []string
	add := func(op string, v ...any) { out = append(out, op+fmt.Sprint(v...)) }
	for j := range qs {
		i := (first + j) % len(qs)
		q := qs[i]
		rs, st := x.KNN(q, k)
		add(fmt.Sprint("KNN ", i), rs, st)
		rr, rst := x.Range(q, rs[k-1].Distance)
		add(fmt.Sprint("Range ", i), rr, rst)
		if ax, ok := x.(ApproxIndex); ok {
			for _, nprobe := range []int{2, ax.ApproxBuckets()} {
				ar, ast := ax.KNNApprox(q, k, nprobe)
				add(fmt.Sprint("KNNApprox ", i, nprobe), ar, ast)
			}
		}
		if px, ok := x.(*PermIndex); ok {
			order, ost := px.ScanOrder(q)
			add(fmt.Sprint("ScanOrder ", i), order, ost)
			br, bst := px.KNNBudget(q, k, px.db.N()/10)
			add(fmt.Sprint("KNNBudget ", i), br, bst)
			batch, bsts := px.KNNBatch(qs[i:], k)
			add(fmt.Sprint("KNNBatch ", i), batch, bsts)
		}
	}
	return out
}

// TestConcurrentQueriesShareIndex: 4·GOMAXPROCS goroutines query one index
// at once, with no copy of it, each running every query operation the index
// offers in its own order, and every answer is bit-identical to the one the
// same query got alone from an identically built index. Each store's lazy
// parts — the directory, the bounds, the bucket-major rows — are built by
// the concurrent queries themselves. Under -race this proves the query
// workspaces are never shared.
func TestConcurrentQueriesShareIndex(t *testing.T) {
	const n, d, sites, k = 3000, 3, 6, 5
	db, rng := testDB(91, n, d, metric.L2{})
	siteIDs := rng.Perm(n)[:sites]
	qs := dataset.UniformVectors(rng, 4, d)
	heap := func() *PermIndex { return NewPermIndex(db, siteIDs, Footrule) }
	var frozen bytes.Buffer
	if _, err := WriteFrozen(&frozen, heap()); err != nil {
		t.Fatal(err)
	}
	const nb = 2600 // the base; the other 400 points are the delta
	gids, tombs := make([]int, n), []int{}
	for i := range gids {
		gids[i] = i
		if i%7 == 3 {
			tombs = append(tombs, i)
		}
	}
	baseDB := NewDB(metric.L2{}, db.Points[:nb])
	baseSites := rng.Perm(n / 3)[:sites] // sites of the base and of every shard
	stores := []struct {
		name  string
		build func() (Index, error)
	}{
		{"heap", func() (Index, error) { return heap(), nil }},
		{"frozen", func() (Index, error) {
			x, _, err := openFrozenBytes(frozen.Bytes(), db, false)
			return x, err
		}},
		{"mutable", func() (Index, error) {
			return NewMutableIndex(db, nb, NewPermIndex(baseDB, baseSites, Footrule), gids, tombs, n)
		}},
		{"sharded", func() (Index, error) {
			return NewShardedIndex(db, roundRobinParts(n, 3), func(_ int, sdb *DB) (Index, error) {
				return NewPermIndex(sdb, baseSites, Footrule), nil
			})
		}},
	}
	g := 4 * runtime.GOMAXPROCS(0)
	for _, st := range stores {
		alone, err := st.build()
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		shared, err := st.build()
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		want := concurrentAnswers(alone, qs, 0, k)
		got := make([][]string, g)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = concurrentAnswers(shared, qs, i, k)
			}()
		}
		wg.Wait()
		if !boundedStore(shared) {
			t.Fatalf("%s: a member index has no bounds: its exact walk borrows no workspace", st.name)
		}
		per := len(want) / len(qs) // answers a query
		for i, answers := range got {
			for j, a := range answers {
				// Goroutine i began at query i mod len(qs): its j-th answer
				// is the sequential run's, rotated by that many queries.
				if w := want[(j+(i%len(qs))*per)%len(want)]; a != w {
					t.Fatalf("%s: goroutine %d answered\n%.300s\nalone it is\n%.300s", st.name, i, a, w)
				}
			}
		}
	}
}

// boundedStore reports whether every PermIndex under x has bucket bounds.
func boundedStore(x Index) bool {
	switch x := x.(type) {
	case *PermIndex:
		return x.bounds() != nil
	case *MutableIndex:
		return boundedStore(x.Base())
	case *ShardedIndex:
		for s := range x.NumShards() {
			if !boundedStore(x.Shard(s)) {
				return false
			}
		}
		return true
	}
	return false
}
