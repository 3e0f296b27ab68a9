package sisap

import (
	"fmt"
	"math/rand"
	"testing"

	"distperm/internal/core"
	"distperm/internal/dataset"
	"distperm/internal/metric"
	"distperm/internal/perm"
)

// candidateAnswer is what a probe that measures every candidate answers: the
// k best of the points ids of db, by (distance, ID), each measured by
// Metric.Distance.
func candidateAnswer(db *DB, q metric.Point, k int, ids map[int]bool) []Result {
	c := collector{h: newKNNHeap(k)}
	for id := range ids {
		c.add(id, db.Metric.Distance(q, db.Point(id)))
	}
	return c.results()
}

// liveCandidates returns cand without the dead, or every live point of db
// where cand is nil (a probe that covered the directory).
func liveCandidates(db *DB, cand map[int]bool, dead Tombs) map[int]bool {
	live := map[int]bool{}
	for id := range db.N() {
		if (cand == nil || cand[id]) && !dead.Has(id) {
			live[id] = true
		}
	}
	return live
}

// TestApproxProbeMatchesWholeBuckets: the probe measures only the cells of its
// buckets that its bounds do not exclude, and answers, byte for byte, what
// measuring the whole buckets answers (referenceProbe's candidates) at every
// nprobe from 1 to the directory size — with and without a dead set, on a
// heap-built store (which bounds itself on its first probe), on the PFR4 file
// of it mapped and decoded, which walk its cells under its bounds and cost
// what it costs, and on a twin laid out one cell per bucket — and so does a
// mutated store (tombstones and a delta) and a sharded one, probed the way the
// engine probes their segments. Each probe measures exactly the points
// referenceProbe works out cell by cell, the rest of the candidates pruned,
// and the footrule's permutation, from the k site distances, is the
// Permuter's.
func TestApproxProbeMatchesWholeBuckets(t *testing.T) {
	const n, d, k = 4000, 4, 10
	rng := rand.New(rand.NewSource(50))
	pts := dataset.ClusteredVectors(rng, n, d, 16, 0.05)
	db := NewDB(metric.L2{}, pts)
	idx := NewPermIndex(db, rng.Perm(n)[:8], Footrule)
	queries := append(dataset.UniformVectors(rng, 4, d), pts[0], pts[n-1])
	image := frozenImage(t, NewPermIndex(db, idx.siteIDs, Footrule))
	decoded, _, err := openFrozenBytes(image, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	stores := []permBackend{{"heap", idx}, {"pfr4-heap", decoded}, {"pfr4-mmap", openMappedPath(t, writeImage(t, image), nil)},
		{"whole-buckets", wholeBucketTwin(NewPermIndex(db, idx.siteIDs, Footrule))}}
	dead := Tombs{}
	for i := 3; i < n; i += 5 {
		dead = dead.With(i)
	}
	costs := map[string]ApproxStats{}
	pruned := map[string]int{}
	for _, st := range stores {
		x, nb := st.idx, st.idx.ApproxBuckets()
		for qi, q := range queries {
			qd, order := make([]float64, x.K()), make(perm.Permutation, x.K())
			for i, id := range x.siteIDs {
				qd[i] = x.db.Metric.Distance(x.db.Point(id), q)
			}
			if core.Order(qd, order); !order.Equal(x.permuter.Permutation(q)) {
				t.Fatalf("%s query %d: the footrule's permutation %v, the Permuter's %v", st.name, qi, order, x.permuter.Permutation(q))
			}
			for _, sc := range []Scope{{}, {Dead: dead}} {
				for nprobe := 1; nprobe <= nb; nprobe++ {
					label := fmt.Sprintf("%s query %d dead=%v nprobe=%d", st.name, qi, sc.Dead != nil, nprobe)
					cand, want := referenceProbe(x, q, k, nprobe, sc.Dead)
					got, gst := x.knnApprox(q, k, nprobe, sc)
					sameBits(t, label, got, candidateAnswer(x.db, q, k, liveCandidates(x.db, cand, sc.Dead)))
					if want.Exact != gst.Exact || !gst.Exact && gst != want {
						t.Fatalf("%s: stats %+v, measuring whole buckets %+v", label, gst, want)
					}
					pruned[st.name] += gst.PrunedEvals
					key := fmt.Sprint(qi, sc.Dead != nil, nprobe)
					if prev, ok := costs[key]; st.name != "whole-buckets" && ok && prev != gst {
						t.Fatalf("%s: stats %+v, the heap-built store's %+v", label, gst, prev)
					}
					costs[key] = gst
				}
			}
		}
		if pruned[st.name] == 0 {
			t.Fatalf("%s: no probe pruned a point", st.name)
		}
	}
	if idx.BoundCells() <= idx.ApproxBuckets() || pruned["whole-buckets"] >= pruned["heap"] {
		t.Fatalf("the heap-built store bounds %d cells over %d buckets and prunes %d points, its twin of one cell a bucket %d",
			idx.BoundCells(), idx.ApproxBuckets(), pruned["heap"], pruned["whole-buckets"])
	}

	// The mutated store: a base over the first 3600 points, the rest a delta,
	// a tombstone on either side of the line.
	const nbase = 3600
	gids := make([]int, n)
	for i := range gids {
		gids[i] = i
	}
	base := NewPermIndex(NewDB(db.Metric, db.Points[:nbase]), idx.siteIDs, Footrule)
	m, err := NewMutableIndex(db, nbase, base, gids, []int{3, 8, nbase + 2}, n)
	if err != nil {
		t.Fatal(err)
	}
	// The sharded store: four round-robin shards of 1000 points.
	sx, err := NewShardedIndex(db, roundRobinParts(n, 4), func(s int, sdb *DB) (Index, error) {
		return NewPermIndex(sdb, []int{0, 100, 200, 300, 400, 500, 600, 700}, Footrule), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		for nprobe := 1; nprobe <= base.ApproxBuckets(); nprobe++ {
			label := fmt.Sprintf("mutated query %d nprobe=%d", qi, nprobe)
			w := NewWalk(k, 0, m.Dead())
			st := w.Approx(base, nil, q, k, nprobe)
			cand, want := referenceProbe(base, q, k, nprobe, m.Dead())
			sameBits(t, label, m.Overlay(q, w.Results(), k, 0), m.Overlay(q, candidateAnswer(base.db, q, k, liveCandidates(base.db, cand, m.Dead())), k, 0))
			if want.Exact != st.Exact || !st.Exact && st != want {
				t.Fatalf("%s: stats %+v, measuring whole buckets %+v", label, st, want)
			}
		}
		for nprobe := 1; nprobe <= sx.Shard(0).(*PermIndex).ApproxBuckets()+1; nprobe++ {
			w, union := NewWalk(k, 0, nil), map[int]bool{}
			for s := range sx.NumShards() {
				shard, part := sx.Shard(s).(*PermIndex), sx.Part(s)
				st := w.Approx(shard, part, q, k, nprobe)
				cand, want := referenceProbe(shard, q, k, nprobe, nil)
				for id := range liveCandidates(shard.db, cand, nil) {
					union[part[id]] = true
				}
				if want.Exact != st.Exact || !st.Exact && st != want {
					t.Fatalf("sharded query %d nprobe=%d shard %d: stats %+v, measuring whole buckets %+v", qi, nprobe, s, st, want)
				}
			}
			sameBits(t, fmt.Sprintf("sharded query %d nprobe=%d", qi, nprobe), w.Results(), candidateAnswer(db, q, k, union))
		}
	}
}

// TestFrozenMappedWalksHeapCells: a store opened with no database from the
// PFR4 file of a heap-built store is that store's walk. Freezing leaves the
// heap store as it was, unbounded and uncopied until its first query; the
// mapped store holds the cells and bounds that query makes from the open on —
// before any query, so no sweep runs — and no copy of its rows, ever, and
// every exact and approximate query costs on it what it costs on the heap
// store.
func TestFrozenMappedWalksHeapCells(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	pts := dataset.ClusteredVectors(rng, 8000, 4, 16, 0.05)
	idx := NewPermIndex(NewDB(metric.L2{}, pts), rng.Perm(len(pts))[:10], Footrule)
	mapped := mappedCopy(t, idx, nil)
	if idx.BoundCells() != 0 || idx.RowsHeapBytes() != 0 || mapped.BoundCells() <= idx.ApproxBuckets() || mapped.RowsHeapBytes() != 0 {
		t.Fatalf("before any query the mapped store bounds %d cells (%d bytes of rows) over %d buckets, the heap-built one %d (%d bytes)",
			mapped.BoundCells(), mapped.RowsHeapBytes(), idx.ApproxBuckets(), idx.BoundCells(), idx.RowsHeapBytes())
	}
	for qi, q := range append(dataset.UniformVectors(rng, 10, 4), pts[:10]...) {
		label := fmt.Sprintf("query %d", qi)
		want, wst := idx.KNN(q, 10)
		got, gst := mapped.KNN(q, 10)
		sameBits(t, label+" KNN", got, want)
		wantR, wrst := idx.Range(q, want[9].Distance)
		gotR, grst := mapped.Range(q, want[9].Distance)
		sameBits(t, label+" Range", gotR, wantR)
		wantA, wast := idx.KNNApprox(q, 10, 4)
		gotA, gast := mapped.KNNApprox(q, 10, 4)
		sameBits(t, label+" KNNApprox", gotA, wantA)
		if gst != wst || grst != wrst || gast != wast {
			t.Fatalf("%s: the mapped store costs %+v / %+v / %+v, the heap-built one %+v / %+v / %+v", label, gst, grst, gast, wst, wrst, wast)
		}
	}
	if mapped.RowsHeapBytes() != 0 || mapped.BoundCells() != idx.BoundCells() {
		t.Fatalf("after its queries the mapped store holds %d bytes of rows and bounds %d cells", mapped.RowsHeapBytes(), mapped.BoundCells())
	}
}
