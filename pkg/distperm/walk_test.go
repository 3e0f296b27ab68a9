package distperm

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"distperm/internal/dataset"
)

// copiesDB stores each of n distinct uniform points copies times in a row,
// so round-robin deals the copies of every point to different shards and
// every distance ties across them.
func copiesDB(t *testing.T, seed int64, n, copies int) (*DB, []Point) {
	t.Helper()
	distinct := dataset.UniformVectors(rand.New(rand.NewSource(seed)), n, 3)
	var raw []Point
	for _, p := range distinct {
		for range copies {
			raw = append(raw, p)
		}
	}
	db, err := NewDB(L2, raw)
	if err != nil {
		t.Fatal(err)
	}
	return db, distinct
}

// TestShardedWalkTiesAndBoundaries: a query walks a sharded view's shards in
// turn into one collector, so shard s prunes at the k-th distance shards
// 0…s−1 found. On a store of exact duplicates that round-robin places in
// different shards, a k that cuts through a tie group and a radius equal to
// a stored distance must still answer what LinearScan answers — IDs,
// distances (== is bit equality for L2, which yields no −0 or NaN) and
// tie-breaks — on a plain sharded Engine and on a
// MutableEngine with tombstones (inside tie groups) and a delta (tying with
// the base), as a batch and one query at a time.
func TestShardedWalkTiesAndBoundaries(t *testing.T) {
	const shards, k = 4, 6 // four copies a point: k = 6 ends inside the second tie group
	db, distinct := copiesDB(t, 39, 1500, shards)
	spec := Spec{Index: "distperm", K: 8, Seed: 39}
	sx, err := BuildSharded(db, spec, shards, RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardedEngine(sx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	me, err := WrapMutable(db, sx, MutableConfig{Spec: spec, Shards: shards, Partitioner: RoundRobin{}})
	if err != nil {
		t.Fatal(err)
	}
	defer me.Close()

	all, live := map[int]Point{}, map[int]Point{}
	for i, p := range db.Points {
		all[i], live[i] = p, p
	}
	// Two copies out of the groups of points 0 and 1, and all of point 5.
	for _, gid := range []int{1, 6, 7, 20, 21, 22, 23} {
		if err := me.Delete(gid); err != nil {
			t.Fatal(err)
		}
		delete(live, gid)
	}
	// The delta ties with the base (points 0, 1, 2 and a third copy of 2)
	// and with itself.
	for _, p := range []Point{distinct[0], distinct[1], distinct[2], distinct[2], Vector{0.5, 0.5, 0.5}} {
		gid, err := me.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		live[gid] = p
	}

	rng := rand.New(rand.NewSource(40))
	qs := append(dataset.UniformVectors(rng, 12, 3), distinct[:6]...) // distance-0 ties too
	for _, c := range []struct {
		name string
		eng  searchEngine
		live map[int]Point
	}{{"sharded engine", se, all}, {"mutable engine", me, live}} {
		// The oracle is a LinearScan over the live points in gid order.
		ids := slices.Sorted(maps.Keys(c.live))
		pts := make([]Point, len(ids))
		for i, gid := range ids {
			pts[i] = c.live[gid]
		}
		odb, err := NewDB(L2, pts)
		if err != nil {
			t.Fatal(err)
		}
		oc := searchCase{c.name, c.eng, mustBuild(t, odb, Spec{Index: "linear"}), pts, ids}

		// A radius equal to a stored distance: the k-th neighbour's of the
		// first query, the whole tie group it belongs to inside.
		radius := oc.want(qs[0], Query{K: k})[k-1].Distance
		for _, q := range []Query{{K: k}, {K: 1}, {Radius: radius}} {
			got, _, err := c.eng.Search(qs, q)
			if err != nil {
				t.Fatalf("%s %+v: %v", c.name, q, err)
			}
			for i, p := range qs {
				want := oc.want(p, q)
				assertResultsEqual(t, fmt.Sprintf("%s %+v batch, query %d", c.name, q, i), got[i], want)
				lone, _, err := c.eng.Search(qs[i:i+1], q)
				if err != nil {
					t.Fatalf("%s %+v: %v", c.name, q, err)
				}
				assertResultsEqual(t, fmt.Sprintf("%s %+v alone, query %d", c.name, q, i), lone[0], want)
			}
		}
		// Every query on the boundary of its own radius, alone.
		for i, p := range qs {
			r := oc.want(p, Query{K: k})[k-1].Distance
			got, _, err := c.eng.Search([]Point{p}, Query{Radius: r})
			if err != nil {
				t.Fatalf("%s radius %g: %v", c.name, r, err)
			}
			assertResultsEqual(t, fmt.Sprintf("%s radius %g, query %d", c.name, r, i), got[0], oc.want(p, Query{Radius: r}))
		}
	}
}

// walkEvals returns the distance evaluations a sharded Engine spends on
// k-NN for qs, and what the same queries cost with every shard walked alone
// (sx.Shard(s).KNN), summed over the query set.
func walkEvals(t *testing.T, sx *ShardedIndex, qs []Point, k int) (walked, alone int64) {
	t.Helper()
	se, err := NewShardedEngine(sx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	if _, err := se.KNNBatch(qs, k); err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		for s := range sx.NumShards() {
			_, st := sx.Shard(s).KNN(q, min(k, sx.ShardDB(s).N()))
			alone += int64(st.DistanceEvals)
		}
	}
	return se.Stats().DistanceEvals, alone
}

// TestShardedWalkMeasuresNoMore: walking the shards into one collector
// measures no more than walking each alone — a shard's bounds face a limit
// no looser than its own k-th distance — and, on a clustered store shaped
// like the benchmark's mixed-rw-sharded one (four round-robin shards, 12
// sites, Footrule), strictly less.
func TestShardedWalkMeasuresNoMore(t *testing.T) {
	db, distinct := copiesDB(t, 41, 1500, 4)
	sx, err := BuildSharded(db, Spec{Index: "distperm", K: 8, Seed: 41}, 4, RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	qs := append(dataset.UniformVectors(rand.New(rand.NewSource(42)), 30, 3), distinct[:10]...)
	if walked, alone := walkEvals(t, sx, qs, 6); walked > alone {
		t.Errorf("duplicates: one walk measured %d, the shards alone %d", walked, alone)
	}

	rng := rand.New(rand.NewSource(43))
	pts := dataset.ClusteredVectors(rng, 16000, 6, 32, 0.05)
	cdb, err := NewDB(L2, pts)
	if err != nil {
		t.Fatal(err)
	}
	csx, err := BuildSharded(cdb, Spec{Index: "distperm", K: 12, PermDist: Footrule, Seed: 43}, 4, RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	qs = qs[:0]
	for range 60 { // a data point plus N(0, 0.01) noise, as the benchmark asks
		v := slices.Clone(pts[rng.Intn(len(pts))].(Vector))
		for j := range v {
			v[j] += 0.01 * rng.NormFloat64()
		}
		qs = append(qs, v)
	}
	walked, alone := walkEvals(t, csx, qs, 10)
	if walked >= alone {
		t.Errorf("clustered: one walk measured %d, the shards alone %d; want fewer", walked, alone)
	}
	t.Logf("clustered, 4 shards, %d queries: one walk %d evaluations, shards alone %d", len(qs), walked, alone)
}

// TestRebuildPartitionsByGID: a rebuild asks the Partitioner about each
// point by its global ID — the point the Partitioner contract names, and how
// MutationStats.DeltaPerShard routes a pending insert. After a delete,
// inserts and a rebuild, every live point sits in shard p.Shard(gid, point,
// S), and the inserts land where DeltaPerShard said they would. A shard
// whose every point was deleted is left out of the next rebuild instead of
// failing it.
func TestRebuildPartitionsByGID(t *testing.T) {
	const shards = 4
	db, rng := testDB(t, 39, 400, 3)
	for _, p := range []Partitioner{RoundRobin{}, HashPoint{}} {
		me, err := NewMutableEngine(db, MutableConfig{
			Spec: Spec{Index: "distperm", K: 6, Seed: 39}, Shards: shards, Partitioner: p,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer me.Close()
		if err := me.Delete(3); err != nil {
			t.Fatal(err)
		}
		inserted := map[int]bool{}
		for _, v := range dataset.UniformVectors(rng, 6, 3) {
			gid, err := me.Insert(v)
			if err != nil {
				t.Fatal(err)
			}
			inserted[gid] = true
		}
		predicted := me.MutationStats().DeltaPerShard
		if err := me.Rebuild(); err != nil {
			t.Fatal(err)
		}
		mi := me.Snapshot()
		sx := mi.Base().(*ShardedIndex)
		landed, misplaced := make([]int, shards), 0
		for s := range sx.NumShards() {
			for _, pos := range sx.Part(s) {
				gid := mi.GIDs()[pos]
				if p.Shard(gid, mi.BaseDB().Points[pos], shards) != s {
					misplaced++
				}
				if inserted[gid] {
					landed[s]++
				}
			}
		}
		if misplaced != 0 || !reflect.DeepEqual(landed, predicted) {
			t.Errorf("%s: %d of %d live points outside the Partitioner's shard; inserts predicted at %v, landed at %v",
				p.Name(), misplaced, mi.LiveN(), predicted, landed)
		}
	}

	me, err := NewMutableEngine(db, MutableConfig{
		Spec: Spec{Index: "distperm", K: 6, Seed: 39}, Shards: shards, Partitioner: RoundRobin{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer me.Close()
	for gid := 0; gid < db.N(); gid += shards {
		if err := me.Delete(gid); err != nil {
			t.Fatal(err)
		}
	}
	if err := me.Rebuild(); err != nil {
		t.Fatalf("a rebuild with shard 0 emptied by deletes: %v", err)
	}
	if me.Shards() != shards-1 {
		t.Errorf("after shard 0 lost every point: %d shards, want %d", me.Shards(), shards-1)
	}
	got, err := me.KNNBatch([]Point{db.Points[0]}, 1)
	if err != nil || len(got[0]) != 1 || got[0][0].ID%shards == 0 {
		t.Errorf("kNN after the rebuild: %v (%v)", got, err)
	}
}
