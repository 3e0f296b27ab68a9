package distperm

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"distperm/internal/dataset"
)

// searchEngine is the query surface the three engines share: the one
// Search path and the legacy wrappers defined once over it.
type searchEngine interface {
	Search(qs []Point, q Query) ([][]Result, []ApproxStats, error)
	KNNBatch(qs []Point, k int) ([][]Result, error)
	KNNApproxBatch(qs []Point, k, nprobe int) ([][]Result, []ApproxStats, error)
	Stats() EngineStats
	Close()
}

// searchCase is one engine composition plus its oracle: a LinearScan over
// the logical point set in ascending result-ID order (so tie-breaks agree),
// with ids mapping oracle positions to the IDs the engine reports.
type searchCase struct {
	name   string
	eng    searchEngine
	oracle Index
	pts    []Point
	ids    []int
}

// want answers q for p on the oracle, in the engine's ID space.
func (c searchCase) want(p Point, q Query) []Result {
	var rs []Result
	if q.K > 0 {
		rs, _ = c.oracle.KNN(p, q.K)
	} else {
		rs, _ = c.oracle.Range(p, q.Radius)
	}
	for i := range rs {
		rs[i].ID = c.ids[rs[i].ID]
	}
	return rs
}

// searchCases builds the four compositions over one database (with
// duplicated points, so equal distances exercise the ID tie-break), large
// enough that a quarter of it still carries bucket bounds: the distperm
// compositions answer exact queries by the pruned walk, shards included.
// The mutable ones carry a non-empty delta, a base tombstone, and a deleted
// delta point, with automatic rebuilds off so they stay that way.
func searchCases(t *testing.T, kind string) []searchCase {
	t.Helper()
	// A DB is immutable once built (its scans read a packed copy of the
	// coordinates), so the duplicates go in before the build.
	rng := rand.New(rand.NewSource(77))
	raw := dataset.UniformVectors(rng, 6000, 3)
	for i := 0; i < 20; i++ {
		raw[300+i] = raw[i]
	}
	db, err := NewDB(L2, raw)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Index: kind, K: 8, Seed: 9}
	newCase := func(name string, eng searchEngine, pts []Point, ids []int) searchCase {
		ldb, err := NewDB(L2, pts)
		if err != nil {
			t.Fatal(err)
		}
		return searchCase{name, eng, mustBuild(t, ldb, Spec{Index: "linear"}), pts, ids}
	}
	identity := make([]int, db.N())
	for i := range identity {
		identity[i] = i
	}

	e, err := NewEngine(db, mustBuild(t, db, spec), 3)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := BuildSharded(db, spec, 4, RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardedEngine(sx, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []searchCase{
		newCase("engine", e, db.Points, identity),
		newCase("sharded×4", se, db.Points, identity),
	}

	fresh := dataset.UniformVectors(rng, 6, 3)
	fresh = append(fresh, db.Points[3]) // a delta point tying with base points
	for _, mc := range []struct {
		name string
		cfg  MutableConfig
	}{
		{"mutable", MutableConfig{Spec: spec}},
		{"mutable×4", MutableConfig{Spec: spec, Shards: 4, Partitioner: RoundRobin{}}},
	} {
		me, err := NewMutableEngine(db, mc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		live := map[int]Point{}
		for i, p := range db.Points {
			live[i] = p
		}
		for _, p := range fresh {
			gid, err := me.Insert(p)
			if err != nil {
				t.Fatal(err)
			}
			live[gid] = p
		}
		for _, gid := range []int{0, 41, db.N() + 1} { // two base tombstones, one delta point
			if err := me.Delete(gid); err != nil {
				t.Fatal(err)
			}
			delete(live, gid)
		}
		if ms := me.MutationStats(); ms.DeltaSize == 0 || ms.Tombstones == 0 {
			t.Fatalf("%s: delta %d, tombstones %d — the overlay is not exercised", mc.name, ms.DeltaSize, ms.Tombstones)
		}
		ids := make([]int, 0, len(live))
		for gid := range live {
			ids = append(ids, gid)
		}
		sort.Ints(ids)
		pts := make([]Point, len(ids))
		for i, gid := range ids {
			pts[i] = live[gid]
		}
		cases = append(cases, newCase(mc.name, me, pts, ids))
	}
	t.Cleanup(func() {
		for _, c := range cases {
			c.eng.Close()
		}
	})
	return cases
}

// TestSearchEquivalence is the single-path contract: on every engine
// composition, for every query kind, Search equals the legacy wrapper
// equals the LinearScan oracle — IDs, distances, and tie-breaks — and an
// approximate search is byte-identical to exact at full coverage, with
// per-query recall never decreasing in nprobe below that.
func TestSearchEquivalence(t *testing.T) {
	const k, radius, full = 7, 0.22, 1 << 20
	for _, c := range searchCases(t, "distperm") {
		t.Run(c.name, func(t *testing.T) {
			qs := dataset.UniformVectors(rand.New(rand.NewSource(78)), 30, 3)
			qs = append(qs, c.pts[:10]...) // probes sitting on duplicated points
			exact := make([][]Result, len(qs))
			ranged := make([][]Result, len(qs))
			for i, p := range qs {
				exact[i] = c.want(p, Query{K: k})
				ranged[i] = c.want(p, Query{Radius: radius})
			}

			got, sts, err := c.eng.Search(qs, Query{K: k})
			legacy, lerr := c.eng.KNNBatch(qs, k)
			if err != nil || lerr != nil || sts != nil {
				t.Fatalf("kNN: err %v / %v, stats %v", err, lerr, sts)
			}
			if !reflect.DeepEqual(got, exact) || !reflect.DeepEqual(legacy, exact) {
				t.Fatal("kNN: Search, KNNBatch, and the oracle disagree")
			}
			// A multi-query search travels as sub-batches, which measure every
			// point; a lone query takes the pruned walk and must agree too.
			before := c.eng.Stats().PrunedEvals
			if lone, _, err := c.eng.Search(qs[:1], Query{K: k}); err != nil || !reflect.DeepEqual(lone, exact[:1]) {
				t.Fatalf("kNN: a lone query answered %v (%v), oracle %v", lone, err, exact[:1])
			}
			if st := c.eng.Stats(); st.PrunedEvals == before {
				t.Fatalf("kNN: nothing was pruned (%+v): the walk under test did not run", st)
			}

			got, sts, err = c.eng.Search(qs, Query{Radius: radius})
			if err != nil || sts != nil {
				t.Fatalf("range: err %v, stats %v", err, sts)
			}
			for i := range qs {
				// A merged range yields nil for an empty answer, the oracle an
				// empty slice; compare contents.
				if !sameResults(got[i], ranged[i]) {
					t.Fatalf("range probe %d: Search %v, oracle %v", i, got[i], ranged[i])
				}
			}

			recall := make([]float64, len(qs))
			for _, nprobe := range []int{2, 8, full} {
				q := Query{K: k, Approx: true, NProbe: nprobe}
				got, sts, err := c.eng.Search(qs, q)
				legacy, lsts, lerr := c.eng.KNNApproxBatch(qs, k, nprobe)
				if err != nil || lerr != nil {
					t.Fatalf("approx nprobe=%d: %v / %v", nprobe, err, lerr)
				}
				if !reflect.DeepEqual(got, legacy) || !reflect.DeepEqual(sts, lsts) || len(sts) != len(qs) {
					t.Fatalf("approx nprobe=%d: Search and KNNApproxBatch disagree", nprobe)
				}
				for i := range qs {
					if nprobe == full && (!sts[i].Exact || !reflect.DeepEqual(got[i], exact[i])) {
						t.Fatalf("approx probe %d at full coverage: %v (exact=%v), want %v", i, got[i], sts[i].Exact, exact[i])
					}
					r := approxTruthRecall(exact[i], got[i])
					if len(got[i]) != k || r < recall[i] {
						t.Fatalf("approx nprobe=%d probe %d: %d results, recall %.2f after %.2f", nprobe, i, len(got[i]), r, recall[i])
					}
					recall[i] = r
				}
			}
		})
	}
}

func sameResults(a, b []Result) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestSearchRejections: the validation, empty-batch, capability, and
// closed-engine rows of the single path, on every composition.
func TestSearchRejections(t *testing.T) {
	probe := []Point{Vector{0.5, 0.5, 0.5}}
	for _, c := range searchCases(t, "distperm") {
		n := len(c.ids)
		for _, q := range []Query{{K: n + 1}, {K: -1}, {Approx: true}, {K: n + 1, Approx: true}, {Radius: -0.5}, {Radius: math.NaN()}} {
			if _, _, err := c.eng.Search(probe, q); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("%s: Search(%+v) = %v, want ErrOutOfRange", c.name, q, err)
			}
		}
		// No distance to a NaN coordinate orders, so no answer to it is the
		// oracle's: every query form refuses it, anywhere in the batch.
		nan := []Point{probe[0], Vector{0.5, math.NaN(), 0.5}}
		for _, q := range []Query{{K: 3}, {Radius: 0.1}, {K: 3, Approx: true}} {
			if _, _, err := c.eng.Search(nan, q); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("%s: Search(%+v) of a NaN query = %v, want ErrOutOfRange", c.name, q, err)
			}
		}
		if _, err := c.eng.KNNBatch(probe, 0); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("%s: KNNBatch(k=0) = %v, want ErrOutOfRange (not a range query)", c.name, err)
		}
		for _, q := range []Query{{K: 3}, {Radius: 0.1}, {K: 3, Approx: true}} {
			outs, sts, err := c.eng.Search(nil, q)
			if err != nil || outs == nil || len(outs) != 0 || len(sts) != 0 {
				t.Errorf("%s: empty batch %+v = (%v, %v, %v)", c.name, q, outs, sts, err)
			}
		}
		c.eng.Close()
		if _, _, err := c.eng.Search(probe, Query{K: 3}); err == nil || errors.Is(err, ErrOutOfRange) {
			t.Errorf("%s: Search on a closed engine = %v, want a closed error", c.name, err)
		}
	}
	for _, c := range searchCases(t, "vptree") {
		if _, _, err := c.eng.Search(probe, Query{K: 3, Approx: true}); !errors.Is(err, ErrNoApprox) {
			t.Errorf("%s over vptree: approx Search = %v, want ErrNoApprox", c.name, err)
		}
		if _, _, err := c.eng.Search(probe, Query{K: 3}); err != nil {
			t.Errorf("%s over vptree: exact Search = %v", c.name, err)
		}
	}
}
