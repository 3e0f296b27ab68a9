package distperm

import (
	"math/rand"
	"reflect"
	"testing"

	"distperm/internal/dataset"
	"distperm/internal/sisap"
)

// lazyBuilt reports whether a distperm index already holds what it builds
// lazily for exact search — the bucket directory and the bucket bounds —
// by looking at the fields themselves (both sit behind a sync.Once and go
// from nil to their final value exactly once), not at how long a query
// takes.
func lazyBuilt(px *sisap.PermIndex) (directory, bounds bool) {
	lb := reflect.ValueOf(px).Elem().FieldByName("lb").Elem()
	return !lb.FieldByName("pb").IsNil(), !lb.FieldByName("bounds").IsNil()
}

// TestMutableRebuildWarmsView: a rebuilt view is published with every
// segment's directory and bounds already in place, so the first exact read
// after a swap builds nothing — and the throwaway queries that did the
// building moved no engine counter.
func TestMutableRebuildWarmsView(t *testing.T) {
	for _, shards := range []int{1, 3} {
		rng := rand.New(rand.NewSource(int64(300 + shards)))
		db, err := NewDB(L2, dataset.ClusteredVectors(rng, 900, 3, 6, 0.05))
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMutableEngine(db, MutableConfig{Spec: Spec{Index: "distperm", K: 6, Seed: 5}, Shards: shards, Partitioner: RoundRobin{}})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		// The hook discriminates: the view built at start-up, which no query
		// has touched, holds neither.
		for s, seg := range m.cur.Load().view.segs {
			if dir, bounds := lazyBuilt(seg.idx.(*sisap.PermIndex)); dir || bounds {
				t.Fatalf("shards=%d: untouched segment %d already holds directory=%v bounds=%v", shards, s, dir, bounds)
			}
		}
		for _, p := range dataset.UniformVectors(rng, 5, 3) {
			if _, err := m.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Rebuild(); err != nil {
			t.Fatal(err)
		}
		segs := m.cur.Load().view.segs
		if len(segs) != shards {
			t.Fatalf("shards=%d: rebuilt view has %d segments", shards, len(segs))
		}
		for s, seg := range segs {
			if dir, bounds := lazyBuilt(seg.idx.(*sisap.PermIndex)); !dir || !bounds {
				t.Errorf("shards=%d: segment %d published cold (directory=%v bounds=%v): its first exact read would build them", shards, s, dir, bounds)
			}
		}
		if st := m.Stats(); st.Queries != 0 || st.DistanceEvals != 0 {
			t.Errorf("shards=%d: warming moved the engine counters: %+v", shards, st)
		}
		// The first Search over the warmed view prunes, and answers exactly.
		q := db.Points[17]
		outs, _, err := m.Search([]Point{q}, Query{K: 4})
		if err != nil {
			t.Fatal(err)
		}
		if outs[0][0].ID != 17 || outs[0][0].Distance != 0 {
			t.Errorf("shards=%d: point 17 is not its own nearest neighbour: %+v", shards, outs[0])
		}
		if st := m.Stats(); st.PrunedEvals == 0 {
			t.Errorf("shards=%d: first search after the rebuild pruned nothing: %+v", shards, st)
		}
	}
}
