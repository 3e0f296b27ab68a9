package distperm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"distperm/internal/sisap"
)

// shapeOf names what a rebuild of idx has to reproduce: the kind, K (sites or
// pivots) and permutation distance of its members, and their number.
func shapeOf(idx Index) string {
	shards := 1
	if sx, ok := idx.(*ShardedIndex); ok {
		shards, idx = sx.NumShards(), sx.Shard(0)
	}
	switch x := idx.(type) {
	case *PermIndex:
		return fmt.Sprintf("distperm k=%d dist=%d × %d", x.K(), x.PermDist(), shards)
	case *sisap.LAESA:
		return fmt.Sprintf("laesa k=%d × %d", len(x.Pivots()), shards)
	}
	return fmt.Sprintf("%s × %d", idx.Name(), shards)
}

// TestWrapMutableRebuildsWrappedShape: a store wrapped with an empty Spec —
// built, sharded, or a saved mutable container read back and resumed with no
// database — rebuilds into the shape it was wrapped in, whatever the default
// kind parameters are.
func TestWrapMutableRebuildsWrappedShape(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pts := make([]Point, 200)
	for i := range pts {
		pts[i] = Vector{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	db, err := NewDB(L2, pts)
	if err != nil {
		t.Fatal(err)
	}
	build := func(spec Spec) Index {
		idx, err := Build(db, spec)
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	sites := Spec{Index: "distperm", K: 12, PermDist: KendallTau, Seed: 41}
	sx, err := BuildSharded(db, Spec{Index: "distperm", K: 12, PermDist: SpearmanRho, Seed: 42}, 4, RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	saved, err := NewMutableEngine(db, MutableConfig{Spec: Spec{Index: "distperm", K: 12, PermDist: SpearmanRho, Seed: 43}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := saved.Insert(Vector{0.5, 0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	snap := saved.Snapshot()
	saved.Close()
	var buf bytes.Buffer
	if _, err := WriteIndex(&buf, snap); err != nil {
		t.Fatal(err)
	}
	back, err := ReadIndex(&buf, snap.DB())
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		db   *DB
		idx  Index
		cfg  MutableConfig
	}{
		{"12 sites under Kendall tau", db, build(sites), MutableConfig{}},
		{"12-pivot LAESA", db, build(Spec{Index: "laesa", K: 12}), MutableConfig{}},
		{"4 round-robin shards", db, sx, MutableConfig{Partitioner: RoundRobin{}}},
		{"saved mutable container", nil, back, MutableConfig{}},
	} {
		want := c.idx
		if mi, ok := want.(*MutableIndex); ok {
			want = mi.Base()
		}
		me, err := WrapMutable(c.db, c.idx, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := me.Insert(Vector{2, 2, 2}); err != nil {
			t.Fatal(err)
		}
		if _, sharded := want.(*ShardedIndex); sharded != (me.MutationStats().DeltaPerShard != nil) {
			t.Errorf("%s: pending inserts per shard %v", c.name, me.MutationStats().DeltaPerShard)
		}
		if err := me.Rebuild(); err != nil {
			t.Fatal(err)
		}
		got := me.Snapshot()
		if shapeOf(got.Base()) != shapeOf(want) {
			t.Errorf("%s: rebuilt %s, wrapped %s", c.name, shapeOf(got.Base()), shapeOf(want))
		}
		me.Close()
	}
}
