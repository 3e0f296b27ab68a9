package sisap

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"distperm/internal/dataset"
	"distperm/internal/metric"
)

// buildMutableFixture assembles a MutableIndex by hand: nb indexed base
// points, nd delta points, every third live point tombstoned, and gids with
// a gap (as a post-rebuild snapshot would have).
func buildMutableFixture(t *testing.T, seed int64, nb, nd int) (*MutableIndex, *DB) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := dataset.UniformVectors(rng, nb+nd, 3)
	full := NewDB(metric.L2{}, pts)
	gids := make([]int, nb+nd)
	for i := range gids {
		gids[i] = 2 * i // gaps: gids need not be contiguous
	}
	var tombs []int
	for i := 0; i < nb+nd; i += 3 {
		tombs = append(tombs, gids[i])
	}
	base := NewLinearScan(NewDB(metric.L2{}, pts[:nb]))
	x, err := NewMutableIndex(full, nb, base, gids, tombs, 2*(nb+nd))
	if err != nil {
		t.Fatal(err)
	}
	return x, full
}

// mutableReference builds the ground truth for a MutableIndex: a LinearScan
// over the live points in gid order, plus the local→gid map to translate
// its answers.
func mutableReference(x *MutableIndex) (*LinearScan, []int) {
	gids, pts := x.Live()
	return NewLinearScan(NewDB(x.DB().Metric, pts)), gids
}

func sameAnswers(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d (%v vs %v)", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestMutableIndexMatchesRebuild is the snapshot-form correctness bar:
// kNN and range answers over base+delta with tombstones must equal a
// from-scratch linear scan over the logical point set.
func TestMutableIndexMatchesRebuild(t *testing.T) {
	x, _ := buildMutableFixture(t, 41, 120, 30)
	ref, refGids := mutableReference(x)
	rng := rand.New(rand.NewSource(42))
	queries := dataset.UniformVectors(rng, 40, 3)
	for qi, q := range queries {
		for _, k := range []int{1, 3, 10} {
			got, gst := x.KNN(q, k)
			want, _ := ref.KNN(q, k)
			for i := range want {
				want[i].ID = refGids[want[i].ID]
			}
			sameAnswers(t, "kNN", got, want)
			if deltaN := x.DB().N() - x.BaseN(); gst.DistanceEvals < deltaN {
				t.Fatalf("query %d: %d evals cannot cover the %d-point delta", qi, gst.DistanceEvals, deltaN)
			}
		}
		for _, r := range []float64{0, 0.2, 0.6} {
			got, _ := x.Range(q, r)
			want, _ := ref.Range(q, r)
			for i := range want {
				want[i].ID = refGids[want[i].ID]
			}
			sameAnswers(t, "range", got, want)
		}
	}
}

// TestMutableIndexReplica: replicas answer identically and satisfy
// Replicable (the engine's per-worker seam).
func TestMutableIndexReplica(t *testing.T) {
	x, _ := buildMutableFixture(t, 43, 80, 20)
	r, ok := any(x).(Replicable)
	if !ok {
		t.Fatal("MutableIndex should be Replicable")
	}
	rep := r.Replica().(*MutableIndex)
	q := dataset.UniformVectors(rand.New(rand.NewSource(44)), 1, 3)[0]
	got, _ := rep.KNN(q, 4)
	want, _ := x.KNN(q, 4)
	sameAnswers(t, "replica kNN", got, want)
}

// TestMutableCodecRoundTrip: the "mutable" container kind round-trips
// through WriteIndex/ReadIndex with identical answers, including the
// embedded base container.
func TestMutableCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	pts := dataset.UniformVectors(rng, 100, 3)
	full := NewDB(metric.L2{}, pts)
	gids := make([]int, 100)
	for i := range gids {
		gids[i] = i
	}
	base := NewPermIndex(NewDB(metric.L2{}, pts[:80]), rng.Perm(80)[:6], Footrule)
	x, err := NewMutableIndex(full, 80, base, gids, []int{3, 17, 85}, 100)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := WriteIndex(&buf, x); err != nil {
		t.Fatal(err)
	}
	back, err := ReadIndex(bytes.NewReader(buf.Bytes()), full)
	if err != nil {
		t.Fatal(err)
	}
	y, ok := back.(*MutableIndex)
	if !ok {
		t.Fatalf("decoded %T", back)
	}
	if y.BaseN() != 80 || y.NextGID() != 100 || y.LiveN() != 97 || y.Base().Name() != "distperm" {
		t.Fatalf("decoded snapshot shape: baseN=%d nextGid=%d liveN=%d base=%s",
			y.BaseN(), y.NextGID(), y.LiveN(), y.Base().Name())
	}
	for _, q := range dataset.UniformVectors(rng, 20, 3) {
		got, _ := y.KNN(q, 5)
		want, _ := x.KNN(q, 5)
		sameAnswers(t, "round-trip kNN", got, want)
		gotR, _ := y.Range(q, 0.4)
		wantR, _ := x.Range(q, 0.4)
		sameAnswers(t, "round-trip range", gotR, wantR)
	}
}

// TestMutableIndexValidation: malformed snapshot parts are errors, not
// panics — the codec feeds this path from untrusted bytes.
func TestMutableIndexValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	pts := dataset.UniformVectors(rng, 10, 2)
	full := NewDB(metric.L2{}, pts)
	base := NewLinearScan(NewDB(metric.L2{}, pts[:8]))
	good := func() ([]int, []int) {
		gids := make([]int, 10)
		for i := range gids {
			gids[i] = i
		}
		return gids, nil
	}
	cases := []struct {
		name string
		mut  func(gids, tombs []int) (*DB, int, Index, []int, []int, int)
	}{
		{"nil base", func(g, tb []int) (*DB, int, Index, []int, []int, int) { return full, 8, nil, g, tb, 10 }},
		{"bad prefix", func(g, tb []int) (*DB, int, Index, []int, []int, int) { return full, 0, base, g, tb, 10 }},
		{"prefix too large", func(g, tb []int) (*DB, int, Index, []int, []int, int) { return full, 11, base, g, tb, 10 }},
		{"gid count", func(g, tb []int) (*DB, int, Index, []int, []int, int) { return full, 8, base, g[:9], tb, 10 }},
		{"gids not increasing", func(g, tb []int) (*DB, int, Index, []int, []int, int) {
			g[4] = g[3]
			return full, 8, base, g, tb, 10
		}},
		{"gid ≥ nextGid", func(g, tb []int) (*DB, int, Index, []int, []int, int) { return full, 8, base, g, tb, 9 }},
		{"unknown tombstone", func(g, tb []int) (*DB, int, Index, []int, []int, int) {
			return full, 8, base, g, []int{42}, 43
		}},
		{"tombstones not increasing", func(g, tb []int) (*DB, int, Index, []int, []int, int) {
			return full, 8, base, g, []int{5, 5}, 10
		}},
	}
	for _, tc := range cases {
		gids, tombs := good()
		if _, err := NewMutableIndex(tc.mut(gids, tombs)); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	gids, tombs := good()
	if _, err := NewMutableIndex(full, 8, base, gids, tombs, 10); err != nil {
		t.Errorf("valid snapshot rejected: %v", err)
	}
}

// TestMutableCodecCorruptPayload: truncated or inconsistent container bytes
// fail cleanly on decode.
func TestMutableCodecCorruptPayload(t *testing.T) {
	x, full := buildMutableFixture(t, 47, 40, 10)
	var buf bytes.Buffer
	if _, err := WriteIndex(&buf, x); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, cut := range []int{len(whole) - 1, len(whole) / 2, 20} {
		if _, err := ReadIndex(bytes.NewReader(whole[:cut]), full); err == nil {
			t.Errorf("truncation at %d should fail", cut)
		}
	}
	// A database of the wrong size is refused before the payload is trusted.
	small := NewDB(full.Metric, full.Points[:full.N()-1])
	if _, err := ReadIndex(bytes.NewReader(whole), small); err == nil {
		t.Error("wrong database size should fail")
	}
}

// TestMutableIndexWrites: Insert, Delete and Rebase return snapshots that
// answer as a scan of their live points does, and leave the snapshot they
// were called on as it was — including a snapshot read back with tombstoned
// delta points, whose delta delete drops those first.
func TestMutableIndexWrites(t *testing.T) {
	x, _ := buildMutableFixture(t, 48, 60, 15)
	rng := rand.New(rand.NewSource(49))
	queries := dataset.UniformVectors(rng, 10, 3)
	check := func(label string, y *MutableIndex) {
		t.Helper()
		ref, refGids := mutableReference(y)
		for _, q := range queries {
			for _, k := range []int{1, 5, y.LiveN()} {
				got, _ := y.KNN(q, k)
				want, _ := ref.KNN(q, k)
				sameAnswers(t, label+" kNN", got, RemapShardResults(want, refGids))
			}
			got, _ := y.Range(q, 0.4)
			want, _ := ref.Range(q, 0.4)
			sameAnswers(t, label+" range", got, RemapShardResults(want, refGids))
		}
	}
	before, _ := x.KNN(queries[0], 7)
	y := x.Insert(dataset.UniformVectors(rng, 1, 3)[0])
	if y.NextGID() != x.NextGID()+1 || y.LiveN() != x.LiveN()+1 {
		t.Fatalf("insert: next %d live %d, from %d %d", y.NextGID(), y.LiveN(), x.NextGID(), x.LiveN())
	}
	check("insert", y)
	dgids, _ := y.Delta()
	y, ok := y.Delete(dgids[1]) // a live delta point, past a tombstoned one
	if !ok || y.LiveN() != x.LiveN() || y.Tombstones()[len(y.Tombstones())-1] >= y.GIDs()[y.BaseN()] {
		t.Fatalf("delta delete: ok %v, live %d; the tombstoned delta points should be gone", ok, y.LiveN())
	}
	check("delta delete", y)
	base := y.GIDs()[1]
	y, ok = y.Delete(base)
	if !ok || !slices.Contains(y.Tombstones(), base) {
		t.Fatalf("base delete of %d: ok %v, tombstones %v", base, ok, y.Tombstones())
	}
	check("base delete", y)
	for _, gid := range []int{base, -1, y.NextGID(), 1} { // dead, never issued, a gap
		if _, ok := y.Delete(gid); ok {
			t.Errorf("Delete(%d) of no live point succeeded", gid)
		}
	}
	gids, pts := y.Live()
	z := y.Insert(pts[0]).Rebase(NewDB(metric.L2{}, pts), NewLinearScan(NewDB(metric.L2{}, pts)), gids)
	if z.BaseN() != len(gids) || z.LiveN() != len(gids)+1 || len(z.Tombstones()) != 0 {
		t.Fatalf("rebase: base %d live %d tombstones %v", z.BaseN(), z.LiveN(), z.Tombstones())
	}
	check("rebase", z)
	if after, _ := x.KNN(queries[0], 7); !slices.Equal(after, before) {
		t.Errorf("the writes changed the snapshot they started from: %v, was %v", after, before)
	}
}
