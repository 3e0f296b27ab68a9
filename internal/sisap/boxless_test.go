package sisap

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"distperm/internal/dataset"
	"distperm/internal/metric"
)

// TestFrozenOpenAllocsFlat: a self-contained mapped open boxes no point, so
// what it allocates does not grow with the store: the same count, to within
// a few objects, at 2 000 and at 8 000 points, and far below either.
func TestFrozenOpenAllocsFlat(t *testing.T) {
	allocs := make(map[int]float64)
	for _, n := range []int{2000, 8000} {
		db, rng := testDB(int64(n), n, 3, metric.L2{})
		path := writeFrozenFile(t, NewPermIndex(db, rng.Perm(n)[:6], Footrule))
		allocs[n] = testing.AllocsPerRun(20, func() {
			m, err := OpenMapped(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if m.DB().Points != nil {
				t.Fatal("a self-contained store opened with Points")
			}
			m.Close()
		})
	}
	t.Logf("allocations a mapped open: %v at n = 2000, %v at n = 8000", allocs[2000], allocs[8000])
	if d := math.Abs(allocs[8000] - allocs[2000]); d > 8 || allocs[2000] > 200 {
		t.Fatalf("a self-contained mapped open allocates %v objects at n = 2000 and %v at n = 8000, want the same few", allocs[2000], allocs[8000])
	}
}

// TestDBPointEveryOrigin: whatever a store was opened from, Point(i) is the
// heap-built store's point i bit for bit and N is its size — NaN payloads,
// signed zeros, denormals and infinities included.
func TestDBPointEveryOrigin(t *testing.T) {
	const n, d = 600, 3
	rng := rand.New(rand.NewSource(733))
	pts := dataset.ClusteredVectors(rng, n, d, 4, 0.05)
	for i, v := range []float64{math.Float64frombits(0x7ff8dead0000beef), math.Copysign(0, -1), 5e-324, math.Inf(1), -math.MaxFloat64} {
		pts[37*i+5].(metric.Vector)[i%d] = v
	}
	heap := NewDB(metric.L2{}, pts)
	idx := NewPermIndex(heap, rng.Perm(n)[:6], Footrule)
	image := frozenImage(t, idx)
	path := writeImage(t, image)
	origins := map[string]*DB{"heap": heap}
	for _, against := range []*DB{nil, heap} {
		_, decoded, err := openFrozenBytes(image, against, false)
		if err != nil {
			t.Fatal(err)
		}
		m, err := OpenMapped(path, against)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		label := "self-contained"
		if against != nil {
			label = "beside the caller's database"
		}
		origins["decoded "+label], origins["mapped "+label] = decoded, m.DB()
	}
	for name, db := range origins {
		if db.N() != n {
			t.Fatalf("%s: N() = %d, want %d", name, db.N(), n)
		}
		for i := range n {
			got, want := db.Point(i).(metric.Vector), heap.Points[i].(metric.Vector)
			for c := range want {
				if math.Float64bits(got[c]) != math.Float64bits(want[c]) || len(got) != d {
					t.Fatalf("%s: point %d is %v, want %v", name, i, got, want)
				}
			}
		}
	}
	if origins["mapped self-contained"].Points != nil || origins["decoded self-contained"].Points != nil {
		t.Fatal("a self-contained store opened with Points")
	}
}

// TestFrozenBoxlessBaselines: every index kind built over a self-contained
// store's database, which has no Points, answers as it does over the heap
// store's.
func TestFrozenBoxlessBaselines(t *testing.T) {
	heap, rng := testDB(734, 300, 3, metric.L2{})
	_, fdb, err := openFrozenBytes(frozenImage(t, NewPermIndex(heap, rng.Perm(300)[:6], Footrule)), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	parts := [][]int{{}, {}}
	for i := range 300 {
		parts[i%2] = append(parts[i%2], i)
	}
	build := map[string]func(*DB) Index{
		"laesa":  func(db *DB) Index { return NewLAESAMaxSpread(db, 5) },
		"aesa":   func(db *DB) Index { return NewAESA(db) },
		"iaesa":  func(db *DB) Index { return NewIAESA(db) },
		"vptree": func(db *DB) Index { return NewVPTree(db, rand.New(rand.NewSource(1))) },
		"ghtree": func(db *DB) Index { return NewGHTree(db, rand.New(rand.NewSource(1))) },
		"sharded": func(db *DB) Index {
			x, err := NewShardedIndex(db, parts, func(_ int, sdb *DB) (Index, error) { return NewLinearScan(sdb), nil })
			if err != nil {
				t.Fatal(err)
			}
			return x
		},
	}
	queries := dataset.UniformVectors(rng, 6, 3)
	for name, mk := range build {
		want, got := mk(heap), mk(fdb)
		for qi, q := range queries {
			w, _ := want.KNN(q, 4)
			g, _ := got.KNN(q, 4)
			sameBits(t, fmt.Sprintf("%s query %d", name, qi), g, w)
		}
	}
}

// TestFrozenGenericMetricBoxesOnce: a self-contained store under a metric
// DB.measure's kernels do not cover is measured through Metric.Distance on
// boxed points, so it boxes them once, at open: an exact query allocates a
// few objects, not one a point.
func TestFrozenGenericMetricBoxesOnce(t *testing.T) {
	db, rng := testDB(735, 2000, 4, metric.Angular{})
	x := mappedCopy(t, NewPermIndex(db, rng.Perm(db.N())[:6], Footrule), nil)
	q := dataset.UniformVectors(rng, 1, 4)[0]
	want, _ := NewLinearScan(db).KNN(q, 5)
	got, _ := x.KNN(q, 5)
	sameBits(t, "angular KNN", got, want)
	if allocs := testing.AllocsPerRun(10, func() { x.KNN(q, 5) }); allocs > 20 {
		t.Fatalf("an exact query over a self-contained angular store allocates %v objects", allocs)
	}
}

// TestKNNBudgetAllocsMatchHeap: a budgeted KNNBudget measures its candidates
// through DB.measure's kernels, reading each one's row, so on a self-contained
// mapped store it allocates what it does on the heap store it was frozen
// from — no boxed point a candidate — and answers the same, bit for bit.
func TestKNNBudgetAllocsMatchHeap(t *testing.T) {
	db, rng := testDB(736, 4000, 6, metric.L2{})
	heap := NewPermIndex(db, rng.Perm(db.N())[:8], Footrule)
	mapped := mappedCopy(t, heap, nil)
	if mapped.db.Points != nil {
		t.Fatal("a self-contained store opened with Points")
	}
	for qi, q := range dataset.UniformVectors(rng, 8, 6) {
		want, wst := heap.KNNBudget(q, 1, 64)
		got, gst := mapped.KNNBudget(q, 1, 64)
		sameBits(t, fmt.Sprintf("query %d", qi), got, want)
		if gst != wst {
			t.Fatalf("query %d: stats %+v, heap %+v", qi, gst, wst)
		}
	}
	q := dataset.UniformVectors(rng, 1, 6)[0]
	heapAllocs := testing.AllocsPerRun(50, func() { heap.KNNBudget(q, 1, 64) })
	mappedAllocs := testing.AllocsPerRun(50, func() { mapped.KNNBudget(q, 1, 64) })
	if mappedAllocs != heapAllocs {
		t.Fatalf("KNNBudget(q, 1, 64) allocates %v objects on the mapped store, %v on its heap twin", mappedAllocs, heapAllocs)
	}
}
