package sisap

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"distperm/internal/dataset"
	"distperm/internal/metric"
)

// The tests in this file pin the two claims the memory-order scans rest on:
// DB.measure's packed kernels produce the bits Metric.Distance produces, and
// what a knnHeap ends up holding depends on the candidate set alone. Their
// names share the TestFullSet prefix; CI runs that prefix a second time
// with -count=3 -shuffle=on.

// sameBits asserts two result lists agree in IDs and in the bit patterns of
// their distances.
func sameBits(t testing.TB, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
			t.Fatalf("%s: result %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// orderedReference answers a query the way the parent of the memory-order
// scan did: the candidates (all points when cand is nil) visited in
// permutation order via referenceScanOrder, each measured by
// Metric.Distance, pushed into the heap or kept within radius r when k is 0.
func orderedReference(x *PermIndex, q metric.Point, k int, r float64, cand map[int]bool) []Result {
	h := newKNNHeap(k)
	out := []Result{}
	for _, i := range x.referenceScanOrder(q) {
		if cand != nil && !cand[i] {
			continue
		}
		res := Result{ID: i, Distance: x.db.Metric.Distance(q, x.db.Point(i))}
		if k > 0 {
			h.push(res)
		} else if res.Distance <= r {
			out = append(out, res)
		}
	}
	if k > 0 {
		return (&collector{h: h}).results()
	}
	sortResults(out)
	return out
}

// referenceProbe recomputes an approximate query's probe schedule from the
// directory alone — buckets ranked by prefix footrule (ties by bucket
// number), widened past nprobe until k candidates outside dead are covered —
// and returns the candidate set with the stats the query must report: k site
// evaluations plus the points probeMeasured works out, the other candidates
// pruned.
func referenceProbe(x *PermIndex, q metric.Point, k, nprobe int, dead Tombs) (map[int]bool, ApproxStats) {
	pb := x.buckets()
	nb := pb.numBuckets()
	qinv := x.permuter.Permutation(q).Inverse()
	keys := make([]float64, nb)
	for b := range keys {
		for j, site := range pb.prefixes[b*pb.ell : (b+1)*pb.ell] {
			keys[b] += math.Abs(float64(j - qinv[site]))
		}
	}
	order := argsort(keys)
	cand := map[int]bool{}
	probed, live := 0, 0
	for probed < nb && (probed < nprobe || live < k) {
		b := order[probed]
		for _, pt := range pb.ptOrder[pb.ptStarts[b]:pb.ptStarts[b+1]] {
			cand[int(pt)] = true
			if !dead.Has(int(pt)) {
				live++
			}
		}
		probed++
	}
	if probed >= nb {
		return nil, ApproxStats{
			Stats: Stats{DistanceEvals: x.K() + x.db.N()}, ProbedBuckets: nb,
			TotalBuckets: nb, Candidates: x.db.N(), Exact: true,
		}
	}
	measured := probeMeasured(x, q, k, nprobe, order[:probed], cand, dead)
	return cand, ApproxStats{
		Stats: Stats{DistanceEvals: x.K() + measured, PrunedEvals: len(cand) - measured}, ProbedBuckets: probed,
		TotalBuckets: nb, Candidates: len(cand),
	}
}

// probeMeasured works out, cell by cell, how many points of the probed buckets
// a probe measures. Without bounds, all of them. With them, every point of the
// buckets probed before the last widening (the probe widens only while its
// limit is +Inf, which excludes nothing), and of the rest the cells not above
// D, the k-th live candidate distance: a bucket whose range and bisector terms
// are not, and in it each cell whose range term is not (a bucket of one cell
// is that cell). A best-first probe expands exactly those entries: the limit
// it compares with never falls below D, and reaches D before it pops any
// entry above D, as the answer's cells all lie below.
func probeMeasured(x *PermIndex, q metric.Point, k, nprobe int, probed []int, cand map[int]bool, dead Tombs) int {
	bb, lb, pb := x.bounds(), x.lb, x.buckets()
	if bb == nil {
		return len(cand)
	}
	var live []float64
	for id := range cand {
		if !dead.Has(id) {
			live = append(live, x.db.Metric.Distance(q, x.db.Point(id)))
		}
	}
	slices.Sort(live)
	limit, qd, s := live[k-1], make([]float64, x.K()), &permScratch{}
	for i, id := range x.siteIDs {
		qd[i] = x.db.Metric.Distance(x.db.Point(id), q)
	}
	if bb.inv != nil {
		bb.bisectors(qd, pb.ell, s)
	}
	measured := 0
	for i, b := range probed {
		c0, c1 := int(lb.bucketCells[b]), int(lb.bucketCells[b+1])
		key := bb.buckets.lowerBound(b, qd, math.Inf(1))
		for m := 0; s.gaps != nil && m < pb.ell; m++ {
			key = max(key, levelGap(pb.prefix(b), m, s.gaps))
		}
		for c := c0; c < c1; c++ {
			if i < len(probed)-1 && len(probed) > nprobe || !(key > limit) && (c1-c0 == 1 || !(bb.cells.lowerBound(c, qd, math.Inf(1)) > limit)) {
				measured += int(lb.cellStarts[c+1] - lb.cellStarts[c])
			}
		}
	}
	return measured
}

// checkSkip is the dead-set leg: with dead left out, KNN, Range (at the k-th
// live distance) and KNNApprox answer what LinearScan answers over the live
// points, and the kNN walk measures no more than the walk it replaces — KNN
// for k plus the dead count, then filtered. (A batch is that kNN walk per
// query: the engine's jobs walk through Walk.Search, as Scope.Search does.)
func checkSkip(t testing.TB, label string, x *PermIndex, q metric.Point, k int, dead Tombs) {
	t.Helper()
	n, sc := x.db.N(), Scope{Dead: dead}
	all, _ := NewLinearScan(x.db).KNN(q, n)
	live := slices.DeleteFunc(all, func(r Result) bool { return dead.Has(r.ID) })
	ndead := n - len(live)
	want := live[:min(k, len(live))]
	got, st := sc.Search(x, q, k, 0)
	sameBits(t, label+" KNN skipping", got, want)
	if _, inflated := x.KNN(q, min(k+ndead, n)); st.DistanceEvals > inflated.DistanceEvals {
		t.Fatalf("%s: the skipping walk measures %d, KNN for k + %d dead %d", label, st.DistanceEvals, ndead, inflated.DistanceEvals)
	}
	if len(want) > 0 {
		r := want[len(want)-1].Distance
		gotR, _ := sc.Search(x, q, 0, r)
		sameBits(t, label+" Range skipping", gotR, live[:sort.Search(len(live), func(i int) bool { return live[i].Distance > r })])
	}
	for _, nprobe := range []int{1, 4, x.ApproxBuckets()} {
		cand, wantA := referenceProbe(x, q, k, nprobe, dead)
		gotA, statsA := x.knnApprox(q, k, nprobe, sc)
		if wantA.Exact {
			wantA.Stats, cand = st, nil
		}
		for id := range cand {
			if dead.Has(id) {
				delete(cand, id)
			}
		}
		if wantA.Exact {
			sameBits(t, fmt.Sprintf("%s KNNApprox(nprobe=%d) skipping", label, nprobe), gotA, want)
		} else {
			sameBits(t, fmt.Sprintf("%s KNNApprox(nprobe=%d) skipping", label, nprobe), gotA, orderedReference(x, q, k, 0, cand))
		}
		if statsA != wantA {
			t.Fatalf("%s: KNNApprox(nprobe=%d) skipping stats %+v, want %+v", label, nprobe, statsA, wantA)
		}
	}
}

// fullSetStores returns idx as built, decoded from its frozen container onto
// the heap and opened in place from a mapping of it — the latter two over the
// container's embedded database, whose coordinate block is the points section
// itself, in idx's cells, labelled by the directory's posting list. A packed
// L1/L2/L∞ store gets bounds however small it is (forceBounds; idx before it is
// frozen, so that the frozen stores carry its cells and bounds), so its exact
// queries and probes here are the pruned walk, not the scan.
func fullSetStores(t *testing.T, idx *PermIndex) []permBackend {
	t.Helper()
	forceBounds(idx)
	image := frozenImage(t, idx)
	frozen, fdb, err := openFrozenBytes(image, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if fdb.dim != idx.db.dim || len(fdb.block) != len(idx.db.block) {
		t.Fatalf("frozen-heap database is not packed like the original: dim %d, block %d", fdb.dim, len(fdb.block))
	}
	return []permBackend{{"heap", idx}, {"frozen-heap", frozen}, {"mmap", openMappedPath(t, writeImage(t, image), nil)}}
}

func TestFullSetEquivalence(t *testing.T) {
	const n, sites, k = 240, 6, 7
	metrics := []metric.Metric{metric.L1{}, metric.L2{}, metric.LInf{}}
	for _, d := range []int{1, 2, 6, 17} {
		for _, shape := range []string{"uniform", "clustered", "duplicated"} {
			for mi, m := range metrics {
				rng := rand.New(rand.NewSource(int64(1000*d + 10*mi + len(shape))))
				var pts []metric.Point
				switch shape {
				case "uniform":
					pts = dataset.UniformVectors(rng, n, d)
				case "clustered":
					pts = dataset.ClusteredVectors(rng, n, d, 5, 0.05)
				case "duplicated":
					// Every point occurs three times, so every distance ties
					// across three IDs and the heap's ID tie-break decides.
					pts = dataset.UniformVectors(rng, n, d)
					for i := n / 3; i < n; i++ {
						pts[i] = pts[i%(n/3)]
					}
				}
				db := NewDB(m, pts)
				if db.dim != d || len(db.block) != n*d {
					t.Fatalf("d=%d %s: database not packed (dim %d, block %d)", d, shape, db.dim, len(db.block))
				}
				idx := NewPermIndex(db, rng.Perm(n)[:sites], Footrule)
				queries := dataset.UniformVectors(rng, 3, d)
				queries = append(queries, pts[0], pts[n-1]) // sitting on (duplicated) points
				source := NewLinearScan(db)
				// What the stores report, per query and form: every origin
				// laid out alike — in idx's cells, or one cell per bucket
				// (PFR3) — must report the same, to the digit, and a probe
				// that does not cover the directory what referenceProbe
				// works out over the store's own cells.
				type cost struct {
					knn, rng Stats
					approx   [3]ApproxStats
				}
				built := map[int][]cost{} // keyed by the cells bounded
				for _, st := range fullSetStores(t, idx) {
					x := st.idx
					label := fmt.Sprintf("d=%d/%s/%s/%s", d, shape, m.Name(), st.name)
					// The oracle over the store as opened, which must be the
					// oracle over the source: Points[id] is point id whatever
					// order the block lies in.
					linear := NewLinearScan(x.db)
					// The cost contract: k site evaluations plus the points
					// measured — every point for KNNBudget(n), and for the
					// pruned paths at least the answers themselves, with the
					// points a bound excluded accounted for, not lost. A batch
					// is the scalar walk per query, so it costs the same.
					wantStats := Stats{DistanceEvals: sites + n}
					honest := func(st Stats, answers int) bool {
						return st.DistanceEvals+st.PrunedEvals == sites+n && st.DistanceEvals >= sites+answers
					}
					batch, batchStats := x.KNNBatch(queries, k)
					for qi, q := range queries {
						want, _ := source.KNN(q, k)
						opened, _ := linear.KNN(q, k)
						sameBits(t, label+" LinearScan over the opened database", opened, want)
						sameBits(t, label+" ordered reference", orderedReference(x, q, k, 0, nil), want)
						got, knnStats := x.KNN(q, k)
						sameBits(t, label+" KNN", got, want)
						sameBits(t, label+" KNNBatch", batch[qi], want)
						full, fullStats := x.KNNBudget(q, k, n)
						sameBits(t, label+" KNNBudget(n)", full, want)
						if fullStats != wantStats {
							t.Fatalf("%s: KNNBudget(n) stats %+v, want %+v", label, fullStats, wantStats)
						}
						if !honest(knnStats, k) || batchStats[qi] != knnStats {
							t.Fatalf("%s: KNN stats %+v, batch %+v, want k + measured for both, equal", label, knnStats, batchStats[qi])
						}

						r := want[k-1].Distance
						wantR, _ := linear.Range(q, r)
						sameBits(t, label+" range reference", orderedReference(x, q, 0, r, nil), wantR)
						gotR, stats := x.Range(q, r)
						sameBits(t, label+" Range", gotR, wantR)
						if !honest(stats, len(wantR)) {
							t.Fatalf("%s: Range stats %+v, want k + measured of %d", label, stats, sites+n)
						}
						if cap(gotR) >= n {
							t.Fatalf("%s: Range sized its %d results for the whole database (cap %d)", label, len(gotR), cap(gotR))
						}
						if none, _ := x.Range(q, -1); len(none) != 0 {
							t.Fatalf("%s: Range(-1) returned %v", label, none)
						}

						// Dead: the answer, and every seventh point from qi on.
						dead := Tombs{}
						for _, r := range want {
							dead = dead.With(r.ID)
						}
						for i := qi; i < n; i += 7 {
							dead = dead.With(i)
						}
						checkSkip(t, label, x, q, k, dead)

						this := cost{knn: knnStats, rng: stats}
						for pi, nprobe := range []int{1, 4, x.ApproxBuckets()} {
							cand, wantA := referenceProbe(x, q, k, nprobe, nil)
							if wantA.Exact {
								wantA.Stats = knnStats // full coverage is KNN, bounds and all
							}
							gotA, statsA := x.KNNApprox(q, k, nprobe)
							sameBits(t, fmt.Sprintf("%s KNNApprox(nprobe=%d)", label, nprobe), gotA, orderedReference(x, q, k, 0, cand))
							if statsA != wantA {
								t.Fatalf("%s: KNNApprox(nprobe=%d) stats %+v, want %+v", label, nprobe, statsA, wantA)
							}
							if wantA.Exact {
								sameBits(t, label+" KNNApprox at full coverage", gotA, want)
							}
							this.approx[pi] = statsA
						}
						cells := x.BoundCells()
						if qi == len(built[cells]) {
							built[cells] = append(built[cells], this)
						} else if this != built[cells][qi] {
							t.Fatalf("%s query %d: costs %+v, a store laid out alike %+v", label, qi, this, built[cells][qi])
						}
					}
				}
			}
		}
	}
}

// TestFullSetHeapOrderIndependence is the set-determinism claim on its own:
// one candidate multiset, pushed ascending, descending and shuffled, leaves
// every heap size with the same results.
func TestFullSetHeapOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cands := make([]Result, 500)
	for i := range cands {
		// Eight distinct distances: long runs of ties decided by ID.
		cands[i] = Result{ID: i, Distance: float64(rng.Intn(8)) / 4}
	}
	cands = append(cands, cands[:40]...) // a multiset: some candidates offered twice
	ascending := append([]Result(nil), cands...)
	sortResults(ascending)
	descending := make([]Result, len(ascending))
	for i, r := range ascending {
		descending[len(ascending)-1-i] = r
	}
	orders := [][]Result{ascending, descending}
	for s := 0; s < 5; s++ {
		shuffled := append([]Result(nil), cands...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		orders = append(orders, shuffled)
	}
	for _, k := range []int{1, 7, 64, len(cands), len(cands) + 10} {
		var want []Result
		for oi, order := range orders {
			h := newKNNHeap(k)
			for _, r := range order {
				h.push(r)
			}
			if got := (&collector{h: h}).results(); oi == 0 {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d: order %d left the heap with different results", k, oi)
			}
		}
		if wantLen := min(k, len(cands)); len(want) != wantLen {
			t.Fatalf("k=%d: %d results, want %d", k, len(want), wantLen)
		}
	}
}

// zeroPadL1 is L1 over vectors of any lengths, the shorter padded with
// zeros — a metric a ragged database can be measured under.
type zeroPadL1 struct{}

func (zeroPadL1) Name() string { return "zero-pad-L1" }

func (zeroPadL1) Distance(a, b metric.Point) float64 {
	x, y := a.(metric.Vector), b.(metric.Vector)
	if len(x) < len(y) {
		x, y = y, x
	}
	var s float64
	for i := range x {
		if i < len(y) {
			s += math.Abs(x[i] - y[i])
		} else {
			s += math.Abs(x[i])
		}
	}
	return s
}

// TestFullSetFallbacks drives the databases and metrics the packed kernels
// do not cover through the same entry points: they take the generic
// Metric.Distance loop and still answer like LinearScan.
func TestFullSetFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	strs, _ := stringDB(300)
	ragged := make([]metric.Point, 300)
	for i := range ragged {
		ragged[i] = dataset.UniformVectors(rng, 1, 1+i%4)[0]
	}
	vecs := dataset.UniformVectors(rng, 300, 5)
	for i := range vecs { // keep Angular away from the zero vector
		vecs[i].(metric.Vector)[0] += 0.5
	}
	cases := []struct {
		name    string
		db      *DB
		packed  bool
		queries []metric.Point
	}{
		{"edit/strings", strs, false, []metric.Point{strs.Points[3], metric.String("zymurgy"), metric.String("")}},
		{"zero-pad-L1/ragged", NewDB(zeroPadL1{}, ragged), false, []metric.Point{ragged[5], metric.Vector{0.3}, metric.Vector{0.1, 0.9, 0.4, 0.2, 0.7}}},
		{"angular/packed", NewDB(metric.Angular{}, vecs), true, []metric.Point{vecs[9], metric.Vector{1, 0.2, 0.3, 0.4, 0.5}}},
		{"L3/packed", NewDB(metric.LP{P: 3}, dataset.UniformVectors(rng, 300, 5)), true, dataset.UniformVectors(rng, 3, 5)},
	}
	for _, tc := range cases {
		if (tc.db.dim > 0) != tc.packed {
			t.Fatalf("%s: packed = %v, want %v", tc.name, tc.db.dim > 0, tc.packed)
		}
		n := tc.db.N()
		idx := NewPermIndex(tc.db, rng.Perm(n)[:6], Footrule)
		linear := NewLinearScan(tc.db)
		batch, _ := idx.KNNBatch(tc.queries, 9)
		for qi, q := range tc.queries {
			want, _ := linear.KNN(q, 9)
			got, stats := idx.KNN(q, 9)
			sameBits(t, tc.name+" KNN", got, want)
			sameBits(t, tc.name+" KNNBatch", batch[qi], want)
			if stats.DistanceEvals != 6+n {
				t.Fatalf("%s: KNN stats %+v", tc.name, stats)
			}
			wantR, _ := linear.Range(q, want[8].Distance)
			gotR, _ := idx.Range(q, want[8].Distance)
			sameBits(t, tc.name+" Range", gotR, wantR)
			for _, nprobe := range []int{1, 3, idx.ApproxBuckets()} {
				cand, wantA := referenceProbe(idx, q, 9, nprobe, nil)
				gotA, statsA := idx.KNNApprox(q, 9, nprobe)
				sameBits(t, fmt.Sprintf("%s KNNApprox(nprobe=%d)", tc.name, nprobe), gotA, orderedReference(idx, q, 9, 0, cand))
				if statsA != wantA {
					t.Fatalf("%s: KNNApprox(nprobe=%d) stats %+v, want %+v", tc.name, nprobe, statsA, wantA)
				}
			}
		}
	}
}

// TestFullSetDimensionMismatch: a query of the wrong dimension must fail a
// packed scan with the message the metric itself gives, not read past a
// point's coordinates.
func TestFullSetDimensionMismatch(t *testing.T) {
	panicOf := func(f func()) (msg interface{}) {
		defer func() { msg = recover() }()
		f()
		return nil
	}
	db, rng := testDB(44, 100, 3, metric.L2{})
	idx := NewPermIndex(db, rng.Perm(100)[:4], Footrule)
	for _, q := range []metric.Point{metric.Vector{0.5, 0.5}, metric.Vector{0.5, 0.5, 0.5, 0.5}, metric.String("x")} {
		// The scans measure (query, point) like LinearScan; the approximate
		// path fails earlier, in the query permutation's (site, query) call.
		want := panicOf(func() { metric.L2{}.Distance(q, db.Points[0]) })
		wantSite := panicOf(func() { metric.L2{}.Distance(db.Points[0], q) })
		if want == nil || wantSite == nil {
			t.Fatalf("metric.L2 accepted %v", q)
		}
		for _, tc := range []struct {
			name string
			f    func()
			want interface{}
		}{
			{"KNN", func() { idx.KNN(q, 3) }, want},
			{"KNNBatch", func() { idx.KNNBatch([]metric.Point{q}, 3) }, want},
			{"Range", func() { idx.Range(q, 0.5) }, want},
			{"KNNApprox", func() { idx.KNNApprox(q, 3, 1) }, wantSite},
		} {
			if got := panicOf(tc.f); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s(%v) panicked with %v, want %v", tc.name, q, got, tc.want)
			}
		}
	}
}

// TestFullSetBudgetClamp pins the budget's range: negative budgets used to
// panic allocating the order slice, and budgets of n or more are the
// exhaustive scan.
func TestFullSetBudgetClamp(t *testing.T) {
	db, rng := testDB(45, 150, 3, metric.L2{})
	idx := NewPermIndex(db, rng.Perm(150)[:5], Footrule)
	q := metric.Vector{0.4, 0.5, 0.6}
	exact, _ := NewLinearScan(db).KNN(q, 4)
	for _, tc := range []struct {
		budget, evals int
		want          []Result
	}{
		{-3, 5, nil},
		{0, 5, nil},
		{150, 155, exact},
		{1 << 40, 155, exact},
	} {
		got, stats := idx.KNNBudget(q, 4, tc.budget)
		sameBits(t, fmt.Sprintf("KNNBudget(%d)", tc.budget), got, tc.want)
		if stats.DistanceEvals != tc.evals {
			t.Errorf("budget %d: evals %d, want %d", tc.budget, stats.DistanceEvals, tc.evals)
		}
	}
}
