package sisap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"distperm/internal/dataset"
	"distperm/internal/metric"
)

// The tests in this file pin the bucket walk (PermIndex.search): its bounds
// never exceed a computed distance, and the answers it prunes its way to
// are LinearScan's, element for element, where pruning is most likely to
// bite — ties across a bucket boundary and a radius that sits exactly on a
// stored distance. CI runs the TestPruned and TestBound prefixes again with
// -race -count=3 -shuffle=on.

var boundMetrics = []metric.Metric{metric.L1{}, metric.L2{}, metric.LInf{}}

// forceBounds computes x's bounds through the Once every exact query goes
// through, but without the rule that leaves a finely cut store unbounded
// (boundMinFill): the hostile stores these tests build are a few hundred
// points, and a walk over them is slow, not wrong — what is pinned here is
// that it is not wrong.
func forceBounds(x *PermIndex) *bucketBounds {
	x.lb.boundsOnce.Do(func() { x.lb.bounds = x.siteBounds(0) })
	return x.lb.bounds
}

// prunedStores returns idx over every origin a store can have: as built,
// decoded from a PTBL container, and decoded or mapped from a frozen one of
// each revision. A PFR4 store opened with no database walks the bounds its
// file carries (idx's, forced before freezing); every other store computes
// its own, here whatever its size (forceBounds).
func prunedStores(t *testing.T, idx *PermIndex) []permBackend {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteIndex(&buf, idx); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(&buf, idx.db)
	if err != nil {
		t.Fatal(err)
	}
	stores := append(fullSetStores(t, idx), permBackend{"ptbl", loaded.(*PermIndex)})
	for _, st := range stores {
		if forceBounds(st.idx) == nil {
			t.Fatalf("%s: a packed store has no bounds", st.name)
		}
	}
	return stores
}

// boundShapes are the point sets the bound must survive: no structure,
// every point three times over, and all points on one line — where the
// triangle inequality is tight and only the rounding slack keeps the
// computed bound under the computed distance.
func boundShapes(rng *rand.Rand, n, d int) map[string][]metric.Point {
	duplicated := dataset.UniformVectors(rng, n, d)
	for i := n / 3; i < n; i++ {
		duplicated[i] = duplicated[i%(n/3)]
	}
	collinear := make([]metric.Point, n)
	from, dir := dataset.UniformVectors(rng, 1, d)[0].(metric.Vector), dataset.UniformVectors(rng, 1, d)[0].(metric.Vector)
	for i := range collinear {
		v, t := make(metric.Vector, d), rng.Float64()
		for j := range v {
			v[j] = from[j] + t*dir[j]
		}
		collinear[i] = v
	}
	return map[string][]metric.Point{
		"uniform":    dataset.UniformVectors(rng, n, d),
		"clustered":  dataset.ClusteredVectors(rng, n, d, 4, 0.05),
		"duplicated": duplicated,
		"collinear":  collinear,
	}
}

// bisectorTerms returns every bucket's bisector term for a query at computed
// distances qd from the sites of x, an L2 store with a table — the walk's own
// per-level step (levelGap) folded over the bucket's prefix, one bucket at a
// time — the prefix of the query's own cell, its ℓ nearest sites (near), and
// the sites' gaps (bisectors).
func bisectorTerms(x *PermIndex, qd []float64) ([]float64, []uint32, []siteGap) {
	bb, pb, s := x.bounds(), x.buckets(), &permScratch{}
	bb.bisectors(qd, pb.ell, s)
	terms := make([]float64, pb.numBuckets())
	for b := range terms {
		for m := range pb.ell {
			terms[b] = max(terms[b], levelGap(pb.prefix(b), m, s.gaps))
		}
	}
	return terms, s.near[:pb.ell], s.gaps
}

// TestBoundSoundness: for every bucket b, every cell c of it and every point
// p in c, the slack-shrunk LB(b) and LB(c) are at most the distance the
// metric computes from the query to p — for queries inside the data, on a
// site, on a data point, on the data's line, and far outside it — and so, under
// L2, is b's bisector term. The bisector term must exclude, at the query's
// nearest distance, some bucket the range term keeps.
func TestBoundSoundness(t *testing.T) {
	const n, sites = 180, 5
	positive, split, bisectorOnly := 0, 0, 0
	for d := 1; d <= 8; d++ {
		for mi, m := range boundMetrics {
			rng := rand.New(rand.NewSource(int64(100*d + mi)))
			for shape, pts := range boundShapes(rng, n, d) {
				db := NewDB(m, pts)
				idx := NewPermIndex(db, rng.Perm(n)[:sites], Footrule)
				bb, lb := forceBounds(idx), idx.lb
				_, l2 := m.(metric.L2)
				if bb == nil || l2 == (bb.inv == nil) {
					t.Fatalf("d=%d %s %s: a packed store has no bounds, or an L2 store built here no bisector table, or an L1/L∞ store one", d, m.Name(), shape)
				}
				split += int(lb.bucketCells[len(lb.bucketCells)-1]) - idx.ApproxBuckets()
				queries := dataset.UniformVectors(rng, 6, d)
				queries = append(queries, pts[idx.siteIDs[0]], pts[idx.siteIDs[sites-1]], pts[rng.Intn(n)], pts[rng.Intn(n)])
				a, b := pts[0].(metric.Vector), pts[1].(metric.Vector)
				for _, scale := range []float64{-1e6, -3, 0.5, 2, 1e9} { // along the line through two data points
					v := make(metric.Vector, d)
					for j := range v {
						v[j] = a[j] + scale*(b[j]-a[j])
					}
					queries = append(queries, v)
				}
				qd := make([]float64, sites)
				for qi, q := range queries {
					for i, id := range idx.siteIDs {
						qd[i] = m.Distance(q, pts[id])
					}
					bisector := make([]float64, idx.ApproxBuckets()) // L1/L∞: no term
					if l2 {
						bisector, _, _ = bisectorTerms(idx, qd)
					}
					nearest := math.Inf(1)
					for _, p := range pts {
						nearest = min(nearest, m.Distance(q, p))
					}
					for bk := range len(lb.bucketCells) - 1 {
						bucketLB := bb.buckets.lowerBound(bk, qd, math.Inf(1))
						if bisector[bk] > nearest && !(bucketLB > nearest) {
							bisectorOnly++
						}
						for c := lb.bucketCells[bk]; c < lb.bucketCells[bk+1]; c++ {
							cellLB := bb.cells.lowerBound(int(c), qd, math.Inf(1))
							if cellLB > 0 {
								positive++
							}
							for _, id := range lb.labels[lb.cellStarts[c]:lb.cellStarts[c+1]] {
								if dist := m.Distance(q, pts[id]); cellLB > dist || bucketLB > dist || bisector[bk] > dist {
									t.Fatalf("d=%d %s %s query %d: LB(cell %d) = %v, LB(bucket %d) = %v or its bisector term %v exceeds d(q, point %d) = %v",
										d, m.Name(), shape, qi, c, cellLB, bk, bucketLB, bisector[bk], id, dist)
								}
							}
						}
					}
				}
			}
		}
	}
	if positive == 0 || split == 0 || bisectorOnly == 0 {
		t.Fatalf("%d positive bounds, %d cells beyond one a bucket, %d buckets only the bisector term excludes: the property held vacuously",
			positive, split, bisectorOnly)
	}
}

// TestBoundBisectorOwnBucket: a query on a data point lists the sites in the
// order of that point's own prefix, so that point's bucket — the query's own —
// is at bisector term 0, on every L2 shape.
func TestBoundBisectorOwnBucket(t *testing.T) {
	const n, sites = 600, 8
	rng := rand.New(rand.NewSource(41))
	for shape, pts := range boundShapes(rng, n, 3) {
		idx := NewPermIndex(NewDB(metric.L2{}, pts), rng.Perm(n)[:sites], Footrule)
		forceBounds(idx)
		pb, positive := idx.buckets(), 0
		qd := make([]float64, sites)
		for b := range pb.numBuckets() {
			for _, id := range pb.ptOrder[pb.ptStarts[b]:pb.ptStarts[b+1]] {
				for i, site := range idx.siteIDs {
					qd[i] = idx.db.Metric.Distance(pts[id], pts[site])
				}
				terms, own, _ := bisectorTerms(idx, qd)
				if !slices.Equal(own, pb.prefix(b)) || terms[b] != 0 {
					t.Fatalf("%s: point %d, of prefix %v, has the query prefix %v and bisector term %v", shape, id, pb.prefix(b), own, terms[b])
				}
				for _, l := range terms {
					if l > 0 {
						positive++
					}
				}
			}
		}
		if positive == 0 {
			t.Fatalf("%s: no bucket had a positive bisector term", shape)
		}
	}
}

// TestBoundDescent: at a fixed limit, the walk's frontier, searched from the
// trie's root by a pop loop of the test's own at front −Inf (so that every
// entry within the limit is queued, and seen), reaches exactly the buckets
// whose bisector term, folded one bucket at a time (bisectorTerms), is at most
// the limit, each once, in ascending term and with that term bit for bit — so
// no bucket could get a range term while its term is above the limit — at
// limit 0, at the query's true k-th distance and at +Inf, on every L2 shape at
// d = 1…8. Some excluded bucket must share the first site that excludes it
// with another, or no trie node was ever dropped whole.
func TestBoundDescent(t *testing.T) {
	const n, sites, k = 400, 7, 10
	runs := 0
	for d := 1; d <= 8; d++ {
		rng := rand.New(rand.NewSource(int64(450 + d)))
		for shape, pts := range boundShapes(rng, n, d) {
			idx := NewPermIndex(NewDB(metric.L2{}, pts), rng.Perm(n)[:sites], Footrule)
			bb, pb := forceBounds(idx), idx.buckets()
			if bb.inv == nil {
				t.Fatalf("d=%d %s: an L2 store built here has no bisector table", d, shape)
			}
			firsts := make(map[uint32]int) // buckets per first site
			for b := range pb.numBuckets() {
				firsts[pb.prefix(b)[0]]++
			}
			linear, qd := NewLinearScan(idx.db), make([]float64, sites)
			for qi, q := range append(dataset.UniformVectors(rng, 6, d), pts[rng.Intn(n)]) {
				for i, id := range idx.siteIDs {
					qd[i] = idx.db.Metric.Distance(q, pts[id])
				}
				want, _, gaps := bisectorTerms(idx, qd)
				truth, _ := linear.KNN(q, k)
				for _, limit := range []float64{0, truth[k-1].Distance, math.Inf(1)} {
					got, reached := make([]float64, len(want)), make([]int, len(want))
					w := walk{x: idx, bb: bb, q: q, c: &collector{r: limit}, qd: qd, gaps: gaps, front: math.Inf(-1)}
					last := math.Inf(-1)
					for w.push(entry{0, 0, len(bb.byPrefix), 0}); len(w.heap) > 0; {
						e := w.pop()
						if e.lb < last || e.m > pb.ell || e.m == pb.ell && e.hi-e.lo != 1 {
							t.Fatalf("d=%d %s query %d, limit %v: entry %+v popped after one at %v", d, shape, qi, limit, e, last)
						}
						if last = e.lb; e.m < pb.ell {
							w.expand(e)
							continue
						}
						b := bb.byPrefix[e.lo]
						got[b], reached[b] = e.lb, reached[b]+1
					}
					for b, term := range want {
						if reached[b] != 1 && !(term > limit) || reached[b] != 0 && term > limit || reached[b] == 1 && math.Float64bits(got[b]) != math.Float64bits(term) {
							t.Fatalf("d=%d %s query %d, limit %v: bucket %d, of term %v, reached %d times at term %v", d, shape, qi, limit, b, term, reached[b], got[b])
						}
						if first := pb.prefix(b)[0]; term > limit && levelGap(pb.prefix(b), 0, gaps) > limit && firsts[first] > 1 {
							runs++
						}
					}
				}
			}
		}
	}
	if runs == 0 {
		t.Fatal("no excluded first site led more than one bucket: the frontier never dropped a node whole")
	}
}

// TestPrunedPrefixLenK: a directory whose prefixes are whole permutations,
// ℓ = k past maxAutoPrefixLen (a PFR3 file may carry one), descends all k
// levels and still answers exact kNN and range queries like LinearScan.
func TestPrunedPrefixLenK(t *testing.T) {
	const n, sites = 1500, 10
	rng := rand.New(rand.NewSource(47))
	pts := dataset.ClusteredVectors(rng, n, 3, 6, 0.1)
	idx := NewPermIndex(NewDB(metric.L2{}, pts), rng.Perm(n)[:sites], Footrule)
	idx.configurePrefixBuckets(sites)
	if bb := forceBounds(idx); idx.PrefixLen() != sites || sites <= maxAutoPrefixLen || bb.inv == nil {
		t.Fatalf("ℓ = %d of k = %d sites, bisector table %v", idx.PrefixLen(), sites, bb.inv != nil)
	}
	linear, pruned := NewLinearScan(idx.db), 0
	for qi, q := range append(dataset.UniformVectors(rng, 20, 3), pts[:5]...) {
		for _, k := range []int{1, 10} {
			want, _ := linear.KNN(q, k)
			got, st := idx.KNN(q, k)
			sameBits(t, fmt.Sprintf("query %d, %d-NN", qi, k), got, want)
			pruned += st.PrunedEvals
			within, _ := linear.Range(q, want[k-1].Distance)
			got, _ = idx.Range(q, want[k-1].Distance)
			sameBits(t, fmt.Sprintf("query %d, range at the %d-th distance", qi, k), got, within)
		}
	}
	if pruned == 0 {
		t.Fatal("no query pruned a point: the property held vacuously")
	}
}

// TestPrunedNaNExpanded: a run pushed at LB NaN, which never prunes, is
// expanded at once like one at LB 0 (its cells measured or queued at their
// own, positive, LBs), never queued whole; one at a positive LB within the
// limit is queued whole, and one above it dropped.
func TestPrunedNaNExpanded(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	pts := dataset.ClusteredVectors(rng, 600, 2, 3, 0.1)
	idx := NewPermIndex(NewDB(metric.L2{}, pts), rng.Perm(600)[:5], Footrule)
	bb, lb, q := forceBounds(idx), idx.lb, dataset.UniformVectors(rng, 1, 2)[0]
	qd := make([]float64, idx.K())
	for i, id := range idx.siteIDs {
		qd[i] = idx.db.Metric.Distance(q, pts[id])
	}
	split, cells := 0, idx.PrefixLen()+1
	for b := range idx.ApproxBuckets() {
		c0, c1 := int(lb.bucketCells[b]), int(lb.bucketCells[b+1])
		size := int(lb.cellStarts[c1] - lb.cellStarts[c0])
		split += c1 - c0 - 1
		for _, l := range []float64{math.NaN(), 0, 1, 3} {
			w := walk{x: idx, bb: bb, q: q, c: &collector{r: 2}, qd: qd}
			w.push(entry{l, c0, c1, cells})
			queued := w.measured
			for _, e := range w.heap {
				if e.hi-e.lo != 1 || !(e.lb > 0) {
					queued = -1
					break
				}
				queued += int(lb.cellStarts[e.hi] - lb.cellStarts[e.lo])
			}
			switch whole := len(w.heap) == 1 && w.heap[0] == (entry{l, c0, c1, cells}) && w.measured == 0; {
			case l == 1 && !whole, l == 3 && (len(w.heap) > 0 || w.measured > 0), !(l > 0) && queued != size:
				t.Fatalf("bucket %d (%d cells, %d points) pushed at %v: %d points measured, frontier %v", b, c1-c0, size, l, w.measured, w.heap)
			}
		}
	}
	if split == 0 {
		t.Fatal("no bucket of several cells: expansion was never more than a visit")
	}
}

// TestPrunedStrictStop: an entry whose LB equals the k-th distance is still
// expanded, by push and by drain, so a point at exactly that distance with a
// lower ID than the k-th is collected, as the (distance, ID) tie-break of
// LinearScan requires. The rounding slack keeps real LBs below the distances
// they bound, so only an entry queued at the limit itself reaches the case.
func TestPrunedStrictStop(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	pts := dataset.ClusteredVectors(rng, 600, 2, 3, 0.1)
	idx := NewPermIndex(NewDB(metric.L2{}, pts), rng.Perm(600)[:5], Footrule)
	bb, lb, q := forceBounds(idx), idx.lb, dataset.UniformVectors(rng, 1, 2)[0]
	cell, cells := 0, idx.PrefixLen()+1
	tied, limit := -1, math.Inf(1) // the cell's nearest point
	for _, id := range lb.labels[lb.cellStarts[cell]:lb.cellStarts[cell+1]] {
		if d := idx.db.Metric.Distance(q, pts[id]); d < limit || d == limit && int(id) < tied {
			tied, limit = int(id), d
		}
	}
	c := &collector{h: newKNNHeap(1)}
	c.add(len(pts), limit) // the k-th: at the limit, under an ID above every point's
	w := walk{x: idx, bb: bb, q: q, c: c}
	w.push(entry{limit, cell, cell + 1, cells})
	if len(w.heap) != 1 || w.measured != 0 {
		t.Fatalf("a cell pushed at LB = limit %v above front 0: frontier %v, %d measured, want it queued", limit, w.heap, w.measured)
	}
	w.drain()
	if got := c.results(); w.measured == 0 || len(got) != 1 || got[0].ID != tied || got[0].Distance != limit {
		t.Errorf("after the drain: %v (%d measured), want point %d at %v, the tie's lower ID", got, w.measured, tied, limit)
	}
}

// TestBoundNonFinite:an interval that is not finite, or a query whose site
// distances are not, must never prune.
func TestBoundNonFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range [][2]float64{{inf, 1}, {1, inf}, {inf, inf}, {nan, 1}, {1, nan}, {math.MaxFloat64, math.MaxFloat64}} {
		if lb := lowerBound(tc[0], tc[1]); lb > 0 { // 0 or NaN: greater than nothing
			t.Errorf("lowerBound(%v, %v) = %v, which would prune", tc[0], tc[1], lb)
		}
	}
	// One point with a NaN coordinate poisons its bucket's intervals, which
	// then exclude nothing; every other bucket still bounds a far query.
	rng := rand.New(rand.NewSource(3))
	pts := dataset.UniformVectors(rng, 120, 2)
	pts[7] = metric.Vector{nan, 0.5}
	db := NewDB(metric.L2{}, pts)
	idx := NewPermIndex(db, []int{1, 2, 3, 4}, Footrule)
	bb, pb := forceBounds(idx), idx.buckets()
	far := []float64{50, 50, 50, 50}
	// The NaN point is on no bucket's prefix (onPrefix), which turns the
	// bisector term off for the whole store.
	if bb.inv != nil {
		t.Error("a store holding a NaN point has a bisector table")
	}
	for b := 0; b < pb.numBuckets(); b++ {
		holdsNaN := false
		for _, id := range pb.ptOrder[pb.ptStarts[b]:pb.ptStarts[b+1]] {
			holdsNaN = holdsNaN || id == 7
		}
		if lb := bb.buckets.lowerBound(b, far, math.Inf(1)); holdsNaN != (lb == 0) {
			t.Errorf("bucket %d (holds the NaN point: %v) has LB %v for a far query", b, holdsNaN, lb)
		}
	}
	// Coincident sites (sites 1 and 2 on one point) have no bisector, and a
	// query with a NaN coordinate, NaN from every site, prunes nothing. (Its
	// answer is not LinearScan's: NaN distances do not order, so the heap
	// keeps whichever it met first, at the parent as here.)
	pts = dataset.UniformVectors(rng, 120, 2)
	pts[2] = slices.Clone(pts[1].(metric.Vector))
	idx = NewPermIndex(NewDB(metric.L2{}, pts), []int{0, 1, 2, 3}, Footrule)
	bb, k := forceBounds(idx), idx.K()
	for a := range k {
		for s := range k {
			if coincident := a == s || a+s == 3 && a*s == 2; coincident != (bb.inv[a*k+s] == 0) {
				t.Errorf("sites %d and %d: bisector factor %v", a, s, bb.inv[a*k+s])
			}
		}
	}
	linear := NewLinearScan(idx.db)
	for _, q := range []metric.Point{pts[1], pts[2], metric.Vector{0.5, 0.5}} {
		want, _ := linear.KNN(q, 5)
		got, _ := idx.KNN(q, 5)
		sameBits(t, fmt.Sprintf("query %v", q), got, want)
	}
	if _, st := idx.KNN(metric.Vector{nan, 0.5}, 5); st.PrunedEvals != 0 {
		t.Errorf("a NaN query pruned %d points", st.PrunedEvals)
	}
	if terms, _, _ := bisectorTerms(idx, []float64{nan, nan, nan, nan}); slices.Max(terms) != 0 {
		t.Errorf("a query at NaN from every site has bisector terms %v", terms)
	}
}

// TestBoundBisectorNeedsItsPoints: a PTBL container read beside a database
// of the right size but other points carries prefixes its points do not have.
// The range bounds come from the points and stay sound; the bisector term
// would not, so the sweep that finds a point off its bucket's prefix turns it
// off and the answers stay LinearScan's.
func TestBoundBisectorNeedsItsPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	idx := NewPermIndex(NewDB(metric.L2{}, dataset.UniformVectors(rng, 2000, 2)), rng.Perm(2000)[:8], Footrule)
	var buf bytes.Buffer
	if _, err := WriteIndex(&buf, idx); err != nil {
		t.Fatal(err)
	}
	other := NewDB(metric.L2{}, dataset.UniformVectors(rng, 2000, 2))
	loaded, err := ReadIndex(&buf, other)
	if err != nil {
		t.Fatal(err)
	}
	x := loaded.(*PermIndex)
	if bb := forceBounds(x); bb.inv != nil || forceBounds(idx).inv == nil {
		t.Fatal("the bisector term is on over a table that is not its points', or off over one that is")
	}
	linear := NewLinearScan(other)
	for qi, q := range dataset.UniformVectors(rng, 200, 2) {
		want, _ := linear.KNN(q, 5)
		got, _ := x.KNN(q, 5)
		sameBits(t, fmt.Sprintf("query %d", qi), got, want)
	}
}

// TestBoundRowsLayout: the bucket-major rows hold point labels[j] in row j,
// bit for bit — NaN payloads, signed zeros, denormals and infinities included
// — on every store origin, Points[id] is the source's point whatever order the
// block lies in. Every bucket's
// run of labels is the set the as-built store's ptOrder lists for it, cut into
// cells of ascending IDs. A store opened from a PFR3 or PFR4 container, mapped
// or decoded, has no copy to compare: its rows are its database's block, the
// file's points section as it lies, labelled by ptOrder — one cell per bucket
// under PFR3, under PFR4 the cells of the store it was frozen from. Every
// other origin keeps an ID-ordered block and the one copy of it, in cells
// under labels of its own.
func TestBoundRowsLayout(t *testing.T) {
	const n, d = 400, 3
	rng := rand.New(rand.NewSource(5))
	pts := dataset.ClusteredVectors(rng, n, d, 4, 0.05)
	for i, v := range []float64{math.NaN(), math.Float64frombits(0x7ff8dead0000beef), math.Copysign(0, -1), 0,
		5e-324, -2.2e-308, math.Inf(1), math.Inf(-1), math.MaxFloat64} {
		pts[10*i+3].(metric.Vector)[i%d] = v
	}
	idx := NewPermIndex(NewDB(metric.L2{}, pts), rng.Perm(n)[:5], Footrule)
	sameRow := func(label string, got, want []float64) {
		t.Helper()
		for c := range want {
			if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
				t.Fatalf("%s: coordinate %d = %x, want %x", label, c, math.Float64bits(got[c]), math.Float64bits(want[c]))
			}
		}
	}
	stores := prunedStores(t, idx)
	for _, st := range stores {
		pb, db, lb := st.idx.buckets(), st.idx.db, st.idx.lb
		rows, labels := st.idx.rows()
		if len(rows) != n*d || len(db.block) != n*d || len(labels) != n {
			t.Fatalf("%s: %d bucket-major coordinates and %d labels over a block of %d, want %d", st.name, len(rows), len(labels), len(db.block), n*d)
		}
		nb, cells := pb.numBuckets(), len(lb.cellStarts)-1
		built := stores[0].idx.lb
		switch heap := st.idx.RowsHeapBytes(); st.name {
		case "pfr3-frozen-heap", "pfr3-mmap":
			if &rows[0] != &db.block[0] || &labels[0] != &pb.ptOrder[0] || cells != nb || heap != 0 {
				t.Fatalf("%s: a store opened bucket-major copied its rows or relabelled them (%d bytes, %d cells, %d buckets)", st.name, heap, cells, nb)
			}
		case "frozen-heap", "mmap":
			if &rows[0] != &db.block[0] || &labels[0] != &pb.ptOrder[0] || heap != 0 ||
				!slices.Equal(labels, built.labels) || !slices.Equal(lb.cellStarts, built.cellStarts) || !slices.Equal(lb.bucketCells, built.bucketCells) {
				t.Fatalf("%s: a store opened in cells copied its rows, relabelled them or cut other cells (%d bytes, %d cells, %d buckets)", st.name, heap, cells, nb)
			}
		default:
			if &rows[0] == &db.block[0] || &labels[0] == &pb.ptOrder[0] || db.order != nil || heap != n*d*8+n*4 {
				t.Fatalf("%s: an ID-ordered store without its one copy of the rows and labels (%d bytes)", st.name, heap)
			}
			if cells <= nb {
				t.Fatalf("%s: %d cells in %d buckets: no bucket was cut", st.name, cells, nb)
			}
		}
		for b := range nb {
			lo, hi := pb.ptStarts[b], pb.ptStarts[b+1]
			if lb.cellStarts[lb.bucketCells[b]] != lo || lb.cellStarts[lb.bucketCells[b+1]] != hi {
				t.Fatalf("%s: bucket %d's cells do not cover its run %d..%d", st.name, b, lo, hi)
			}
			if run := slices.Sorted(slices.Values(labels[lo:hi])); !slices.Equal(run, built.pb.ptOrder[lo:hi]) {
				t.Fatalf("%s: bucket %d's rows are labelled %v, its posting list is %v", st.name, b, run, built.pb.ptOrder[lo:hi])
			}
		}
		for c := range cells {
			if cell := labels[lb.cellStarts[c]:lb.cellStarts[c+1]]; len(cell) == 0 || !slices.IsSorted(cell) {
				t.Fatalf("%s: cell %d is labelled %v, want ascending IDs", st.name, c, cell)
			}
		}
		for j, id := range labels {
			sameRow(fmt.Sprintf("%s: row %d against point %d", st.name, j, id), rows[j*d:][:d], db.Points[id].(metric.Vector))
		}
		for id, p := range pts {
			sameRow(fmt.Sprintf("%s: point %d against the source", st.name, id), db.Points[id].(metric.Vector), p.(metric.Vector))
		}
	}
}

// TestBoundHullMatchesBucketSweep: a bucket's bounds, the hull of its cells',
// are bit for bit what sweeping the whole bucket at once gives (NaN for NaN)
// — over the coordinates TestBoundRowsLayout uses (NaN payloads, ±Inf, −0,
// subnormals, MaxFloat64, whose square overflows), under every metric and on
// every store origin, cut into cells or not.
func TestBoundHullMatchesBucketSweep(t *testing.T) {
	const n, d = 400, 3
	for mi, m := range boundMetrics {
		rng := rand.New(rand.NewSource(int64(15 + mi)))
		pts := dataset.ClusteredVectors(rng, n, d, 4, 0.05)
		for i, v := range []float64{math.NaN(), math.Float64frombits(0x7ff8dead0000beef), math.Copysign(0, -1), 0,
			5e-324, -2.2e-308, math.Inf(1), math.Inf(-1), math.MaxFloat64} {
			pts[10*i+3].(metric.Vector)[i%d] = v
		}
		idx := NewPermIndex(NewDB(m, pts), rng.Perm(n)[:5], Footrule)
		split := false
		for _, st := range prunedStores(t, idx) {
			bb, k := st.idx.bounds(), st.idx.K()
			split = split || len(bb.cells.lo) > len(bb.buckets.lo)
			for b := range st.idx.ApproxBuckets() {
				for i := range k {
					lo, hi := bucketSweep(st.idx, b, i)
					gotLo, gotHi := bb.buckets.lo[b*k+i], bb.buckets.hi[b*k+i]
					if !sameFloat(gotLo, lo) || !sameFloat(gotHi, hi) {
						t.Fatalf("%s/%s bucket %d site %d: hull [%x, %x], one sweep [%x, %x]", m.Name(), st.name, b, i,
							math.Float64bits(gotLo), math.Float64bits(gotHi), math.Float64bits(lo), math.Float64bits(hi))
					}
				}
			}
		}
		if !split {
			t.Fatalf("%s: no store cut a bucket into cells", m.Name())
		}
	}
}

// sameFloat reports whether a and b have the same bits, or are both NaN: a
// NaN interval never prunes, whichever NaN it is, and which of a bucket's
// NaNs min and max keep depends on the order they meet them in.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// bucketSweep is the sweep the cells replaced: site i's range over bucket b,
// all its points at once, in ptOrder, with the same arithmetic.
func bucketSweep(x *PermIndex, b, i int) (lo, hi float64) {
	pb := x.buckets()
	return siteSweep(x, pb.ptOrder[pb.ptStarts[b]:pb.ptStarts[b+1]], i)
}

// cellSweep is bucketSweep's per-cell twin: site i's range over cell c's
// points, read through their labels, one site at a time.
func cellSweep(x *PermIndex, c, i int) (lo, hi float64) {
	lb := x.lb
	return siteSweep(x, lb.labels[lb.cellStarts[c]:lb.cellStarts[c+1]], i)
}

// siteSweep is site i's range over the points ids, each measured on its own,
// site minus point, in the arithmetic the bounds are swept with.
func siteSweep(x *PermIndex, ids []uint32, i int) (lo, hi float64) {
	db := x.db
	_, l1 := db.Metric.(metric.L1)
	_, l2 := db.Metric.(metric.L2)
	s := db.row(x.siteIDs[i])
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, id := range ids {
		var v float64
		for j, p := range db.row(int(id)) {
			switch t := s[j] - p; {
			case l1:
				v += math.Abs(t)
			case l2:
				v += t * t
			default:
				v = max(v, math.Abs(t))
			}
		}
		lo, hi = min(lo, v), max(hi, v)
	}
	if l2 {
		lo, hi = math.Sqrt(lo), math.Sqrt(hi)
	}
	return lo, hi
}

// TestBoundQualification: the rule that decides which stores are worth
// bounding (boundMinFill), on both sides. A small uniform store — the shape
// of a shard or a freshly rebuilt mutable base — gets no bounds and no copy,
// prunes nothing and scans; a clustered one of the benchmark's shape gets
// both and prunes. Either way the answers are LinearScan's.
func TestBoundQualification(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct {
		name    string
		pts     []metric.Point
		bounded bool
	}{
		{"uniform n=500", dataset.UniformVectors(rng, 500, 6), false},
		{"clustered n=20000", dataset.ClusteredVectors(rng, 20000, 6, 32, 0.05), true},
	} {
		db := NewDB(metric.L2{}, tc.pts)
		idx := NewPermIndex(db, rng.Perm(db.N())[:12], Footrule)
		linear := NewLinearScan(db)
		pruned := 0
		for qi, q := range append(dataset.UniformVectors(rng, 8, 6), tc.pts[:8]...) {
			label := fmt.Sprintf("%s query %d", tc.name, qi)
			want, _ := linear.KNN(q, 10)
			got, st := idx.KNN(q, 10)
			sameBits(t, label+" KNN", got, want)
			wantR, _ := linear.Range(q, want[9].Distance)
			gotR, stR := idx.Range(q, want[9].Distance)
			sameBits(t, label+" Range", gotR, wantR)
			batch, stB := idx.KNNBatch([]metric.Point{q}, 10)
			sameBits(t, label+" KNNBatch", batch[0], want)
			if st.DistanceEvals+st.PrunedEvals != 12+db.N() || stR.DistanceEvals+stR.PrunedEvals != 12+db.N() || stB[0] != st {
				t.Fatalf("%s: stats %+v / %+v / %+v do not account for 12 sites + %d points", label, st, stR, stB[0], db.N())
			}
			pruned += st.PrunedEvals + stR.PrunedEvals
		}
		if bb := idx.bounds(); (bb != nil) != tc.bounded || (pruned > 0) != tc.bounded || (idx.RowsHeapBytes() > 0) != tc.bounded {
			t.Fatalf("%s (%d buckets): bounds = %v, %d points pruned, %d bytes of rows, want bounded = %v",
				tc.name, idx.ApproxBuckets(), bb != nil, pruned, idx.RowsHeapBytes(), tc.bounded)
		}
		// The rule decides nothing else: an approximate probe of either store
		// reads runs of the one copy, made when first wanted.
		if _, st := idx.KNNApprox(tc.pts[0], 10, 1); st.Exact || idx.RowsHeapBytes() != int64(8*len(db.block)+4*db.N()) {
			t.Fatalf("%s: after an approximate probe (%+v) the store holds %d bytes of rows and labels, want %d",
				tc.name, st, idx.RowsHeapBytes(), 8*len(db.block)+4*db.N())
		}
	}
}

// TestApproxCellsMatchFrozenTwin: an approximate probe measures the cells of
// its probed buckets that its bounds do not exclude, so a heap-built store cut
// into cells and its mapped PFR4 twin, which carries those cells and their
// bounds, answer alike from the same candidates at the same cost at every
// nprobe short of the whole directory; the exact walk that serves full
// coverage answers alike too. The store is bounded whatever its size
// (forceBounds), so it is cut as finely as its prefixes go, and then frozen,
// so that the twin walks those cells without a sweep of its own (a store
// frozen unbounded gets the cells its first query would make, not these).
func TestApproxCellsMatchFrozenTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := dataset.ClusteredVectors(rng, 20000, 6, 32, 0.05)
	idx := NewPermIndex(NewDB(metric.L2{}, pts), rng.Perm(len(pts))[:12], Footrule)
	forceBounds(idx)
	twin := mappedCopy(t, idx, nil)
	forceBounds(twin)
	queries := append(dataset.UniformVectors(rng, 8, 6), pts[:24]...)
	for qi, q := range queries {
		for _, nprobe := range []int{1, 3, 8, idx.ApproxBuckets() / 2, idx.ApproxBuckets()} {
			label := fmt.Sprintf("query %d nprobe=%d", qi, nprobe)
			got, gst := idx.KNNApprox(q, 10, nprobe)
			want, wst := twin.KNNApprox(q, 10, nprobe)
			sameBits(t, label, got, want)
			if gst.Candidates != wst.Candidates || gst.ProbedBuckets != wst.ProbedBuckets || gst.Exact != wst.Exact || !gst.Exact && gst != wst {
				t.Fatalf("%s: the store in cells reports %+v, its PFR4 twin %+v", label, gst, wst)
			}
		}
	}
	if cells, twins := idx.BoundCells(), twin.BoundCells(); twins != cells || cells <= idx.ApproxBuckets() || twin.RowsHeapBytes() != 0 {
		t.Fatalf("the heap-built store bounds %d cells, its twin %d (%d bytes of rows), over %d buckets", cells, twins, twin.RowsHeapBytes(), idx.ApproxBuckets())
	}
}

// tiedK returns up to limit values of k at which the k-th and (k+1)-th
// neighbours in full (a complete LinearScan ranking) are equally far and
// live in different buckets — the answers where a walk that stopped at
// LB = limit instead of LB > limit would lose the oracle's tie-break.
func tiedK(full []Result, bucketOf []int, limit int) []int {
	var ks []int
	for k := 1; k < len(full) && len(ks) < limit; k++ {
		if full[k-1].Distance == full[k].Distance && bucketOf[full[k-1].ID] != bucketOf[full[k].ID] {
			ks = append(ks, k)
		}
	}
	return ks
}

// TestPrunedTiesAcrossBuckets: on a lattice, where distances tie in long
// runs, kNN at a k that splits a tie between two buckets and Range at that
// tied distance equal LinearScan on every store.
func TestPrunedTiesAcrossBuckets(t *testing.T) {
	const side = 12
	var pts []metric.Point
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			pts = append(pts, metric.Vector{float64(x), float64(y)})
		}
	}
	n := len(pts)
	queries := []metric.Point{metric.Vector{5, 5}, metric.Vector{5.5, 5.5}, metric.Vector{0, 0}, metric.Vector{3, 8.5}, metric.Vector{-2, 14}}
	for mi, m := range boundMetrics {
		rng := rand.New(rand.NewSource(int64(70 + mi)))
		idx := NewPermIndex(NewDB(m, append([]metric.Point(nil), pts...)), rng.Perm(n)[:5], Footrule)
		pb := idx.buckets()
		bucketOf := make([]int, n)
		for b := 0; b < pb.numBuckets(); b++ {
			for _, id := range pb.ptOrder[pb.ptStarts[b]:pb.ptStarts[b+1]] {
				bucketOf[id] = b
			}
		}
		split := 0
		for _, st := range prunedStores(t, idx) {
			linear := NewLinearScan(st.idx.db)
			for qi, q := range queries {
				full, _ := linear.KNN(q, n)
				ks := tiedK(full, bucketOf, 4)
				split += len(ks)
				for _, k := range append(ks, 1, 7, n) {
					label := fmt.Sprintf("%s/%s query %d k=%d", m.Name(), st.name, qi, k)
					got, _ := st.idx.KNN(q, k)
					sameBits(t, label+" KNN", got, full[:k])
					wantR, _ := linear.Range(q, full[k-1].Distance)
					gotR, _ := st.idx.Range(q, full[k-1].Distance)
					sameBits(t, label+" Range", gotR, wantR)
				}
			}
		}
		if split == 0 {
			t.Fatalf("%s: no k-th/(k+1)-th tie across a bucket boundary was exercised", m.Name())
		}
	}
}

// boundaryQueries is how many queries per (metric, dimension) the
// boundary-radius tests issue. The raw float bound loses a boundary point
// roughly once in ten thousand of them; the triangle baselines, which
// bound per point, far more often.
const boundaryQueries = 1500

// TestPrunedBoundaryRadius: Range with r set exactly on a stored distance
// (the 5th neighbour's) and kNN at that k equal LinearScan on low-
// dimensional data, where three near-collinear points make the triangle
// inequality tight. This is the case that returns wrong answers when
// boundSlack is forced to 0. Every store accounts for each site and point
// once, stores laid out alike agree on Stats, and the stores that cut their
// buckets into cells (every origin but PFR3) measure no more than a PFR3
// store, which walks one cell per bucket.
func TestPrunedBoundaryRadius(t *testing.T) {
	for _, d := range []int{1, 2} {
		for mi, m := range boundMetrics {
			db, rng := testDB(int64(900+10*d+mi), 600, d, m)
			idx := NewPermIndex(db, rng.Perm(db.N())[:6], Footrule)
			stores := prunedStores(t, idx)
			linear := NewLinearScan(db)
			var evals [2]int // kNN evals summed over the queries: with cells, then PFR3's
			for qi, q := range dataset.UniformVectors(rng, boundaryQueries, d) {
				want, _ := linear.KNN(q, 5)
				wantR, _ := linear.Range(q, want[4].Distance)
				byLayout := map[bool][2]Stats{} // keyed by "has cells"
				for _, st := range stores {
					label := fmt.Sprintf("d=%d %s/%s query %d", d, m.Name(), st.name, qi)
					got, knnStats := st.idx.KNN(q, 5)
					sameBits(t, label+" KNN", got, want)
					gotR, rangeStats := st.idx.Range(q, want[4].Distance)
					sameBits(t, label+" Range", gotR, wantR)
					for _, s := range []Stats{knnStats, rangeStats} {
						if s.DistanceEvals+s.PrunedEvals != 6+db.N() {
							t.Fatalf("%s: stats %+v do not account for 6 sites + %d points", label, s, db.N())
						}
					}
					cells := st.idx.BoundCells() > st.idx.ApproxBuckets()
					if prev, ok := byLayout[cells]; ok && prev != [2]Stats{knnStats, rangeStats} {
						t.Fatalf("%s: stats %+v / %+v differ from a store laid out alike, %+v / %+v", label, knnStats, rangeStats, prev[0], prev[1])
					}
					byLayout[cells] = [2]Stats{knnStats, rangeStats}
				}
				cut, whole := byLayout[true], byLayout[false]
				if cut[1].DistanceEvals > whole[1].DistanceEvals {
					t.Fatalf("d=%d %s query %d: range over cells measures %d, over whole buckets %d", d, m.Name(), qi, cut[1].DistanceEvals, whole[1].DistanceEvals)
				}
				evals[0] += cut[0].DistanceEvals
				evals[1] += whole[0].DistanceEvals
			}
			if evals[0] > evals[1] {
				t.Fatalf("d=%d %s: kNN over cells measures %d in all, over whole buckets %d", d, m.Name(), evals[0], evals[1])
			}
		}
	}
}

// TestBoundTriangleBaselinesBoundaryRadius is the same boundary for the
// indexes that eliminate point by point or subtree by subtree: with the raw
// float bound LAESA dropped a boundary point in about one query in eight here,
// AESA and iAESA in one in twenty, and the VP-tree's range walk — the one copy
// PR 18's slack never reached — in about one in five hundred (six of these
// queries at d = 2 under L1, five at d = 3). The trees take every query, the
// quadratic baselines the first 150.
func TestBoundTriangleBaselinesBoundaryRadius(t *testing.T) {
	for _, m := range []metric.Metric{metric.L1{}, metric.L2{}} {
		for _, d := range []int{1, 2, 3} {
			db, rng := testDB(int64(950+d), 600, d, m)
			linear := NewLinearScan(db)
			trees := []Index{NewVPTree(db, rng), NewGHTree(db, rng)}
			all := append([]Index{NewLAESA(db, rng.Perm(db.N())[:6]), NewAESA(db), NewIAESA(db)}, trees...)
			for qi, q := range dataset.UniformVectors(rng, 2*boundaryQueries, d) {
				want, _ := linear.KNN(q, 5)
				wantR, _ := linear.Range(q, want[4].Distance)
				indexes := trees
				if qi < 150 {
					indexes = all
				}
				for _, x := range indexes {
					label := fmt.Sprintf("%s d=%d %s query %d", m.Name(), d, x.Name(), qi)
					got, _ := x.KNN(q, 5)
					sameBits(t, label+" KNN", got, want)
					gotR, _ := x.Range(q, want[4].Distance)
					sameBits(t, label+" Range", gotR, wantR)
				}
			}
		}
	}
}

// TestPrunedFirstQueryRace: many goroutines send the index's first exact
// queries at once. The bounds are computed exactly once — every query answers
// from the one table the first wave left, and a second wave finds it in
// place — and every answer is the oracle's.
func TestPrunedFirstQueryRace(t *testing.T) {
	db, rng := testDB(77, 3000, 4, metric.L2{}) // ≥ parallelBuildThreshold: the sharded bound pass
	idx := NewPermIndex(db, rng.Perm(db.N())[:8], Footrule)
	linear := NewLinearScan(db)
	queries := dataset.UniformVectors(rng, 16, 4)
	var first *float64
	for wave := 0; wave < 2; wave++ {
		var wg sync.WaitGroup
		for _, q := range queries {
			wg.Add(1)
			go func() {
				defer wg.Done()
				want, _ := linear.KNN(q, 6)
				if got, _ := idx.KNN(q, 6); !reflect.DeepEqual(got, want) {
					t.Errorf("wave %d: KNN differs from LinearScan", wave)
				}
				wantR, _ := linear.Range(q, want[5].Distance)
				if got, _ := idx.Range(q, want[5].Distance); !reflect.DeepEqual(got, wantR) {
					t.Errorf("wave %d: Range differs from LinearScan", wave)
				}
			}()
		}
		wg.Wait()
		bb := idx.bounds()
		if bb == nil {
			t.Fatal("no bounds after the first wave")
		}
		if wave == 0 {
			first = &bb.cells.lo[0]
		} else if first != &bb.cells.lo[0] {
			t.Fatal("the bounds were computed again")
		}
	}
}

// prunedFuzzInput decodes fuzz bytes into a small packed store, a query
// and k: a header (metric, dimension, sites, k) then int16 coordinates in
// tenths — a coarse lattice, so duplicates, ties and collinear runs are
// common, and tenths are not dyadic, so the sums round. ok is false when
// the bytes hold fewer than two points and a query.
func prunedFuzzInput(data []byte) (m metric.Metric, pts []metric.Point, q metric.Point, sites, k int, ok bool) {
	if len(data) < 4 {
		return nil, nil, nil, 0, 0, false
	}
	m = boundMetrics[int(data[0])%len(boundMetrics)]
	d := 1 + int(data[1])%4
	coords := data[4:]
	n := len(coords)/(2*d) - 1
	if n < 2 {
		return nil, nil, nil, 0, 0, false
	}
	n = min(n, 300)
	vec := func(i int) metric.Vector {
		v := make(metric.Vector, d)
		for j := range v {
			v[j] = float64(int16(binary.LittleEndian.Uint16(coords[2*(i*d+j):]))) / 10
		}
		return v
	}
	for i := 0; i < n; i++ {
		pts = append(pts, vec(i))
	}
	return m, pts, vec(n), 1 + int(data[2])%min(n, 12), 1 + int(data[3])%n, true
}

// FuzzPrunedKNN: whatever small store, query and k the bytes describe,
// pruned KNN and Range (at the k-th distance — a radius on a stored
// distance) equal LinearScan element for element, and so do they with a dead
// set the bytes also describe left out (checkSkip). The stores are far below
// boundMinFill, so their bounds are forced, and the seeds are checked to
// reach a walk that prunes, one that walks buckets of several cells, and one
// with a bucket that only the bisector term excludes at the k-th distance.
func FuzzPrunedKNN(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 4+2*3*61)
	rng.Read(random)
	copy(random, []byte{1, 1, 5, 2}) // L2, 2-d, 6 sites, k = 3 over 90 random points
	cells := make([]byte, 4+2*2*201)
	rng.Read(cells)
	copy(cells, []byte{0, 1, 3, 9}) // L1, 2-d, 4 sites, k = 10 over 200 random points
	bisector := make([]byte, 4+2*3*241)
	rng.Read(bisector)
	copy(bisector, []byte{1, 2, 7, 0}) // L2, 3-d, 8 sites, k = 1 over 240 random points
	pruned, cut, bisectorOnly := 0, 0, 0
	for _, seed := range [][]byte{
		{1, 0, 3, 2, 0, 0, 10, 0, 20, 0, 30, 0, 30, 0, 255, 255, 15, 0},
		{0, 1, 2, 1, 1, 0, 1, 0, 2, 0, 2, 0, 3, 0, 3, 0, 1, 0, 1, 0, 0, 0, 5, 0},
		random,
		cells,
		bisector,
	} {
		f.Add(seed)
		st, idx := prunedFuzzCheck(f, seed)
		pruned += st.PrunedEvals
		if idx == nil {
			continue
		}
		for b := 0; b < idx.ApproxBuckets(); b++ {
			if idx.lb.bucketCells[b+1]-idx.lb.bucketCells[b] >= 2 {
				cut++
			}
		}
		_, _, q, _, k, _ := prunedFuzzInput(seed)
		want, _ := NewLinearScan(idx.db).KNN(q, k)
		qd := make([]float64, idx.K())
		for i, id := range idx.siteIDs {
			qd[i] = idx.db.Metric.Distance(q, idx.db.Points[id])
		}
		if idx.bounds().inv == nil { // L1/L∞: no bisector term
			continue
		}
		terms, _, _ := bisectorTerms(idx, qd)
		for b, l := range terms {
			if limit := want[k-1].Distance; l > limit && !(idx.bounds().buckets.lowerBound(b, qd, limit) > limit) {
				bisectorOnly++
			}
		}
	}
	if pruned == 0 || cut == 0 || bisectorOnly == 0 {
		f.Fatalf("%d points pruned, %d buckets of several cells, %d buckets only the bisector term excludes: the fuzzer would only ever compare two scans, walk whole buckets, or never reach the bisector term",
			pruned, cut, bisectorOnly)
	}
	f.Fuzz(func(t *testing.T, data []byte) { prunedFuzzCheck(t, data) })
}

// prunedFuzzCheck runs one fuzz input and returns its kNN query's Stats and
// the index it built (zero and nil when the bytes describe no store).
func prunedFuzzCheck(t testing.TB, data []byte) (Stats, *PermIndex) {
	m, pts, q, sites, k, ok := prunedFuzzInput(data)
	if !ok {
		return Stats{}, nil
	}
	db := NewDB(m, pts)
	siteIDs := make([]int, sites)
	for i := range siteIDs {
		siteIDs[i] = i * len(pts) / sites
	}
	idx := NewPermIndex(db, siteIDs, Footrule)
	if forceBounds(idx) == nil {
		t.Fatal("a packed store has no bounds")
	}
	linear := NewLinearScan(db)
	want, _ := linear.KNN(q, k)
	got, st := idx.KNN(q, k)
	sameBits(t, "KNN", got, want)
	if st.DistanceEvals+st.PrunedEvals != sites+len(pts) {
		t.Fatalf("KNN stats %+v do not account for %d sites + %d points", st, sites, len(pts))
	}
	wantR, _ := linear.Range(q, want[k-1].Distance)
	gotR, _ := idx.Range(q, want[k-1].Distance)
	sameBits(t, "Range", gotR, wantR)
	// The dead set: the first data[0]/8 mod (k+1) answers and every point
	// whose ID is a multiple of 2 + data[1]/16.
	dead := Tombs{}
	for _, r := range want[:int(data[0]/8)%(k+1)] {
		dead = dead.With(r.ID)
	}
	for i := 0; i < len(pts); i += 2 + int(data[1]/16) {
		dead = dead.With(i)
	}
	checkSkip(t, "skipping", idx, q, k, dead)
	return st, idx
}
