package sisap

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"distperm/internal/core"
	"distperm/internal/metric"
)

// Approximate kNN over the distinct rank table: a permutation-prefix
// inverted file (PP-Index / MI-File style), keyed by the rows the table
// already deduplicates. The paper's counting theorems bound how many
// distinct distance permutations occur, and PR 5 stores each exactly once —
// so bucketing the *rows* by their length-ℓ permutation prefix gives an
// inverted file whose directory is tiny (≤ distinct entries) while its
// posting lists cover every stored point.
//
// A query computes its own site permutation once (k metric evaluations,
// exactly what the exact path is charged), scores every bucket by the
// prefix footrule distance Σ_j |j − qinv[prefix[j]]| — the same
// bounded-integer key family the row kernels use, ordered by the same
// counting argsort — and probes only the nprobe nearest buckets. Every
// point of a probed bucket is measured, and the kNN heap's (distance, ID)
// ordering makes the answer a function of the candidate *set*, so a probed
// bucket is read as it lies: one contiguous run of the bucket-major rows, in
// whatever order its points lie there. Recall is bounded (a true neighbour
// may live in an unprobed bucket) but monotone in nprobe: the probe order is
// a fixed per-query bucket ranking, so a larger nprobe's candidate set is a
// superset. A probe set that covers every bucket is the exact query, which
// is why approx=0 / nprobe ≥ buckets can always be served safely.

// prefixBuckets is the bucket directory: for each distinct length-ℓ
// permutation prefix occurring in the rank table, the rows and points that
// carry it. All slices are immutable after construction and may be
// zero-copy views into a mapped frozen container (frozen.go section 5).
type prefixBuckets struct {
	ell       int
	prefixes  []uint32 // buckets×ell site IDs, bucket-major, rank order
	rowStarts []uint32 // len buckets+1: rowOrder run boundaries
	rowOrder  []uint32 // len distinct: row IDs grouped by bucket
	ptStarts  []uint32 // len buckets+1: ptOrder run boundaries
	ptOrder   []uint32 // len n: point IDs grouped by bucket, ascending within
}

// numBuckets returns the directory size (distinct occurring prefixes).
func (pb *prefixBuckets) numBuckets() int { return len(pb.rowStarts) - 1 }

// prefix returns bucket b's prefix, its ℓ sites in rank order.
func (pb *prefixBuckets) prefix(b int) []uint32 { return pb.prefixes[b*pb.ell:][:pb.ell] }

// bucketKeys scores every bucket against the query's inverse permutation
// with the prefix footrule Σ_j |j − qinv[prefix[j]]|, filling keys (len
// numBuckets) and returning the maximum key — the same bounded-integer
// shape the row kernels produce, so the same counting argsort orders the
// probe schedule.
func (pb *prefixBuckets) bucketKeys(qinv []int32, keys []int64) int64 {
	ell := pb.ell
	var maxKey int64
	for b := range keys {
		pref := pb.prefixes[b*ell : (b+1)*ell : (b+1)*ell]
		var sum int64
		for j, site := range pref {
			d := int64(j) - int64(qinv[site])
			if d < 0 {
				d = -d
			}
			sum += d
		}
		keys[b] = sum
		if sum > maxKey {
			maxKey = sum
		}
	}
	return maxKey
}

// lazyBuckets holds an index's once-built directory, and the bucket-major
// rows and bounds its buckets are read and pruned with, for every query
// running on it at once. A frozen open pre-fills pb with container views
// and, under PFR3, rows with the database's own block; heap indexes build the
// directory on first use. The bounds are part of no format: every store
// computes them on its first exact query, and rows it was not opened with on
// its first read of a bucket.
type lazyBuckets struct {
	once     sync.Once
	pb       *prefixBuckets
	rowsOnce sync.Once
	rows     []float64 // nil after rowsOnce: DB.measure's kernels do not cover the store
	// Row j holds point labels[j], cell c is rows cellStarts[c]..cellStarts[c+1]
	// and bucket b cells bucketCells[b]..bucketCells[b+1] (cellLayout).
	labels, cellStarts, bucketCells []uint32
	rowsHeap                        atomic.Int64 // bytes rowsOnce had to allocate (RowsHeapBytes)
	boundsOnce                      sync.Once
	bounds                          *bucketBounds // nil after boundsOnce: the store does not qualify
	boundCells                      atomic.Int64  // cells the bounds cover (BoundCells)
}

// maxAutoPrefixLen caps the automatic ℓ choice: prefixes longer than this
// fragment the directory past any probing benefit.
const maxAutoPrefixLen = 8

// fillPrefix writes row r's length-ell permutation prefix (the ell sites
// the row ranks closest, in rank order) into out.
func fillPrefix(t *rankTable, r, ell int, out []uint32) {
	if t.wide() {
		for s, rank := range t.r16.row(t.k, r) {
			if int(rank) < ell {
				out[rank] = uint32(s)
			}
		}
		return
	}
	for s, rank := range t.r8.row(t.k, r) {
		if int(rank) < ell {
			out[rank] = uint32(s)
		}
	}
}

// numberPrefixes assigns every row the bucket of its length-ell prefix
// key(r, ell), buckets numbered in first-occurrence row order, and returns
// ℓ, each row's bucket and each bucket's first row. ell ≤ 0 selects the
// shortest prefix, up to maxEll, whose directory reaches ~√rows buckets, so
// probe cost and mean posting-list length balance at √table.
func numberPrefixes[K comparable](rows, ell, maxEll int, key func(r, ell int) K) (int, []uint32, []uint32) {
	auto, target := ell <= 0, int(math.Ceil(math.Sqrt(float64(rows))))
	rowBucket := make([]uint32, rows)
	for ell = max(ell, 1); ; ell++ {
		index := make(map[K]uint32)
		var first []uint32
		for r := range rowBucket {
			p := key(r, ell)
			b, ok := index[p]
			if !ok {
				b = uint32(len(first))
				index[p] = b
				first = append(first, uint32(r))
			}
			rowBucket[r] = b
		}
		if !auto || len(first) >= target || ell == maxEll {
			return ell, rowBucket, first
		}
	}
}

// buildPrefixBuckets groups the table's rows (and, through tableIDs, the
// points) by length-ell permutation prefix (ell ≤ 0: numberPrefixes'
// default). Buckets are numbered in first-occurrence row order; rows and
// points stay in ascending ID order within their bucket, so the directory
// is a deterministic function of the table. Where it fits (k ≤ 256, ℓ ≤ 8:
// every automatic choice) a row's longest candidate prefix is packed once,
// a byte per site, rank-major, and shifted per ℓ; else it is a string.
func buildPrefixBuckets(t *rankTable, tableIDs []uint32, ell int) *prefixBuckets {
	maxEll := min(maxAutoPrefixLen, t.k)
	if ell > 0 {
		ell = min(ell, t.k)
		maxEll = ell
	}
	distinct := t.rows
	var rowBucket, first []uint32
	if !t.wide() && maxEll <= 8 {
		packed := packPrefixes(t, maxEll)
		ell, rowBucket, first = numberPrefixes(distinct, ell, maxEll, func(r, l int) uint64 { return packed[r] >> (8 * (maxEll - l)) })
	} else {
		pref, buf := make([]uint32, maxEll), make([]byte, 4*maxEll)
		ell, rowBucket, first = numberPrefixes(distinct, ell, maxEll, func(r, l int) string {
			fillPrefix(t, r, l, pref)
			for j, s := range pref[:l] {
				binary.LittleEndian.PutUint32(buf[4*j:], s)
			}
			return string(buf[:4*l])
		})
	}
	buckets := len(first)
	prefixes := make([]uint32, buckets*ell)
	for b, r := range first {
		fillPrefix(t, int(r), ell, prefixes[b*ell:(b+1)*ell])
	}
	rowStarts, rowOrder := groupBy(rowBucket, ascending(distinct), buckets)
	ptStarts, ptOrder := groupBy(rowBucket, tableIDs, buckets)
	return &prefixBuckets{
		ell:       ell,
		prefixes:  prefixes,
		rowStarts: rowStarts,
		rowOrder:  rowOrder,
		ptStarts:  ptStarts,
		ptOrder:   ptOrder,
	}
}

// packPrefixes packs every row's length-maxEll prefix (maxEll ≤ 8, k ≤ 256),
// a byte per site, rank-major: keys sharing their top l bytes share l ranks.
func packPrefixes(t *rankTable, maxEll int) []uint64 {
	packed := make([]uint64, t.rows)
	for r := range packed {
		var key uint64
		for s, rank := range t.r8.row(t.k, r) {
			// A shift of 64 or more is 0: ranks from maxEll on add nothing.
			key |= uint64(s) << uint(8*(maxEll-1-int(rank)))
		}
		packed[r] = key
	}
	return packed
}

// ascending returns 0, 1, …, n−1.
func ascending(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i)
	}
	return out
}

// groupBy is a counting scatter of the items i, of row rows[i], by their
// row's group, ascending within a group: it returns each group's first
// position in order, and which item is at each.
func groupBy(group, rows []uint32, groups int) (starts, order []uint32) {
	starts = make([]uint32, groups+1)
	for _, r := range rows {
		starts[group[r]+1]++
	}
	for g := range groups {
		starts[g+1] += starts[g]
	}
	order, next := make([]uint32, len(rows)), slices.Clone(starts[:groups])
	for i, r := range rows {
		order[next[group[r]]] = uint32(i)
		next[group[r]]++
	}
	return starts, order
}

// cellLayout lays out the rows a store makes (lazyBuckets' labels, cellStarts
// and bucketCells): by bucket and, within one, by cell — the points whose rows
// share their length-ℓ' prefix, ascending. ℓ' is the longest prefix, up to
// maxAutoPrefixLen, whose cells hold minFill points on average (boundMinFill's
// break-even holds for any run a bound skips); a bucket is one cell if none
// longer than ℓ qualifies. Cells are numbered in row order, bucket by bucket.
func cellLayout(t *rankTable, tableIDs []uint32, pb *prefixBuckets, minFill int) (labels, cellStarts, bucketCells []uint32) {
	nb, maxEll := pb.numBuckets(), min(maxAutoPrefixLen, t.k)
	rowCell, cells, bucketCells := make([]uint32, t.rows), nb, ascending(nb+1)
	for b := range nb {
		for _, r := range pb.rowOrder[pb.rowStarts[b]:pb.rowStarts[b+1]] {
			rowCell[r] = uint32(b)
		}
	}
	var packed []uint64
	if !t.wide() && pb.ell < maxEll {
		packed = packPrefixes(t, maxEll)
	}
	// Cut every cell by the site its rows rank (l+1)-th, while the cuts still
	// hold minFill points on average.
	for l := pb.ell; packed != nil && l < maxEll; l++ {
		cut, ids, firstCut, next := make([]uint32, t.rows), make([]uint32, cells*t.k), make([]uint32, nb+1), uint32(0)
		for b := range nb {
			firstCut[b] = next
			for _, r := range pb.rowOrder[pb.rowStarts[b]:pb.rowStarts[b+1]] {
				id := int(rowCell[r])*t.k + int(packed[r]>>(8*(maxEll-1-l))&0xff)
				if ids[id] == 0 {
					next++
					ids[id] = next
				}
				cut[r] = ids[id] - 1
			}
		}
		if len(tableIDs) < minFill*int(next) {
			break
		}
		firstCut[nb] = next
		rowCell, cells, bucketCells = cut, int(next), firstCut
	}
	cellStarts, labels = groupBy(rowCell, tableIDs, cells)
	return labels, cellStarts, bucketCells
}

// approxScratch is a query workspace's part for the approximate path, sized
// to the directory on first use.
type approxScratch struct {
	bkeys  []int64 // one prefix-footrule key per bucket
	border []int   // full bucket probe order
}

// approxBuffers returns the approximate-path workspace, allocated on first
// use against the given directory.
func (s *permScratch) approxBuffers(pb *prefixBuckets) *approxScratch {
	if s.approx == nil {
		b := pb.numBuckets()
		s.approx = &approxScratch{bkeys: make([]int64, b), border: make([]int, b)}
	}
	return s.approx
}

// buckets returns the shared directory, building it on first use for
// heap-backed indexes (frozen opens pre-fill it with container views).
func (x *PermIndex) buckets() *prefixBuckets {
	x.lb.once.Do(func() {
		if x.lb.pb == nil {
			x.lb.pb = buildPrefixBuckets(x.table, x.tableIDs, 0)
		}
	})
	return x.lb.pb
}

// rows returns the coordinate block in the order the buckets are read, row j
// holding point labels[j]: bucket b is the contiguous run
// ptStarts[b]..ptStarts[b+1] of the points ptOrder lists for it, and
// measuring it gathers nothing (a gathered point costs ≈ 4× a contiguous
// one). A PFR3 store has them already — its database's block under ptOrder.
// Any other packed store under L1, L2 or L∞ (the split DB.measure makes)
// lays them out in cells (cellLayout), n·d·8 bytes of heap and n·4 of labels,
// on its first query that reads a bucket; any other store has none (nil).
func (x *PermIndex) rows() ([]float64, []uint32) {
	x.fillRows(boundMinFill, nil)
	return x.lb.rows, x.lb.labels
}

// fillRows makes the rows of a store that has them to make, once, in cells of
// minFill points on average, and reports whether this call did: it has then
// bounded every bucket into bb (when not nil) while still in cache. Rows a
// store was opened with are read one cell per bucket.
func (x *PermIndex) fillRows(minFill int, bb *bucketBounds) (filled bool) {
	x.lb.rowsOnce.Do(func() {
		lb, pb, d := x.lb, x.buckets(), x.db.dim
		if filled = lb.rows == nil && x.newSiteKernel() != nil; !filled {
			lb.labels, lb.cellStarts, lb.bucketCells = pb.ptOrder, pb.ptStarts, ascending(pb.numBuckets()+1)
			return
		}
		lb.labels, lb.cellStarts, lb.bucketCells = cellLayout(x.table, x.tableIDs, pb, minFill)
		lb.rows = make([]float64, x.db.N()*d)
		lb.rowsHeap.Store(int64(8*len(lb.rows) + 4*len(lb.labels)))
		x.eachBucket(true, bb)
	})
	return filled
}

// eachBucket works through the buckets, many at a time, filling a bucket's
// rows if fill is set, then bounding it into bb, sized (and set to empty
// ranges) here, unless bb is nil.
func (x *PermIndex) eachBucket(fill bool, bb *bucketBounds) {
	db, d, lb, kern := x.db, x.db.dim, x.lb, x.newSiteKernel()
	nb, k := len(lb.bucketCells)-1, x.K()
	if bb != nil {
		cells := int(lb.bucketCells[nb])
		bb.cells = siteRanges{slices.Repeat([]float64{math.Inf(1)}, cells*k), slices.Repeat([]float64{math.Inf(-1)}, cells*k)}
		bb.buckets = siteRanges{slices.Repeat([]float64{math.Inf(1)}, nb*k), slices.Repeat([]float64{math.Inf(-1)}, nb*k)}
	}
	workers := 1
	if db.N() >= parallelBuildThreshold {
		workers = 4 * core.ShardWorkers(nb) // buckets are uneven: more shards than cores
	}
	core.ShardIndexes(nb, workers, func(_, b0, b1 int) {
		for b := b0; b < b1; b++ {
			for j := int(lb.pb.ptStarts[b]); fill && j < int(lb.pb.ptStarts[b+1]); j++ {
				copy(lb.rows[j*d:][:d], db.row(int(lb.labels[j])))
			}
			if bb != nil {
				x.bound(bb, b, kern)
			}
		}
	})
}

// RowsHeapBytes returns the heap held by this index's copy of the rows and
// labels: n·d·8 + n·4 once rows has made one, 0 before and on PFR3 stores.
func (x *PermIndex) RowsHeapBytes() int64 { return x.lb.rowsHeap.Load() }

// BoundCells returns how many cells the exact walk bounds, once it has
// bounds; 0 before that and on a store without them.
func (x *PermIndex) BoundCells() int { return int(x.lb.boundCells.Load()) }

// siteRanges holds lo[i*k+s] and hi[i*k+s], the least and greatest computed
// d(sₛ, p) over the points p of run i: LAESA's per-point table, per cell.
type siteRanges struct{ lo, hi []float64 }

// bucketBounds is the metric side of the directory: the site ranges of every
// cell, and of every bucket as the hull of its cells', under L2, for the
// bisector term, bisectorPair's factor and slack of every pair of sites, a·k +
// s, and the buckets in prefix order, the trie the walk searches (the identity
// without the table).
type bucketBounds struct {
	cells, buckets siteRanges
	inv, slack     []float64
	byPrefix       []uint32
	offPrefix      atomic.Bool // a point's sums disagree with its bucket's prefix (onPrefix)
}

// boundMinFill is the mean bucket size below which a store gets no bounds.
// Bounding and ordering a bucket costs 2k slack gaps plus its share of the
// sort, ≈ 40 ns at k = 12, and buys at best not measuring its points at
// ≈ 4.5 ns each (d = 6, contiguous). On uniform data, where the bounds
// exclude barely half the buckets, the walk beats the memory-order scan only
// from 25–40 points per bucket up (n / buckets → walk ÷ scan at k = 12,
// d = 6: 6 → 2.3, 12 → 1.8, 19 → 1.4, 23 → 1.1, 40 → 1.06, 42 → 0.58);
// clustered data stops losing at 14–18. Scaling the threshold by k/d, as the
// two costs suggest, fits worse than the plain count (d = 2 wins from 25 up
// at k = 12, k = 20 from 34 at d = 6): what moves the break-even is how much
// the bounds exclude, and that follows the data, not the store's shape.
const boundMinFill = 32

// siteBounds computes the bounds from what every store holds whatever its
// origin — points, site IDs, bucket-major rows — in one pass (bound) right
// after a bucket is filled where the rows are still to make, so the copy costs
// nothing over bounding scattered points. Only a store with rows, of at most
// boundMaxDim dimensions, in buckets of minFill points on average qualifies.
func (x *PermIndex) siteBounds(minFill int) *bucketBounds {
	if x.newSiteKernel() == nil || x.db.dim > boundMaxDim || x.db.N() < minFill*x.buckets().numBuckets() {
		return nil
	}
	bb := &bucketBounds{}
	if !x.fillRows(minFill, bb) {
		x.eachBucket(false, bb)
	}
	k, pb := x.K(), x.buckets()
	x.lb.boundCells.Store(int64(len(bb.cells.lo) / k))
	bb.byPrefix = ascending(pb.numBuckets())
	if _, l2 := x.db.Metric.(metric.L2); !l2 || bb.offPrefix.Load() {
		return bb
	}
	far := make([]float64, k) // each site's Rₛ: max keeps a NaN
	for i, h := range bb.buckets.hi {
		far[i%k] = max(far[i%k], h)
	}
	bb.inv, bb.slack = make([]float64, k*k), make([]float64, k*k)
	for a, ida := range x.siteIDs {
		for s, ids := range x.siteIDs {
			d := x.db.Metric.Distance(x.db.Points[ida], x.db.Points[ids])
			bb.inv[a*k+s], bb.slack[a*k+s] = bisectorPair(d, far[a]+far[s])
		}
	}
	slices.SortFunc(bb.byPrefix, func(a, b uint32) int { return slices.Compare(pb.prefix(int(a)), pb.prefix(int(b))) })
	return bb
}

// bound sweeps bucket b's cells, each row once for all k sites (siteKernel),
// and takes the bucket's ranges as their hull. L2 keeps the extreme squared
// sums and takes one Sqrt, monotone and correctly rounded, per cell and site;
// min and max are associative, so the hull is what one sweep of the bucket
// gives, and they propagate NaN: such an interval compares false both ways.
func (x *PermIndex) bound(bb *bucketBounds, b int, kern *siteKernel) {
	d, k, lb := x.db.dim, x.K(), x.lb
	sums, pref := make([]float64, k), lb.pb.prefix(b)
	blo, bhi := bb.buckets.lo[b*k:][:k], bb.buckets.hi[b*k:][:k]
	for c := int(lb.bucketCells[b]); c < int(lb.bucketCells[b+1]); c++ {
		lo, hi := bb.cells.lo[c*k:][:k], bb.cells.hi[c*k:][:k]
		for r := lb.rows[int(lb.cellStarts[c])*d : int(lb.cellStarts[c+1])*d]; len(r) > 0; r = r[d:] {
			kern.sums(r[:d], sums)
			if kern.l2 && !onPrefix(sums, pref) {
				bb.offPrefix.Store(true)
			}
			for i, v := range sums {
				lo[i], hi[i] = min(lo[i], v), max(hi[i], v)
			}
		}
		for i := range lo {
			if kern.l2 {
				lo[i], hi[i] = math.Sqrt(lo[i]), math.Sqrt(hi[i])
			}
			blo[i], bhi[i] = min(blo[i], lo[i]), max(bhi[i], hi[i])
		}
	}
}

// onPrefix reports whether a point at squared sums from the sites ranks the
// sites of pref first, in order, to within the 2⁻⁵⁰ a root may round away:
// what the bisector term takes of every point of a bucket, and a table
// loaded beside its database need not be that database's.
func onPrefix(sums []float64, pref []uint32) bool {
	for m := 1; m < len(pref); m++ {
		if !(sums[pref[m-1]] <= sums[pref[m]]*(1+0x1p-50)) {
			return false
		}
	}
	last := sums[pref[len(pref)-1]]
	for s, v := range sums {
		if !(last <= v*(1+0x1p-50)) && !slices.Contains(pref, uint32(s)) {
			return false
		}
	}
	return true
}

// lowerBound returns LB(i) for a query at computed distances qd from the
// sites (no point of run i is computed closer), or a partial LB above limit.
func (sr siteRanges) lowerBound(i int, qd []float64, limit float64) float64 {
	k := len(qd)
	lo, hi := sr.lo[i*k:][:k], sr.hi[i*k:][:k]
	var lb float64
	for s, d := range qd { // at most one gap per site is positive; NaN never is
		if g := slackGap(d, hi[s]); g > lb {
			lb = g
		}
		if g := slackGap(lo[s], d); g > lb {
			lb = g
		}
		if lb > limit {
			return lb
		}
	}
	return lb
}

// siteGap is one positive bisector gap of a site, to the other site named.
type siteGap struct {
	gap  float64
	site uint32
}

// bisectors readies the bisector term for a query at computed distances qd
// from the sites. s.near lists the sites nearest first, ties to the lower, so
// its first ℓ are the prefix of the query's own cell; s.gaps[a·ℓ:][:ℓ] holds
// site a's positive gaps to those ℓ sites, descending, then zeros: only a
// site nearer the query than a gives a positive gap, so k·ℓ are tried.
func (bb *bucketBounds) bisectors(qd []float64, ell int, s *permScratch) {
	k := len(qd)
	if len(s.gaps) != k*ell {
		s.near, s.gaps = make([]uint32, k), make([]siteGap, k*ell)
	}
	for i := range s.near {
		s.near[i] = uint32(i)
	}
	slices.SortStableFunc(s.near, func(a, b uint32) int { return cmp.Compare(qd[a], qd[b]) })
	for a := range k {
		gaps := s.gaps[a*ell:][:ell]
		clear(gaps)
		for _, t := range s.near[:ell] { // at most ℓ: a list's last slot is always free
			g := bisectorGap(qd[a], qd[t], bb.inv[a*k+int(t)], bb.slack[a*k+int(t)])
			if !(g > 0) { // NaN never is
				continue
			}
			j := ell - 1
			for ; j > 0 && g > gaps[j-1].gap; j-- {
				gaps[j] = gaps[j-1]
			}
			gaps[j] = siteGap{g, t}
		}
	}
}

// levelGap is the bisector term's step at level m of prefix pref: every point
// of its buckets lies on aₘ's side of the bisector with each site not among
// a₁…aₘ, so aₘ's largest gap to one of them bounds them all. At most m < ℓ of
// aₘ's ℓ gaps are excluded; a gap of 0 adds nothing.
func levelGap(pref []uint32, m int, gaps []siteGap) float64 {
	for _, g := range gaps[int(pref[m])*len(pref):][:len(pref)] {
		if !slices.Contains(pref[:m], g.site) {
			return g.gap
		}
	}
	return 0
}

// bounds returns the shared bucket bounds, computed on first use, or nil
// when the store does not qualify (see siteBounds).
func (x *PermIndex) bounds() *bucketBounds {
	x.lb.boundsOnce.Do(func() { x.lb.bounds = x.siteBounds(boundMinFill) })
	return x.lb.bounds
}

// entry is one item of a walk's frontier, at lower bound lb: at depth m < ℓ
// the trie node byPrefix[lo:hi], whose buckets share their first m sites; at
// m = ℓ the buckets byPrefix[lo:hi], yet to get their range terms; past ℓ the
// cells lo..hi-1.
type entry struct {
	lb        float64
	lo, hi, m int
}

// walk is one exact query's best-first search over a store with bounds: the
// collector, the query's site distances qd and bisector gaps, the frontier (a
// binary min-heap on lb), the LB of the entry being expanded and the points
// measured.
type walk struct {
	x        *PermIndex
	bb       *bucketBounds
	q        metric.Point
	c        *collector
	qd       []float64
	gaps     []siteGap
	heap     []entry
	front    float64
	measured int
}

// push drops e above c's limit, expands it at once at an LB not above the
// front's — 0 or NaN, which never prunes, included — and queues it otherwise.
func (w *walk) push(e entry) {
	if e.lb > w.c.limit() {
		return
	} else if !(e.lb > w.front) {
		w.expand(e)
		return
	}
	h := append(w.heap, e)
	for i := len(h) - 1; i > 0 && e.lb < h[(i-1)/2].lb; i = (i - 1) / 2 {
		h[i], h[(i-1)/2] = h[(i-1)/2], e
	}
	w.heap = h
}

// pop takes the least-LB entry off the frontier.
func (w *walk) pop() entry {
	h, n := w.heap, len(w.heap)-1
	e := h[0]
	h[0], h = h[n], h[:n]
	for i, j := 0, 1; j < n; i, j = j, 2*j+1 {
		if j+1 < n && h[j+1].lb < h[j].lb {
			j++
		}
		if !(h[j].lb < h[i].lb) {
			break
		}
		h[i], h[j] = h[j], h[i]
	}
	w.heap = h
	return e
}

// expand pushes e's children: a trie node's runs one site longer, each at the
// greater of e's term and levelGap (its end found galloping, then bisecting);
// each bucket at the greater of its term and range term; each cell of a longer
// run at its own range term. A run of one cell is measured.
func (w *walk) expand(e entry) {
	lb, order := w.x.lb, w.bb.byPrefix
	switch ell := lb.pb.ell; {
	case e.m < ell:
		for i := e.lo; i < e.hi; {
			pref := lb.pb.prefix(int(order[i]))
			below := func(j int) bool { return lb.pb.prefix(int(order[j]))[e.m] == pref[e.m] }
			lo, hi := i, i+1 // order[lo] is in the run, order[hi] past it
			for hi < e.hi && below(hi) {
				lo, hi = hi, min(i+2*(hi-i), e.hi)
			}
			j := lo + 1 + sort.Search(hi-lo-1, func(j int) bool { return !below(lo + 1 + j) })
			w.push(entry{max(e.lb, levelGap(pref, e.m, w.gaps)), i, j, e.m + 1})
			i = j
		}
	case e.m == ell:
		for _, b := range order[e.lo:e.hi] {
			w.push(entry{max(e.lb, w.bb.buckets.lowerBound(int(b), w.qd, w.c.limit())), int(lb.bucketCells[b]), int(lb.bucketCells[b+1]), ell + 1})
		}
	case e.hi-e.lo == 1:
		lo, hi := int(lb.cellStarts[e.lo]), int(lb.cellStarts[e.hi])
		w.x.db.measure(w.q, lb.rows, lb.labels, lo, hi, w.c)
		w.measured += hi - lo
	default:
		for cell := e.lo; cell < e.hi; cell++ {
			w.push(entry{w.bb.cells.lowerBound(cell, w.qd, w.c.limit()), cell, cell + 1, ell + 1})
		}
	}
}

// search answers an exact query into c by visiting cells of prefix buckets
// instead of points. The k site distances the query is charged for anyway
// bound every cell's and bucket's distance to any of its points by LAESA's
// rule, and under L2 a bucket's of prefix a₁…a_ℓ also by the bisector term:
//
//	LB = max(T(a₁…a_ℓ), maxᵢ max(0, d(q,sᵢ) − hi[i], lo[i] − d(q,sᵢ))),
//	T(a₁…aₘ) = max(T(a₁…aₘ₋₁), max_{s ∉ a₁…aₘ} (d(q,aₘ)² − d(q,s)²) / 2·d(aₘ,s)), T() = 0
//
// each term shrunk by its rounding slack (slackGap, bisectorGap). The walk is
// one best-first search over the trie of nested cells of the bisector
// arrangement (Hjaltason & Samet): a frontier of trie nodes keyed by T, one
// levelGap lookup a child, buckets re-keyed by LB when they first reach the
// front, so a bucket's range term is computed only there, and cells keyed by
// their own range term. A store without a bisector table starts at its buckets
// (byPrefix the identity) at T = 0. The front is expanded while its key is at
// most c's limit: strictly, so ties are still seen and the (distance, ID)
// tie-break stays the oracle's. Keys are visited in ascending order, so a kNN
// limit tightens early (a range query's is fixed). Either way c ends up
// holding what the full scan would have (set-determined, see collector), and
// on a store without bounds the full scan is what runs.
func (x *PermIndex) search(q metric.Point, c *collector) Stats {
	bb, k, n := x.bounds(), x.K(), x.db.N()
	if bb == nil {
		x.db.measure(q, x.db.block, x.db.order, 0, n, c)
		return Stats{DistanceEvals: k + n}
	}
	s := x.scratchBuffers()
	defer x.scratch.Put(s)
	// The sites are measured as the scan measures any point, so a query of
	// the wrong shape fails here with the scan's own panic.
	for i, id := range x.siteIDs {
		s.qd[i] = x.db.Metric.Distance(q, x.db.Points[id])
	}
	w, m := walk{x: x, bb: bb, q: q, c: c, qd: s.qd, heap: s.heap[:0]}, x.lb.pb.ell
	if bb.inv != nil { // from the trie's root
		bb.bisectors(s.qd, m, s)
		w.gaps, m = s.gaps, 0
	}
	for w.push(entry{0, 0, len(bb.byPrefix), m}); len(w.heap) > 0; {
		e := w.pop()
		if e.lb > c.limit() {
			break
		}
		w.front = e.lb
		w.expand(e)
	}
	s.heap = w.heap[:0] // keep what append grew
	return Stats{DistanceEvals: k + w.measured, PrunedEvals: n - w.measured}
}

// ApproxBuckets returns the directory size — the value nprobe is measured
// against — building the directory if needed.
func (x *PermIndex) ApproxBuckets() int { return x.buckets().numBuckets() }

// PrefixLen returns the directory's prefix length ℓ, building the
// directory if needed.
func (x *PermIndex) PrefixLen() int { return x.buckets().ell }

// defaultNProbe is the serving default when a caller asks for approximate
// search without choosing nprobe: an eighth of the directory, at least one
// bucket. The recall sweep in internal/experiments is the tool for tuning
// past this.
func defaultNProbe(buckets int) int { return max(1, (buckets+7)/8) }

// KNNApprox answers a k-nearest-neighbour query approximately: only the
// nprobe nearest prefix buckets are probed and only their points measured.
// nprobe ≤ 0 selects defaultNProbe. The probe set is widened past nprobe
// if needed until it holds at least k candidate points, and when it covers
// every bucket the answer is byte-identical to KNN (Exact is reported in
// the stats). Cost: k site evaluations plus one metric evaluation per
// candidate.
func (x *PermIndex) KNNApprox(q metric.Point, k, nprobe int) ([]Result, ApproxStats) {
	checkK(k, x.db.N())
	return x.knnApprox(q, k, nprobe, Scope{})
}

func (x *PermIndex) knnApprox(q metric.Point, k, nprobe int, sc Scope) ([]Result, ApproxStats) {
	pb := x.buckets()
	nb := pb.numBuckets()
	if nprobe <= 0 {
		nprobe = defaultNProbe(nb)
	}
	exact := func() ([]Result, ApproxStats) {
		rs, st := sc.Search(x, q, k, 0)
		return rs, ApproxStats{
			Stats: st, ProbedBuckets: nb, TotalBuckets: nb,
			Candidates: x.db.N(), Exact: true,
		}
	}
	if nprobe >= nb {
		return exact()
	}
	s := x.scratchBuffers()
	defer x.scratch.Put(s)
	a := s.approxBuffers(pb)
	s.pm.PermutationInto(q, s.qbuf)
	for rank, site := range s.qbuf {
		s.qinv[site] = int32(rank)
	}
	maxBKey := pb.bucketKeys(s.qinv, a.bkeys)
	s.counts = countingArgsortInto(a.bkeys, maxBKey, s.counts, a.border)
	// Measure bucket by bucket, widening past nprobe until the heap holds k
	// points that are not dead; the probe order is fixed, so this only ever
	// grows the candidate set. A probe that widens to every bucket is the
	// exact query, answered as one.
	c := collector{h: newKNNHeap(k), sc: sc}
	rows, labels := x.rows()
	probed, npts := 0, 0
	for ; probed < nb && (probed < nprobe || len(c.h.rs) < k); probed++ {
		lo, hi := int(pb.ptStarts[a.border[probed]]), int(pb.ptStarts[a.border[probed]+1])
		x.db.measure(q, rows, labels, lo, hi, &c)
		npts += hi - lo
	}
	if probed >= nb {
		return exact()
	}
	return c.results(), ApproxStats{
		Stats:         Stats{DistanceEvals: x.K() + npts},
		ProbedBuckets: probed,
		TotalBuckets:  nb,
		Candidates:    npts,
	}
}
