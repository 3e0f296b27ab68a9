package sisap

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
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
// point of a probed bucket is measured, so nothing is gained by ordering
// them: the kNN heap's (distance, ID) ordering makes the answer a function
// of the candidate *set*. Each probed bucket is therefore read as it lies,
// one contiguous run of the bucket-major rows that its ptOrder run labels —
// no gather, no sub-table kernel, no key scatter, no sort — which is
// byte-identical to the ordered pipeline this replaced. Recall is bounded
// (a true neighbour may live in an unprobed bucket) but monotone in nprobe:
// the probe order is a fixed per-query bucket ranking, so a larger nprobe's
// candidate set is a superset. When the probe set covers every bucket the
// candidate set is the whole database and the answer is byte-identical to
// the exact scan (set-determined again), which is why approx=0 / nprobe ≥
// buckets can always be served safely.

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

// lazyBuckets shares one once-built directory, and the bucket-major rows and
// bounds its buckets are read and pruned with, between an index and every
// replica cloned from it (Replica copies the struct, so the pointer is
// shared). A frozen open pre-fills pb with container views and, under PFR3,
// rows with the database's own block; heap indexes build the directory on
// first use. The bounds are part of no format: every store computes them on
// its first exact query, and rows it was not opened with on its first read
// of a bucket.
type lazyBuckets struct {
	once       sync.Once
	pb         *prefixBuckets
	rowsOnce   sync.Once
	rows       []float64    // nil after rowsOnce: DB.measure's kernels do not cover the store
	rowsHeap   atomic.Int64 // bytes rowsOnce had to copy (RowsHeapBytes)
	boundsOnce sync.Once
	bounds     *bucketBounds // nil after boundsOnce: the store does not qualify
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
		packed := make([]uint64, distinct)
		for r := range packed {
			var key uint64
			for s, rank := range t.r8.row(t.k, r) {
				// A shift of 64 or more is 0: ranks from maxEll on add nothing.
				key |= uint64(s) << uint(8*(maxEll-1-int(rank)))
			}
			packed[r] = key
		}
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
	// Counting scatters: rows then points, grouped by bucket, ascending
	// within each group.
	rowStarts := make([]uint32, buckets+1)
	for _, b := range rowBucket {
		rowStarts[b+1]++
	}
	for b := 0; b < buckets; b++ {
		rowStarts[b+1] += rowStarts[b]
	}
	rowOrder := make([]uint32, distinct)
	cur := make([]uint32, buckets)
	copy(cur, rowStarts[:buckets])
	for r, b := range rowBucket {
		rowOrder[cur[b]] = uint32(r)
		cur[b]++
	}
	ptStarts := make([]uint32, buckets+1)
	for _, row := range tableIDs {
		ptStarts[rowBucket[row]+1]++
	}
	for b := 0; b < buckets; b++ {
		ptStarts[b+1] += ptStarts[b]
	}
	ptOrder := make([]uint32, len(tableIDs))
	copy(cur, ptStarts[:buckets])
	for pt, row := range tableIDs {
		b := rowBucket[row]
		ptOrder[cur[b]] = uint32(pt)
		cur[b]++
	}
	return &prefixBuckets{
		ell:       ell,
		prefixes:  prefixes,
		rowStarts: rowStarts,
		rowOrder:  rowOrder,
		ptStarts:  ptStarts,
		ptOrder:   ptOrder,
	}
}

// approxScratch is the per-replica workspace of the approximate query
// path, sized to the directory on first use.
type approxScratch struct {
	bkeys  []int64 // one prefix-footrule key per bucket
	border []int   // full bucket probe order
}

// approxBuffers returns the approximate-path workspace, allocated on first
// use against the given directory.
func (x *PermIndex) approxBuffers(pb *prefixBuckets) *approxScratch {
	s := x.scratchBuffers()
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

// rows returns the coordinate block in the order the buckets are read: row j
// holds point ptOrder[j], so bucket b is the contiguous run
// ptStarts[b]..ptStarts[b+1] and measuring it gathers nothing (a gathered
// point costs ≈ 4× a contiguous one). A store opened from a PFR3 container has
// them already: they are its database's block, mapped or decoded. Any other
// packed store under L1, L2 or L∞ (the split DB.measure makes) copies its
// points once, n·d·8 bytes of heap, on its first query that reads a bucket;
// any other store has none (nil), and builds no directory for them.
func (x *PermIndex) rows() []float64 {
	x.fillRows(nil)
	return x.lb.rows
}

// fillRows makes the rows of a store that has them to make, once, and reports
// whether this call did: it has then handed every run to visit (when not nil)
// while still in cache — the first exact query bounds a bucket as it fills it.
func (x *PermIndex) fillRows(visit func(b int, run []float64)) (filled bool) {
	x.lb.rowsOnce.Do(func() {
		switch d := x.db.dim; x.db.Metric.(type) {
		case metric.L1, metric.L2, metric.LInf:
			if x.lb.rows == nil && d > 0 {
				rows := make([]float64, x.db.N()*d)
				x.eachRun(rows, true, visit)
				x.lb.rows, filled = rows, true
				x.lb.rowsHeap.Store(int64(8 * len(rows)))
			}
		}
	})
	return filled
}

// eachRun hands every bucket's run of rows to visit, many buckets at a time,
// copying the bucket's points into the run first when fill is set.
func (x *PermIndex) eachRun(rows []float64, fill bool, visit func(b int, run []float64)) {
	db, d, pb := x.db, x.db.dim, x.buckets()
	workers := 1
	if db.N() >= parallelBuildThreshold {
		workers = 4 * core.ShardWorkers(pb.numBuckets()) // buckets are uneven: more shards than cores
	}
	core.ShardIndexes(pb.numBuckets(), workers, func(_, b0, b1 int) {
		for b := b0; b < b1; b++ {
			start, end := int(pb.ptStarts[b]), int(pb.ptStarts[b+1])
			for j := start; fill && j < end; j++ {
				copy(rows[j*d:][:d], db.row(int(pb.ptOrder[j])))
			}
			if visit != nil {
				visit(b, rows[start*d:end*d])
			}
		}
	})
}

// RowsHeapBytes returns the heap held by this index's copy of the rows: n·d·8
// once rows has had to make one, 0 before that and on a PFR3 store always.
func (x *PermIndex) RowsHeapBytes() int64 { return x.lb.rowsHeap.Load() }

// bucketBounds is the metric side of the directory: lo[b*k+i] and hi[b*k+i]
// are the least and greatest computed distance d(sᵢ, p) over the points p of
// bucket b — 2·k·buckets float64s, LAESA's per-point table kept per cell.
type bucketBounds struct {
	lo, hi []float64
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
// origin — its points, the site IDs and the bucket-major rows — with
// DB.measure's arithmetic (site and point swapped, which changes no bit of
// |x − y| or (x − y)²). Each bucket's run is swept once per site, the extremes
// in registers — right after it is filled, where the rows are still to make:
// turned that way round the copy costs nothing over bounding the scattered
// points. L2 takes the extremes of the squared sums and one Sqrt per cell:
// Sqrt is monotone and correctly rounded, so that is the extreme of the
// distances. min and max propagate NaN, so an interval over a non-finite
// coordinate compares false both ways and never prunes. Only a store that has
// rows, of at most boundMaxDim dimensions, in buckets of at least minFill
// points on average (boundMinFill), qualifies; any other gets nil at once.
func (x *PermIndex) siteBounds(minFill int) *bucketBounds {
	db, d, k := x.db, x.db.dim, x.K()
	_, l1 := db.Metric.(metric.L1)
	_, l2 := db.Metric.(metric.L2)
	if _, linf := db.Metric.(metric.LInf); !(l1 || l2 || linf) || d == 0 || d > boundMaxDim {
		return nil
	}
	pb := x.buckets()
	nb := pb.numBuckets()
	if db.N() < minFill*nb {
		return nil
	}
	bb := &bucketBounds{lo: make([]float64, nb*k), hi: make([]float64, nb*k)}
	sweep := func(b int, run []float64) {
		for i, site := range x.siteIDs {
			s, lo, hi := db.row(site)[:d], math.Inf(1), math.Inf(-1)
			for r := run; len(r) > 0; r = r[d:] {
				var v float64
				switch p := r[:d]; {
				case l1:
					for j, a := range s {
						v += math.Abs(a - p[j])
					}
				case l2:
					for j, a := range s {
						t := a - p[j]
						v += t * t
					}
				default:
					for j, a := range s {
						v = max(v, math.Abs(a-p[j]))
					}
				}
				lo, hi = min(lo, v), max(hi, v)
			}
			if l2 {
				lo, hi = math.Sqrt(lo), math.Sqrt(hi)
			}
			bb.lo[b*k+i], bb.hi[b*k+i] = lo, hi
		}
	}
	if !x.fillRows(sweep) {
		x.eachRun(x.lb.rows, false, sweep)
	}
	return bb
}

// lowerBound returns LB(b) for a query at computed distances qd from the
// sites: no point of bucket b is computed closer to the query than that.
func (bb *bucketBounds) lowerBound(b int, qd []float64) float64 {
	k := len(qd)
	lo, hi := bb.lo[b*k:][:k], bb.hi[b*k:][:k]
	var lb float64
	for i, d := range qd { // at most one gap per site is positive; NaN never is
		if g := slackGap(d, hi[i]); g > lb {
			lb = g
		}
		if g := slackGap(lo[i], d); g > lb {
			lb = g
		}
	}
	return lb
}

// bounds returns the shared bucket bounds, computed on first use, or nil
// when the store does not qualify (see siteBounds).
func (x *PermIndex) bounds() *bucketBounds {
	x.lb.boundsOnce.Do(func() { x.lb.bounds = x.siteBounds(boundMinFill) })
	return x.lb.bounds
}

// bucketLB is one bucket with its lower bound for the query in hand.
type bucketLB struct {
	lb float64
	b  int
}

// search answers an exact query into c by visiting prefix buckets instead of
// points. The k site distances the query is charged for anyway give every
// bucket b a lower bound on the distance to any of its points,
//
//	LB(b) = maxᵢ max(0, d(q,sᵢ) − hi[b][i], lo[b][i] − d(q,sᵢ))
//
// — LAESA's elimination rule at cell granularity, each difference shrunk by
// slackGap's rounding slack — and a bucket is measured, as one contiguous run
// of the bucket-major rows, unless LB(b) > c's limit: strictly, so
// equal-distance ties are still seen and the (distance, ID) tie-break stays
// the oracle's.
// kNN visits in ascending LB (ties by bucket number) so the limit tightens
// early; a range query's limit is fixed and the order moot. Either way c
// ends up holding what the full scan would have (set-determined, see
// collector), and on a store without bounds the full scan is what runs.
func (x *PermIndex) search(q metric.Point, c *collector) Stats {
	bb, k, n := x.bounds(), x.K(), x.db.N()
	if bb == nil {
		x.db.measure(q, x.db.block, x.db.order, 0, n, c)
		return Stats{DistanceEvals: k + n}
	}
	pb, rows, s := x.lb.pb, x.rows(), x.scratchBuffers()
	// The sites are measured as the scan measures any point, so a query of
	// the wrong shape fails here with the scan's own panic.
	for i, id := range x.siteIDs {
		s.qd[i] = x.db.Metric.Distance(q, x.db.Points[id])
	}
	measured := 0
	visit := func(b int) {
		lo, hi := int(pb.ptStarts[b]), int(pb.ptStarts[b+1])
		x.db.measure(q, rows, pb.ptOrder, lo, hi, c)
		measured += hi - lo
	}
	// Buckets at LB = 0 can never be skipped: they go first, as they come,
	// and only what the limit they leave does not already exclude is ordered.
	order := s.order[:0]
	for b := 0; b < pb.numBuckets(); b++ {
		if lb := bb.lowerBound(b, s.qd); lb == 0 {
			visit(b)
		} else if !(lb > c.limit()) {
			order = append(order, bucketLB{lb, b})
		}
	}
	if c.h != nil {
		slices.SortFunc(order, func(a, b bucketLB) int {
			return cmp.Or(cmp.Compare(a.lb, b.lb), a.b-b.b)
		})
	}
	for _, e := range order {
		if !(e.lb > c.limit()) {
			visit(e.b)
		}
	}
	s.order = order[:0] // keep what append grew
	return Stats{DistanceEvals: k + measured, PrunedEvals: n - measured}
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
func defaultNProbe(buckets int) int {
	np := (buckets + 7) / 8
	if np < 1 {
		np = 1
	}
	return np
}

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
		rs, st := sc.collect(x, q, k, 0)
		return rs, ApproxStats{
			Stats: st, ProbedBuckets: nb, TotalBuckets: nb,
			Candidates: x.db.N(), Exact: true,
		}
	}
	if nprobe >= nb {
		return exact()
	}
	s := x.scratchBuffers()
	a := x.approxBuffers(pb)
	x.permuter.PermutationInto(q, s.qbuf)
	for rank, site := range s.qbuf {
		s.qinv[site] = int32(rank)
	}
	maxBKey := pb.bucketKeys(s.qinv, a.bkeys)
	s.counts = countingArgsortInto(a.bkeys, maxBKey, s.counts, a.border)
	// Measure bucket by bucket, widening past nprobe until the heap holds k
	// points that are not dead; the probe order is fixed, so this only ever
	// grows the candidate set. A probe that widens to every bucket is the
	// exact query, answered as one.
	c, rows := collector{h: newKNNHeap(k), sc: sc}, x.rows()
	probed, npts := 0, 0
	for ; probed < nb && (probed < nprobe || len(c.h.rs) < k); probed++ {
		lo, hi := int(pb.ptStarts[a.border[probed]]), int(pb.ptStarts[a.border[probed]+1])
		x.db.measure(q, rows, pb.ptOrder, lo, hi, &c)
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
