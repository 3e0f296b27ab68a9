package sisap

import (
	"math"
	"sync"

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
// of the candidate *set*. The probed buckets' ptOrder runs are therefore
// walked as they lie through DB.measure's posting-list shape — no row
// gather, no sub-table kernel, no key scatter, no sort — which is
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

// lazyBuckets shares one once-built directory between an index and every
// replica cloned from it (Replica copies the struct, so the pointer is
// shared). A frozen open pre-fills pb with container views; heap indexes
// build it on first approximate query.
type lazyBuckets struct {
	once sync.Once
	pb   *prefixBuckets
}

// maxAutoPrefixLen caps the automatic ℓ choice: prefixes longer than this
// fragment the directory past any probing benefit.
const maxAutoPrefixLen = 8

// defaultPrefixLen picks ℓ from k and the distinct-row count: the shortest
// prefix whose directory reaches ~√distinct buckets, so probe cost and
// mean posting-list length balance at the square root of the table.
func defaultPrefixLen(t *rankTable) int {
	maxEll := maxAutoPrefixLen
	if maxEll > t.k {
		maxEll = t.k
	}
	target := int(math.Ceil(math.Sqrt(float64(t.rows))))
	for ell := 1; ell < maxEll; ell++ {
		if countDistinctPrefixes(t, ell) >= target {
			return ell
		}
	}
	return maxEll
}

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

func countDistinctPrefixes(t *rankTable, ell int) int {
	seen := make(map[string]struct{}, t.rows)
	pref := make([]uint32, ell)
	key := make([]byte, 4*ell)
	for r := 0; r < t.rows; r++ {
		fillPrefix(t, r, ell, pref)
		for j, s := range pref {
			key[4*j] = byte(s)
			key[4*j+1] = byte(s >> 8)
			key[4*j+2] = byte(s >> 16)
			key[4*j+3] = byte(s >> 24)
		}
		seen[string(key)] = struct{}{}
	}
	return len(seen)
}

// buildPrefixBuckets groups the table's rows (and, through tableIDs, the
// points) by length-ell permutation prefix. ell ≤ 0 selects
// defaultPrefixLen. Buckets are numbered in first-occurrence row order;
// rows and points stay in ascending ID order within their bucket, so the
// directory is a deterministic function of the table.
func buildPrefixBuckets(t *rankTable, tableIDs []uint32, ell int) *prefixBuckets {
	if ell <= 0 {
		ell = defaultPrefixLen(t)
	}
	if ell > t.k {
		ell = t.k
	}
	distinct := t.rows
	index := make(map[string]uint32, distinct)
	rowBucket := make([]uint32, distinct)
	var prefixes []uint32
	pref := make([]uint32, ell)
	key := make([]byte, 4*ell)
	for r := 0; r < distinct; r++ {
		fillPrefix(t, r, ell, pref)
		for j, s := range pref {
			key[4*j] = byte(s)
			key[4*j+1] = byte(s >> 8)
			key[4*j+2] = byte(s >> 16)
			key[4*j+3] = byte(s >> 24)
		}
		b, ok := index[string(key)]
		if !ok {
			b = uint32(len(index))
			index[string(key)] = b
			prefixes = append(prefixes, pref...)
		}
		rowBucket[r] = b
	}
	buckets := len(index)
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
	pb := x.buckets()
	nb := pb.numBuckets()
	if nprobe <= 0 {
		nprobe = defaultNProbe(nb)
	}
	exact := func() ([]Result, ApproxStats) {
		rs, st := x.KNN(q, k)
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
	// Widen past nprobe until the candidate set can fill k answers; the
	// probe order is fixed, so this only ever grows the candidate set.
	probed, npts := 0, 0
	for probed < nb && (probed < nprobe || npts < k) {
		b := a.border[probed]
		npts += int(pb.ptStarts[b+1] - pb.ptStarts[b])
		probed++
	}
	if probed >= nb {
		return exact()
	}
	c := collector{h: newKNNHeap(k)}
	for _, b := range a.border[:probed] {
		x.db.measure(q, pb.ptOrder, int(pb.ptStarts[b]), int(pb.ptStarts[b+1]), &c)
	}
	return c.h.results(), ApproxStats{
		Stats:         Stats{DistanceEvals: x.K() + npts},
		ProbedBuckets: probed,
		TotalBuckets:  nb,
		Candidates:    npts,
	}
}

// KNNApproxBatch answers one approximate kNN query per element of qs,
// identical per query to KNNApprox. Each query probes its own buckets, so
// unlike the exact batch path there is no shared tile walk to amortise —
// the win is already in touching only the candidate points.
func (x *PermIndex) KNNApproxBatch(qs []metric.Point, k, nprobe int) ([][]Result, []ApproxStats) {
	results := make([][]Result, len(qs))
	stats := make([]ApproxStats, len(qs))
	for i, q := range qs {
		results[i], stats[i] = x.KNNApprox(q, k, nprobe)
	}
	return results, stats
}
