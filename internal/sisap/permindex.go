package sisap

import (
	"fmt"
	"math"
	"math/big"
	"sync"

	"distperm/internal/core"
	"distperm/internal/counting"
	"distperm/internal/metric"
	"distperm/internal/perm"
)

// PermDistance selects which permutation distance orders the candidates.
type PermDistance int

// Candidate-ordering permutation distances. The original
// Chávez/Figueroa/Navarro proposal and iAESA use Spearman footrule; the
// alternatives are provided for the ablation study.
const (
	Footrule PermDistance = iota
	KendallTau
	SpearmanRho
)

func (p PermDistance) String() string {
	switch p {
	case Footrule:
		return "footrule"
	case KendallTau:
		return "kendall-tau"
	case SpearmanRho:
		return "spearman-rho"
	default:
		return fmt.Sprintf("PermDistance(%d)", int(p))
	}
}

// PermIndex is the distance-permutation index ("distperm" in the SISAP
// library, after Chávez/Figueroa/Navarro 2005): for each database point it
// stores only the point's distance permutation with respect to k sites. A
// query computes its own permutation (k metric evaluations) and scans the
// database in increasing permutation-distance order — points whose
// permutation resembles the query's are probably close. That scan is
// probabilistic, not exact: a permutation *distance* gives no lower bound on
// the metric, so PermIndex exposes a budgeted kNN (KNNBudget) reporting how
// good an answer a given fraction of the database buys. That cost/quality
// curve is the search-performance side of the paper; the index size (counted
// by IndexBits via the paper's counting results) is the storage side.
//
// A permutation prefix does bound the metric: the points sharing one (a
// bucket of prefixbuckets.go) lie in one cell of the arrangement of bisectors
// between sites that the paper counts, and within an interval of distances
// from every site, so the k site distances a query computes anyway bound its
// distance to each bucket from below. Exact search — KNN and Range on a
// packed database under L1, L2 or L∞ whose buckets are large enough to be
// worth bounding — measures only the buckets those bounds cannot exclude
// (search), each a contiguous run of a bucket-major copy of the coordinates,
// with answers byte-identical to a linear scan; KNNBatch is that walk once
// per query. Whatever measures a
// candidate set in full — exact queries on a store without bounds, the
// buckets an approximate query probes — computes no ordering: the
// (distance, ID) heap makes the answer a function of the set, read in
// memory order.
//
// The in-memory representation is the paper's table encoding, live: the
// distinct occurring inverse permutations sit once each in a flat row-major
// rank matrix (rankTable) and every point stores only a table row ID, so a
// query pays the permutation distance once per *distinct* permutation and
// scatters integer keys to points — the few-distinct-permutations
// phenomenon the paper counts is a direct query-time speedup.
type PermIndex struct {
	db       *DB
	siteIDs  []int
	permuter *core.Permuter
	dist     PermDistance
	// table holds one row per distinct stored inverse permutation
	// (site → rank); tableIDs[i] is the row of point i. Both are immutable
	// after construction, so any number of queries read them at once.
	table    *rankTable
	tableIDs []uint32
	// lb holds the bucket directory and its metric bounds (prefixbuckets.go):
	// the directory built lazily or pre-filled with container views by a
	// frozen open, the bounds — and the bucket-major coordinates the walk
	// reads — computed on the first exact kNN or range query.
	lb *lazyBuckets
	// scratch pools the *permScratch query workspaces: a query borrows one
	// for its duration, so any number of goroutines may query the index.
	scratch *sync.Pool
}

// permScratch is one query's workspace, its Permuter's buffers included.
type permScratch struct {
	pm     *core.Permuter   // a clone of the index's, for the query permutation
	qbuf   perm.Permutation // forward query permutation, len k
	qfwd   []int32          // qbuf as int32, for the Kendall kernel
	qinv   []int32          // query inverse ranks, len k
	seq    []int32          // Kendall relabel buffer, len k
	tkeys  []int64          // one integer distance key per distinct row (orderKeys)
	keys   []int64          // per-point keys scattered from tkeys (orderKeys)
	counts []int32          // counting-sort buckets, grown on demand
	approx *approxScratch   // approximate-path workspace, on first approx query
	qd     []float64        // query-to-site distances, len k (search)
	heap   []entry          // a walk's frontier, grown on demand
	near   []uint32         // the sites by query distance, len k (bisectors)
	gaps   []siteGap        // every site's largest bisector gaps, len k·ℓ
}

// parallelBuildThreshold is the database size below which a build's rows,
// and a store's bounds sweep, are not worth spreading over goroutines.
const parallelBuildThreshold = 2048

// NewPermIndex builds the index with the given site IDs (database indexes)
// and candidate-ordering distance: exactly the table a sequential build through
// core.Permuter makes, over GOMAXPROCS workers for large databases (buildTable).
func NewPermIndex(db *DB, siteIDs []int, dist PermDistance) *PermIndex {
	if len(siteIDs) == 0 {
		panic("sisap: PermIndex requires at least one site")
	}
	x := newPermIndexFromTable(db, append([]int(nil), siteIDs...), dist, nil, make([]uint32, db.N()))
	if x.K() <= 16 { // the inverse ranks themselves, 4 bits a site
		x.table = buildTable(x, func(fwd perm.Permutation, _ []byte) (key uint64) {
			for rank, site := range fwd {
				key |= uint64(rank) << (4 * site)
			}
			return key
		})
	} else { // two bytes a site
		x.table = buildTable(x, func(fwd perm.Permutation, buf []byte) string {
			for rank, site := range fwd {
				buf[2*site], buf[2*site+1] = byte(rank), byte(rank>>8)
			}
			return string(buf)
		})
	}
	return x
}

// newPermIndexFromTable assembles an index from an already-built table
// encoding (the deserialization path).
func newPermIndexFromTable(db *DB, siteIDs []int, dist PermDistance, table *rankTable, ids []uint32) *PermIndex {
	sites := make([]metric.Point, len(siteIDs))
	for i, id := range siteIDs {
		sites[i] = db.Points[id]
	}
	return &PermIndex{
		db:       db,
		siteIDs:  siteIDs,
		permuter: core.NewPermuter(db.Metric, sites),
		dist:     dist,
		table:    table,
		tableIDs: ids,
		lb:       &lazyBuckets{},
		scratch:  &sync.Pool{},
	}
}

// siteKernel measures a packed row against all k sites, their coordinates
// site-major, in DB.measure's arithmetic; nil where that does not cover a store.
type siteKernel struct {
	sites  []float64
	l1, l2 bool
}

// newSiteKernel returns the kernel of x's sites, or nil.
func (x *PermIndex) newSiteKernel() *siteKernel {
	_, l1 := x.db.Metric.(metric.L1)
	_, l2 := x.db.Metric.(metric.L2)
	if _, linf := x.db.Metric.(metric.LInf); x.db.dim == 0 || !l1 && !l2 && !linf {
		return nil
	}
	kern := &siteKernel{l1: l1, l2: l2}
	for _, id := range x.siteIDs {
		kern.sites = append(kern.sites, x.db.row(id)...)
	}
	return kern
}

// sums fills out (len k) with row p's raw sums against every site, site minus
// point, left to right: Σ|s − p|, Σ(s − p)² (no root), or max |s − p| by the
// builtin, which keeps a NaN term as the sweep's min and max do; measure skips it.
func (kern *siteKernel) sums(p, out []float64) {
	d, sites := len(p), kern.sites
	for s := range out {
		a, v := sites[s*d:][:d], 0.0
		switch {
		case kern.l2:
			for j, x := range p {
				t := a[j] - x
				v += t * t
			}
		case kern.l1:
			for j, x := range p {
				v += math.Abs(a[j] - x)
			}
		default:
			for j, x := range p {
				v = max(v, math.Abs(a[j]-x))
			}
		}
		out[s] = v
	}
}

// permute writes row p's distance permutation into fwd as core.Permuter
// does: the sums, rooted under L2, in insertion order, ties to the lower site.
// At a NaN sum it reports false, fwd unfinished (L∞ Metric.Distance skips it).
func (kern *siteKernel) permute(p, d []float64, fwd perm.Permutation) bool {
	kern.sums(p, d)
	for s, v := range d { // d[:s] holds the sorted distances, fwd[:s] their sites
		if v != v {
			return false
		}
		if kern.l2 {
			v = math.Sqrt(v)
		}
		j := s
		for ; j > 0 && v < d[j-1]; j-- {
			d[j], fwd[j] = d[j-1], fwd[j-1]
		}
		d[j], fwd[j] = v, s
	}
	return true
}

// buildTable fills x.tableIDs and returns the table, each distinct inverse
// permutation once, told apart by keyOf (injective, given 2k bytes of scratch).
// Shards merge in shard order, so rows are in first-occurrence order.
func buildTable[K comparable](x *PermIndex, keyOf func(fwd perm.Permutation, buf []byte) K) *rankTable {
	n, k, kern, workers := x.db.N(), x.K(), x.newSiteKernel(), core.ShardWorkers(x.db.N())
	tables, keys, ends, global := make([]*rankTable, workers), make([][]K, workers), make([]int, workers+1), map[K]uint32{}
	build := func(shard, lo, hi int) {
		table, index, pm := newRankTable(k), global, x.permuter.Clone()
		if shard > 0 { // the first shard's rows are the first global rows as they stand
			index = map[K]uint32{}
		}
		d, fwd, buf := make([]float64, k), make(perm.Permutation, k), make([]byte, 2*k)
		for i := lo; i < hi; i++ {
			if kern == nil || !kern.permute(x.db.row(i), d, fwd) {
				pm.PermutationInto(x.db.Points[i], fwd)
			}
			key := keyOf(fwd, buf)
			row, ok := index[key]
			if !ok {
				row = uint32(table.appendInverseOf(fwd))
				index[key], keys[shard] = row, append(keys[shard], key)
			}
			x.tableIDs[i] = row
		}
		tables[shard], ends[shard+1] = table, hi
	}
	if workers <= 1 || n < parallelBuildThreshold {
		build(0, 0, n)
		return tables[0]
	}
	shards := core.ShardIndexes(n, workers, build)
	for s := 1; s < shards; s++ { // the others merge into them, and their points are renumbered
		l2g := make([]uint32, tables[s].rows)
		for r, key := range keys[s] {
			if _, ok := global[key]; !ok {
				global[key] = uint32(tables[0].rows)
				tables[0].appendRowFrom(tables[s], r)
			}
			l2g[r] = global[key]
		}
		for i := ends[s]; i < ends[s+1]; i++ {
			x.tableIDs[i] = l2g[x.tableIDs[i]]
		}
	}
	return tables[0]
}

// Name implements Index.
func (x *PermIndex) Name() string { return "distperm" }

// K returns the number of sites.
func (x *PermIndex) K() int { return len(x.siteIDs) }

// PermDist returns the candidate-ordering permutation distance.
func (x *PermIndex) PermDist() PermDistance { return x.dist }

// SiteIDs returns a copy of the database IDs of the sites, in site order.
func (x *PermIndex) SiteIDs() []int { return append([]int(nil), x.siteIDs...) }

// DistinctPermutations returns the number of distinct distance permutations
// stored in the index — the paper's central statistic for this structure,
// and the per-query permutation-distance workload of the scan.
func (x *PermIndex) DistinctPermutations() int { return x.table.rows }

// IndexBits implements Index: the cheaper of the two encodings the paper
// discusses. The naive encoding stores ⌈lg k!⌉ bits per point. The
// table encoding exploits the paper's counting results: a shared table
// stores each *distinct occurring* permutation once and every point stores
// ⌈lg(#distinct)⌉ bits of table index — the win when the database is large
// relative to the number of permutations, exactly as the paper's §4 notes.
func (x *PermIndex) IndexBits() int64 {
	if t := x.TableIndexBits(); t < x.NaiveIndexBits() {
		return t
	}
	return x.NaiveIndexBits()
}

// TableIndexBits returns the storage of the shared-table encoding:
// n·⌈lg(#distinct)⌉ bits of per-point table indexes plus the table itself.
func (x *PermIndex) TableIndexBits() int64 {
	perPoint := counting.Bits(big.NewInt(int64(x.table.rows)))
	table := int64(x.table.rows) * int64(naiveBitsPerPerm(x.K()))
	return int64(x.db.N())*int64(perPoint) + table
}

// NaiveIndexBits returns the storage under the unrestricted-permutation
// encoding, n·⌈lg k!⌉ bits — the Chávez/Figueroa/Navarro O(nk log k) figure.
func (x *PermIndex) NaiveIndexBits() int64 {
	return int64(x.db.N()) * int64(naiveBitsPerPerm(x.K()))
}

// scratchBuffers borrows a query workspace from the pool, or makes one; the
// caller hands it back with x.scratch.Put. Only the permutation buffers are
// eager: the ordering keys are n- and rows-sized and a workspace that serves
// exhaustive, range and approximate queries never orders anything.
func (x *PermIndex) scratchBuffers() *permScratch {
	if s, ok := x.scratch.Get().(*permScratch); ok {
		return s
	}
	k := x.K()
	return &permScratch{
		pm:   x.permuter.Clone(),
		qbuf: make(perm.Permutation, k),
		qfwd: make([]int32, k),
		qinv: make([]int32, k),
		seq:  make([]int32, k),
		qd:   make([]float64, k),
	}
}

// scanOrderInto fills out with the first len(out) database indexes of the
// permutation-distance scan order (ties by lower index) and returns the
// query's own cost, k metric evaluations. It is the table-encoded fast
// path: one permutation distance per distinct row, an O(n) key scatter, and
// a (partial) counting sort.
func (x *PermIndex) scanOrderInto(q metric.Point, out []int) Stats {
	s := x.scratchBuffers()
	defer x.scratch.Put(s)
	if s.keys == nil { // the workspace's first ordered scan
		s.tkeys = make([]int64, x.table.rows)
		s.keys = make([]int64, x.db.N())
	}
	s.pm.PermutationInto(q, s.qbuf)
	for rank, site := range s.qbuf {
		s.qfwd[rank] = int32(site)
		s.qinv[site] = int32(rank)
	}
	maxKey := x.table.distanceKeys(x.dist, s.qinv, s.qfwd, s.seq, s.tkeys)
	for i, id := range x.tableIDs {
		s.keys[i] = s.tkeys[id]
	}
	s.counts = countingArgsortInto(s.keys, maxKey, s.counts, out)
	return Stats{DistanceEvals: x.K()}
}

// ScanOrder returns the database indexes ordered by increasing permutation
// distance between each point's stored permutation and the query's, ties by
// index — the candidate schedule iAESA-style search follows. It costs k
// metric evaluations (the query's own permutation).
func (x *PermIndex) ScanOrder(q metric.Point) ([]int, Stats) {
	order := make([]int, x.db.N())
	stats := x.scanOrderInto(q, order)
	return order, stats
}

// KNNBatch answers one kNN query per element of qs, each KNN's own walk
// (search), so results[i] and stats[i] are exactly what KNN(qs[i], k)
// returns, pruned buckets included.
func (x *PermIndex) KNNBatch(qs []metric.Point, k int) ([][]Result, []Stats) {
	checkK(k, x.db.N())
	results := make([][]Result, len(qs))
	stats := make([]Stats, len(qs))
	for i, q := range qs {
		results[i], stats[i] = Scope{}.Search(x, q, k, 0)
	}
	return results, stats
}

// KNNBudget returns the best k results found after measuring at most
// maxEvals database points in permutation-distance order (the query's k
// site evaluations are charged on top; maxEvals is clamped to 0..n). The
// candidate schedule is produced by the partial counting sort, so a small
// budget never pays for ordering the whole database — and a budget of n or
// more pays for no ordering at all: every point is measured whatever the
// schedule, and the bounded (distance, ID) heap makes the answer a function
// of the candidate set, not of the visiting order. The exhaustive scan
// therefore skips permutation, row kernel, key scatter and counting sort
// and walks the database in memory order (DB.measure): byte-identical
// answers, and Stats still charge the k site evaluations.
func (x *PermIndex) KNNBudget(q metric.Point, k, maxEvals int) ([]Result, Stats) {
	n := x.db.N()
	checkK(k, n)
	maxEvals = min(max(maxEvals, 0), n)
	c := collector{h: newKNNHeap(k)}
	if maxEvals == n {
		x.db.measure(q, x.db.block, x.db.order, 0, n, &c)
	} else {
		order := make([]int, maxEvals)
		x.scanOrderInto(q, order)
		for _, i := range order {
			c.h.push(Result{ID: i, Distance: x.db.Metric.Distance(q, x.db.Points[i])})
		}
	}
	return c.results(), Stats{DistanceEvals: x.K() + maxEvals}
}

// KNN implements Index, exactly: element for element what LinearScan
// returns. Where the store carries bucket bounds only the buckets whose lower
// bound does not exceed the k-th distance found so far are measured (search);
// elsewhere every point is, in memory order. Cost: k site evaluations plus
// the points measured, n + k without bounds.
func (x *PermIndex) KNN(q metric.Point, k int) ([]Result, Stats) {
	return searchKNN(x, x.db.N(), q, k)
}

// Range implements Index, exactly: only the buckets whose lower bound — from
// their permutation prefix and their site-distance ranges — is within r are
// measured (search); a store without bounds measures every point, in memory
// order. Cost: k site evaluations plus the points measured.
func (x *PermIndex) Range(q metric.Point, r float64) ([]Result, Stats) {
	return searchRange(x, q, r)
}

// EvalsToFindTrueKNN reports how many database points must be measured, in
// permutation-scan order, before all k true nearest neighbours have been
// seen. It is the paper-style quality measure for permutation ordering:
// small values mean the permutation index extracts most of the information
// an exact index would.
func (x *PermIndex) EvalsToFindTrueKNN(q metric.Point, k int) (int, Stats) {
	truth, _ := NewLinearScan(x.db).KNN(q, k)
	want := make(map[int]bool, k)
	for _, r := range truth {
		want[r.ID] = true
	}
	order, stats := x.ScanOrder(q)
	found := 0
	for n, i := range order {
		if want[i] {
			found++
			if found == k {
				stats.DistanceEvals += n + 1
				return n + 1, stats
			}
		}
	}
	stats.DistanceEvals += len(order)
	return len(order), stats
}

func naiveBitsPerPerm(k int) int {
	return counting.Bits(counting.Factorial(k))
}
