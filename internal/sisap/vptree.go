package sisap

import (
	"math/rand"

	"distperm/internal/metric"
	"distperm/internal/perm"
)

// VPTree is a vantage-point tree (Uhlmann 1991; Yianilos 1993): each node
// holds a vantage point and the median distance from it to the points below;
// the inside subtree holds points closer than the median, the outside
// subtree the rest. The triangle inequality prunes whole subtrees during
// search. Cited by the paper (§1) as the tree-structured class of proximity
// indexes that distance-permutation methods are an alternative to.
type VPTree struct {
	db   *DB
	root *vpNode
	size int64 // node count, for IndexBits
}

type vpNode struct {
	id              int     // vantage point (database index)
	median          float64 // median distance to points below
	inside, outside *vpNode
}

// NewVPTree builds a VP-tree over db, choosing vantage points uniformly at
// random with the supplied source. Construction is O(n log n) metric
// evaluations in expectation.
func NewVPTree(db *DB, rng *rand.Rand) *VPTree {
	t := &VPTree{db: db}
	t.root = t.build(perm.Identity(db.N()), rng)
	return t
}

func (t *VPTree) build(ids []int, rng *rand.Rand) *vpNode {
	if len(ids) == 0 {
		return nil
	}
	t.size++
	// Pick a random vantage point and swap it to the front.
	v := rng.Intn(len(ids))
	ids[0], ids[v] = ids[v], ids[0]
	node := &vpNode{id: ids[0]}
	rest := ids[1:]
	if len(rest) == 0 {
		return node
	}
	d := make([]float64, len(rest))
	vp := t.db.Point(node.id)
	for i, id := range rest {
		d[i] = t.db.Metric.Distance(vp, t.db.Point(id))
	}
	node.median = medianSplit(rest, d)
	mid := 0
	for mid < len(rest) && d[mid] < node.median {
		mid++
	}
	node.inside = t.build(rest[:mid], rng)
	node.outside = t.build(rest[mid:], rng)
	return node
}

// medianSplit partially sorts ids by their distances and returns the median
// distance; afterwards every id with distance < median precedes every id
// with distance ≥ median.
func medianSplit(ids []int, d []float64) float64 {
	// Simple full sort; construction cost is dominated by metric
	// evaluations anyway.
	order := argsort(d)
	idsCopy := append([]int(nil), ids...)
	dCopy := append([]float64(nil), d...)
	for i, o := range order {
		ids[i] = idsCopy[o]
		d[i] = dCopy[o]
	}
	return d[len(d)/2]
}

// Name implements Index.
func (t *VPTree) Name() string { return "vptree" }

// IndexBits implements Index: one float64 radius plus ~2 pointers' worth of
// structure per node. Pointer overhead is charged at 64 bits each, matching
// how the literature accounts tree indexes.
func (t *VPTree) IndexBits() int64 { return t.size * (64 + 2*64) }

// KNN implements Index.
func (t *VPTree) KNN(q metric.Point, k int) ([]Result, Stats) {
	return searchKNN(t, t.db.N(), q, k)
}

// Range implements Index.
func (t *VPTree) Range(q metric.Point, r float64) ([]Result, Stats) {
	return searchRange(t, q, r)
}

func (t *VPTree) search(q metric.Point, c *collector) Stats {
	return Stats{DistanceEvals: t.walk(t.root, q, c)}
}

// walk measures n's vantage point and descends, the query's side of the
// median first, returning the number of points measured. A point inside is
// at least d − median from a query at d, a point outside at least median − d:
// the far side is skipped when that gap, shrunk by slackGap's rounding
// slack, exceeds c's limit — re-read after the near side, which can only
// have tightened it.
func (t *VPTree) walk(n *vpNode, q metric.Point, c *collector) int {
	if n == nil {
		return 0
	}
	d := t.db.Metric.Distance(q, t.db.Point(n.id))
	c.add(n.id, d)
	near, far, gap := n.inside, n.outside, slackGap(n.median, d)
	if d >= n.median {
		near, far, gap = n.outside, n.inside, slackGap(d, n.median)
	}
	evals := 1 + t.walk(near, q, c)
	if !(gap > c.limit()) {
		evals += t.walk(far, q, c)
	}
	return evals
}
