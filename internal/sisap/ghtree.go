package sisap

import (
	"math/rand"

	"distperm/internal/metric"
	"distperm/internal/perm"
)

// GHTree is a generalized-hyperplane tree (Uhlmann 1991): each node holds
// two pivot points; the left subtree contains points closer to the first
// pivot, the right subtree the rest. The bisector of the pivots (the
// paper's Definition 1) is exactly the decision boundary, making the GH-tree
// the index whose geometry the paper's bisector analysis speaks to most
// directly: a GH-tree path is a prefix of sign choices against bisectors,
// and a full distance permutation determines every such choice among the
// sites.
type GHTree struct {
	db   *DB
	root *ghNode
	size int64
}

type ghNode struct {
	a, b        int // pivot database indexes; b < 0 at leaves with one point
	left, right *ghNode
}

// NewGHTree builds a GH-tree over db with random pivot pairs.
func NewGHTree(db *DB, rng *rand.Rand) *GHTree {
	t := &GHTree{db: db}
	t.root = t.build(perm.Identity(db.N()), rng)
	return t
}

func (t *GHTree) build(ids []int, rng *rand.Rand) *ghNode {
	if len(ids) == 0 {
		return nil
	}
	t.size++
	if len(ids) == 1 {
		return &ghNode{a: ids[0], b: -1}
	}
	// Choose two distinct random pivots and swap them to the front.
	i := rng.Intn(len(ids))
	ids[0], ids[i] = ids[i], ids[0]
	j := 1 + rng.Intn(len(ids)-1)
	ids[1], ids[j] = ids[j], ids[1]
	n := &ghNode{a: ids[0], b: ids[1]}
	pa, pb := t.db.Point(n.a), t.db.Point(n.b)
	var left, right []int
	for _, id := range ids[2:] {
		da := t.db.Metric.Distance(pa, t.db.Point(id))
		db := t.db.Metric.Distance(pb, t.db.Point(id))
		if da <= db { // ties to the first pivot, like the paper's tie-break
			left = append(left, id)
		} else {
			right = append(right, id)
		}
	}
	n.left = t.build(left, rng)
	n.right = t.build(right, rng)
	return n
}

// Name implements Index.
func (t *GHTree) Name() string { return "ghtree" }

// IndexBits implements Index: two pivot references and two pointers per
// node at 64 bits each.
func (t *GHTree) IndexBits() int64 { return t.size * 4 * 64 }

// KNN implements Index.
func (t *GHTree) KNN(q metric.Point, k int) ([]Result, Stats) {
	return searchKNN(t, t.db.N(), q, k)
}

// Range implements Index.
func (t *GHTree) Range(q metric.Point, r float64) ([]Result, Stats) {
	return searchRange(t, q, r)
}

func (t *GHTree) search(q metric.Point, c *collector) Stats {
	return Stats{DistanceEvals: t.walk(t.root, q, c)}
}

// walk measures n's pivots and descends, the nearer pivot's side first,
// returning the number of points measured. Generalized-hyperplane pruning: a
// point on the far side of the a|b bisector is at least (d_far − d_near)/2
// from the query, and that side is skipped when the gap, shrunk by
// slackGap's rounding slack, exceeds c's limit — re-read after the near
// side, which can only have tightened it.
func (t *GHTree) walk(n *ghNode, q metric.Point, c *collector) int {
	if n == nil {
		return 0
	}
	da := t.db.Metric.Distance(q, t.db.Point(n.a))
	c.add(n.a, da)
	if n.b < 0 {
		return 1
	}
	db := t.db.Metric.Distance(q, t.db.Point(n.b))
	c.add(n.b, db)
	near, far, gap := n.left, n.right, slackGap(db, da)
	if da > db {
		near, far, gap = n.right, n.left, slackGap(da, db)
	}
	evals := 2 + t.walk(near, q, c)
	if !(gap/2 > c.limit()) {
		evals += t.walk(far, q, c)
	}
	return evals
}
