package sisap

import (
	"math"
	"slices"

	"distperm/internal/metric"
)

// MaxResults is the most answers a range collector holds: one more and it
// stops, so an answer of MaxResults + 1 says the true one is longer.
const MaxResults = 1 << 20

var maxRange = MaxResults // what the collector reads; tests lower it

// Tombs is a copy-on-write set of point IDs, one bit each: With returns a new
// set, so the one a published snapshot holds never changes.
type Tombs []uint64

// Has reports whether id is in the set.
func (t Tombs) Has(id int) bool { return id>>6 < len(t) && t[id>>6]&(1<<(id&63)) != 0 }

// With returns the set with ids added.
func (t Tombs) With(ids ...int) Tombs {
	u := slices.Clone(t)
	for _, id := range ids {
		for id>>6 >= len(u) {
			u = append(u, 0)
		}
		u[id>>6] |= 1 << (id & 63)
	}
	return u
}

// Scope is the frame a query answers in: Part (nil: the identity) names the
// searched index's point i Part[i] in the answer — a shard's part, a
// snapshot's gids — and the points Dead names are left out. A dead point may
// be measured, and counts in Stats, but it is never collected and never sets
// a limit, so a walk prunes at the k-th distance it may answer with.
type Scope struct {
	Dead Tombs
	Part []int
}

// under returns sc for a member index whose point i is the searched index's
// point part[i].
func (sc Scope) under(part []int) Scope {
	if sc.Part != nil {
		composed := make([]int, len(part))
		for i, id := range part {
			composed[i] = sc.Part[id]
		}
		part = composed
	}
	return Scope{sc.Dead, part}
}

// collector is where a measuring pass puts its candidates: the k best in a
// bounded (distance, ID) heap, or — with h nil — everything within radius
// r, at most maxRange + 1 of them. Either way what it ends up holding is a
// function of the candidate *set* alone, never of the order the candidates
// arrive in, which is what lets every scan that measures its whole candidate
// set visit it in memory order instead of permutation order, and lets the
// members of a container walk into one collector, each under its own scope.
type collector struct {
	h   *knnHeap
	r   float64
	out []Result
	sc  Scope
}

// limit returns the distance above which a candidate cannot be kept.
func (c *collector) limit() float64 {
	if c.h != nil {
		return c.h.bound()
	}
	return c.r
}

// add offers one measured candidate and returns the new limit.
func (c *collector) add(id int, d float64) float64 {
	if c.sc.Part != nil {
		id = c.sc.Part[id]
	}
	switch {
	case c.sc.Dead.Has(id):
	case c.h != nil:
		c.h.push(Result{ID: id, Distance: d})
	case d <= c.r:
		c.out = append(c.out, Result{ID: id, Distance: d})
		if len(c.out) > maxRange {
			c.r = math.Inf(-1)
		}
	}
	return c.limit()
}

// results returns what c holds in (distance, ID) order.
func (c *collector) results() []Result {
	rs := c.out
	if c.h != nil {
		rs = c.h.rs
	}
	sortResults(rs)
	return rs
}

// Walk is one query answered over disjoint member indexes — a view's
// segments — walked in turn into one collector, each under the dead set and
// its own part: a kNN member prunes at the k-th live distance of the members
// before it, and Results is already the merged answer. It is
// ShardedIndex.search with a seam between members, where a caller books each
// member's cost and time apart.
type Walk struct{ c collector }

// NewWalk starts a walk for the k best or, with k = 0, everything within r,
// leaving out the points dead names.
func NewWalk(k int, r float64, dead Tombs) Walk {
	w := Walk{collector{r: r, sc: Scope{Dead: dead}}}
	if k > 0 {
		w.c.h = newKNNHeap(k)
	}
	return w
}

// Search walks member x, whose point i is the view's point part[i] (nil: the
// identity), into w. An Index of another package answers whole and cannot
// leave points out.
func (w *Walk) Search(x Index, part []int, q metric.Point) Stats {
	w.c.sc.Part = part
	if s, ok := x.(searcher); ok {
		return s.search(q, &w.c)
	}
	if w.c.h == nil {
		rs, st := x.Range(q, w.c.r)
		w.offer(rs)
		return st
	}
	rs, st := x.KNN(q, w.c.h.k)
	w.offer(rs)
	return st
}

// Approx offers w member x's own approximate answer: its k best in its
// nprobe nearest buckets, the probe widened until it holds k points that are
// not dead, exactly as if x were asked alone.
func (w *Walk) Approx(x ApproxIndex, part []int, q metric.Point, k, nprobe int) ApproxStats {
	w.c.sc.Part = part
	px, ok := x.(*PermIndex)
	if !ok {
		rs, st := x.KNNApprox(q, k, nprobe)
		w.offer(rs)
		return st
	}
	rs, st := px.knnApprox(q, k, nprobe, w.c.sc)
	w.c.sc.Part = nil // rs is renamed already
	w.offer(rs)
	return st
}

// offer adds rs, a member's answer, to w.
func (w *Walk) offer(rs []Result) {
	for _, r := range rs {
		w.c.add(r.ID, r.Distance)
	}
}

// Results returns what w holds in (distance, ID) order.
func (w *Walk) Results() []Result { return w.c.results() }

// Triangle-inequality elimination compares *computed* distances. The metric
// guarantees d(q,p) ≥ |d(q,s) − d(s,p)|, but each of the three is rounded on
// its own, and where the inequality is tight (collinear points) the raw float
// bound exceeds the computed d(q,p) often enough to drop boundary points (on
// 1- and 2-d data, once in ten thousand range queries). Under L1, L2 and L∞
// a computed distance d̂ is within relative error ε = (dim + 2)·2⁻⁵³ of the true
// one (dim summed terms of ≤ 3 roundings, a correctly rounded Sqrt), so with
// a = d̂(q,s) and b = d̂(s,p)
//
//	d̂(q,p) ≥ (1−ε)·|a/(1±ε) − b/(1±ε)| ≥ |a − b| − 3ε·(a + b),
//
// and |a − b| − boundSlack·(a + b) stays below d̂(q,p), its own roundings
// included, up to boundMaxDim dimensions; boundFloor covers squared
// differences that underflow, where the error is absolute (≤ √dim·2⁻⁵³⁷).
// Both are far below any margin that prunes. The guarantee is for these
// three kernels only: Angular's acos and LP's pow need their own argument.
const (
	boundSlack  = 0x1p-40
	boundFloor  = 0x1p-500
	boundMaxDim = 1 << 11
)

// slackGap returns a − b shrunk by the slack: where it is positive, no point
// at computed distance b from a third point is computed closer than that to
// a query at computed distance a from it (or the other way round).
func slackGap(a, b float64) float64 { return a - b - boundSlack*(a+b) - boundFloor }

// lowerBound returns |a − b| shrunk by the slack (negative when that leaves
// nothing; NaN, which compares greater than nothing, for non-finite input).
func lowerBound(a, b float64) float64 { return math.Abs(a-b) - boundSlack*(a+b) - boundFloor }

// Every point p of a bucket of prefix a₁…a_ℓ is computed no farther from aₘ
// than from a site s ranked after it: d̂(p,aₘ) ≤ d̂(p,s), ties to the lower
// site. Under L2, f(x) = (δ(x,a)² − δ(x,s)²) / 2δ(a,s) is affine with a unit
// gradient, so δ(q,p) ≥ f(q) − f(p) (Hilbert exclusion). With A = d̂(q,a),
// B = d̂(q,s), D = d̂(a,s) and Rₛ the store's largest computed distance to s
// (the buckets' hi; NaN if any is, which turns the term off): squaring A and
// B, their difference, the division by the computed 2D and the final d̂(q,p)
// err by ≤ 4.2ε·(A² + B²)/2D; p may lie past the bisector on its computed
// side by f(p) ≤ ε·(δ(p,a) + δ(p,s))²/2δ(a,s) ≤ 1.02ε·(Rₐ + Rₛ)²/2D, and by
// ℓ·2⁻⁵⁰·(Rₐ + Rₛ)²/2D more where onPrefix lets a sum through; and
// underflow, absolute (≤ √dim·2⁻⁵³⁷ a distance), stays within boundFloor·(1 +
// 1/2D) while 2⁻⁴⁰⁰ < D < 2⁴⁰⁰ and A, B ≤ 2²⁵⁰. So with β = boundSlack ≥ 4ε
// up to boundMaxDim, bisectorGap is at most d̂(q,p). The triangle inequality
// gives (δ(q,a) − δ(q,s))/2 in any metric, too weak to pay under L1 (40 %
// fewer points measured on a uniform store, in no less time).

// bisectorPair returns 1/2D and the slack β·r²/2D + boundFloor·(1 + 1/2D) of
// sites D apart, r = Rₐ + Rₛ, or zeros for sites with no bisector to use.
func bisectorPair(d, r float64) (inv, slack float64) {
	if !(d > 0x1p-400 && d < 0x1p400) {
		return 0, 0
	}
	inv = 0.5 / d
	return inv, boundSlack*r*r*inv + boundFloor*(1+inv)
}

// bisectorGap returns ((1 − 2β)·A² − (1 + 2β)·B²)·inv − slack, NaN past 2²⁵⁰.
func bisectorGap(a, b, inv, slack float64) float64 {
	if !(a <= 0x1p250 && b <= 0x1p250) {
		return math.NaN()
	}
	return (a*a*(1-2*boundSlack)-b*b*(1+2*boundSlack))*inv - slack
}

// sqSums sets out[i] to Σⱼ (rows[i·d + j] − v[j])², d = len(v), for every i of
// out: the one L2 kernel, run by DB.measure over a run of a store's rows and
// by siteKernel.sums over the k sites. Go unrolls no loop, and a loop over
// d coordinates costs about twice the arithmetic it does, so for d ≤ 8 each
// dimension has a straight-line body; above 8 the loop stays. Every body
// sums left to right in internal/metric's statement shape, s := t0*t0 then
// s += t1*t1 and so on (the metric's 0 + t0*t0 is t0*t0, a square being
// never −0), because Go fuses x*y + z into one rounding on arm64 and the same
// statements on both sides fuse alike; and row − v squares to the metric's
// v − row bit for bit. So a sum is Metric.Distance's before its root.
func sqSums(rows, v, out []float64) {
	switch len(v) {
	case 1:
		v0 := v[0]
		for i := range out {
			t0 := rows[i] - v0
			out[i] = t0 * t0
		}
	case 2:
		v0, v1 := v[0], v[1]
		for i := range out {
			r := rows[2*i : 2*i+2 : 2*i+2]
			t0, t1 := r[0]-v0, r[1]-v1
			s := t0 * t0
			s += t1 * t1
			out[i] = s
		}
	case 3:
		v0, v1, v2 := v[0], v[1], v[2]
		for i := range out {
			r := rows[3*i : 3*i+3 : 3*i+3]
			t0, t1, t2 := r[0]-v0, r[1]-v1, r[2]-v2
			s := t0 * t0
			s += t1 * t1
			s += t2 * t2
			out[i] = s
		}
	case 4:
		v0, v1, v2, v3 := v[0], v[1], v[2], v[3]
		for i := range out {
			r := rows[4*i : 4*i+4 : 4*i+4]
			t0, t1, t2, t3 := r[0]-v0, r[1]-v1, r[2]-v2, r[3]-v3
			s := t0 * t0
			s += t1 * t1
			s += t2 * t2
			s += t3 * t3
			out[i] = s
		}
	case 5:
		v0, v1, v2, v3, v4 := v[0], v[1], v[2], v[3], v[4]
		for i := range out {
			r := rows[5*i : 5*i+5 : 5*i+5]
			t0, t1, t2, t3, t4 := r[0]-v0, r[1]-v1, r[2]-v2, r[3]-v3, r[4]-v4
			s := t0 * t0
			s += t1 * t1
			s += t2 * t2
			s += t3 * t3
			s += t4 * t4
			out[i] = s
		}
	case 6:
		v0, v1, v2, v3, v4, v5 := v[0], v[1], v[2], v[3], v[4], v[5]
		for i := range out {
			r := rows[6*i : 6*i+6 : 6*i+6]
			t0, t1, t2, t3, t4, t5 := r[0]-v0, r[1]-v1, r[2]-v2, r[3]-v3, r[4]-v4, r[5]-v5
			s := t0 * t0
			s += t1 * t1
			s += t2 * t2
			s += t3 * t3
			s += t4 * t4
			s += t5 * t5
			out[i] = s
		}
	case 7:
		v0, v1, v2, v3, v4, v5, v6 := v[0], v[1], v[2], v[3], v[4], v[5], v[6]
		for i := range out {
			r := rows[7*i : 7*i+7 : 7*i+7]
			t0, t1, t2, t3, t4, t5, t6 := r[0]-v0, r[1]-v1, r[2]-v2, r[3]-v3, r[4]-v4, r[5]-v5, r[6]-v6
			s := t0 * t0
			s += t1 * t1
			s += t2 * t2
			s += t3 * t3
			s += t4 * t4
			s += t5 * t5
			s += t6 * t6
			out[i] = s
		}
	case 8:
		v0, v1, v2, v3, v4, v5, v6, v7 := v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]
		for i := range out {
			r := rows[8*i : 8*i+8 : 8*i+8]
			t0, t1, t2, t3, t4, t5, t6, t7 := r[0]-v0, r[1]-v1, r[2]-v2, r[3]-v3, r[4]-v4, r[5]-v5, r[6]-v6, r[7]-v7
			s := t0 * t0
			s += t1 * t1
			s += t2 * t2
			s += t3 * t3
			s += t4 * t4
			s += t5 * t5
			s += t6 * t6
			s += t7 * t7
			out[i] = s
		}
	default:
		d := len(v)
		for i := range out {
			r := rows[i*d:][:d]
			var s float64
			for j, x := range v {
				t := r[j] - x
				s += t * t
			}
			out[i] = s
		}
	}
}

// sqCut returns a squared sum above which every correctly rounded root is
// above limit: limit² rounded up by far more than the ≈ 2 ulps the root's
// rounding and the square's own can take back (a root at most limit is
// below limit·(1 + 2⁻⁵³), whose square is below limit²·(1 + 2⁻⁵²)). +Inf —
// reject nothing on the square — where that is not safe: a limit outside
// [2⁻⁵⁰⁰, 2⁵⁰⁰], where the square could underflow or overflow, and a NaN or
// infinite one, a range collector's −Inf after too many answers included.
func sqCut(limit float64) float64 {
	if !(limit >= 0x1p-500 && limit <= 0x1p500) {
		return math.Inf(1)
	}
	return limit * limit * (1 + 0x1p-49)
}

// measure is the one loop that evaluates the metric over a whole candidate
// set: candidates lo..hi-1, candidate i being point ids[i] (point i when ids
// is nil), each offered to c with its distance to q. A caller chooses where
// the coordinates are read, never how they are measured: row i of rows holds
// candidate i, so a run of candidates is a contiguous run of coordinates that
// ids only labels — the database's block under its own labels (db.block,
// db.order: the store in memory order), or the bucket-major rows under the
// directory's posting list (a bucket).
// Under L1, L2 or L∞ it reads such rows directly, with the expression shape
// and left-to-right summation of internal/metric, so every distance is
// bit-identical to Metric.Distance(q, Point(id)); any other metric, point
// type or query shape, and a store without rows (nil), takes the generic loop
// by label (where a mismatched query panics exactly as the metric always
// has). Distances above c's limit are dropped before the call — they could
// not be kept — and under L2 before the root, on the squared sum (sqCut): a
// NaN sum is rooted and offered as the metric would have it.
func (db *DB) measure(q metric.Point, rows []float64, ids []uint32, lo, hi int, c *collector) {
	limit := c.limit()
	label := func(i int) int { // candidate i's point ID
		if ids == nil {
			return i
		}
		return int(ids[i])
	}
	if qv, ok := q.(metric.Vector); ok && rows != nil && len(qv) == db.dim {
		d := db.dim
		switch db.Metric.(type) {
		case metric.L1:
			for i := lo; i < hi; i++ {
				p := rows[i*d:][:len(qv)]
				var s float64
				for j, x := range qv {
					s += math.Abs(x - p[j])
				}
				if !(s > limit) {
					limit = c.add(label(i), s)
				}
			}
			return
		case metric.L2:
			var sums [64]float64 // the squared sums of up to 64 rows at a time
			cut := sqCut(limit)
			for ; lo < hi; lo += len(sums) {
				run := sums[:min(hi-lo, len(sums))]
				sqSums(rows[lo*d:(lo+len(run))*d], qv, run)
				for j, s := range run {
					if s > cut {
						continue
					}
					if s = math.Sqrt(s); !(s > limit) {
						if l := c.add(label(lo+j), s); l != limit {
							limit, cut = l, sqCut(l)
						}
					}
				}
			}
			return
		case metric.LInf:
			for i := lo; i < hi; i++ {
				p := rows[i*d:][:len(qv)]
				var s float64
				for j, x := range qv {
					s = max(s, math.Abs(x-p[j]))
				}
				if !(s > limit) {
					limit = c.add(label(i), s)
				}
			}
			return
		}
	}
	for i := lo; i < hi; i++ {
		id := label(i)
		if s := db.Metric.Distance(q, db.Point(id)); !(s > limit) {
			limit = c.add(id, s)
		}
	}
}
