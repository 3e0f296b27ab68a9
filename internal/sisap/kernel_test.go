package sisap

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"distperm/internal/metric"
)

// kernelRows returns n rows of d coordinates of the named kind, each row
// and the query drawn alike.
func kernelRows(rng *rand.Rand, kind string, n, d int) [][]float64 {
	specials := map[string][]float64{
		"zeros":     {0, math.Copysign(0, -1)},
		"subnormal": {5e-324, -5e-324, 0x1p-1060, -0x1p-1070, 0x1p-1022 / 3, 0},
		"overflow":  {1e200, -1e200, 1.5e154, -1.5e154, math.MaxFloat64, -math.MaxFloat64, 1},
		"nan":       {math.NaN(), 0.5, -0.25, 1, math.Copysign(0, -1)},
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			if s := specials[kind]; s != nil {
				rows[i][j] = s[rng.Intn(len(s))]
			} else {
				rows[i][j] = (rng.Float64()*2 - 1) * math.Ldexp(1, rng.Intn(40)-20)
			}
		}
	}
	return rows
}

// TestKernelMatchesMetric: for L1, L2 and L∞ at every d from 1 to 10 — every
// straight-line body of sqSums and the loop past them — DB.measure's distances
// and siteKernel.sums' (rooted under L2) are Metric.Distance's bits, on random
// rows, signed zeros, subnormal coordinates, squares that overflow to +Inf and
// NaN coordinates. The NaN rule, L∞ included since both take the builtin max:
// a NaN coordinate difference makes the distance NaN, and measure offers it.
func TestKernelMatchesMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(5501))
	for _, m := range []metric.Metric{metric.L1{}, metric.L2{}, metric.LInf{}} {
		for d := 1; d <= 10; d++ {
			for _, kind := range []string{"random", "zeros", "subnormal", "overflow", "nan"} {
				label := fmt.Sprintf("%s d=%d %s", m.Name(), d, kind)
				const n = 150 // more than one of measure's runs of sums
				rows := kernelRows(rng, kind, n+1, d)
				q := metric.Vector(rows[n])
				pts := make([]metric.Point, n)
				for i := range pts {
					pts[i] = metric.Vector(rows[i])
				}
				db := NewDB(m, pts)
				want := make([]float64, n)
				for i, p := range pts {
					want[i] = m.Distance(q, p)
					if kind == "nan" && slicesHasNaN(rows[i], q) && !math.IsNaN(want[i]) {
						t.Fatalf("%s: row %d has a NaN coordinate and %s gives %v, want NaN", label, i, m.Name(), want[i])
					}
				}
				c := collector{h: newKNNHeap(n)}
				db.measure(q, db.block, nil, 0, n, &c)
				got := make(map[int]float64, n)
				for _, r := range c.results() {
					got[r.ID] = r.Distance
				}
				_, l1 := m.(metric.L1)
				_, l2 := m.(metric.L2)
				kern, sums := &siteKernel{sites: db.block, l1: l1, l2: l2}, make([]float64, n)
				kern.sums(q, sums)
				for i := range n {
					if g, ok := got[i]; !ok || !sameFloat(g, want[i]) {
						t.Fatalf("%s: measure gives row %d %v (offered: %v), Metric.Distance %v", label, i, g, ok, want[i])
					}
					if l2 {
						sums[i] = math.Sqrt(sums[i])
					}
					if !sameFloat(sums[i], want[i]) {
						t.Fatalf("%s: sums gives site %d %v, Metric.Distance %v", label, i, sums[i], want[i])
					}
				}
			}
		}
	}
}

func slicesHasNaN(a, b []float64) bool {
	for i := range a {
		if a[i] != a[i] || b[i] != b[i] {
			return true
		}
	}
	return false
}

// TestSqCutKeepsEveryRootAtLimit: sqCut never rejects a squared sum whose
// root is at most the limit — checked against the largest such sum, found by
// stepping from limit² — over random limits, the guard's edges and their
// neighbours; outside [2⁻⁵⁰⁰, 2⁵⁰⁰], at ±Inf and at NaN it rejects nothing.
func TestSqCutKeepsEveryRootAtLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(5502))
	limits := []float64{0x1p-500, 0x1p500, math.Nextafter(0x1p-500, 1), math.Nextafter(0x1p500, 0), 1, 2, 3, 0.1, math.Sqrt2}
	for range 20000 {
		limits = append(limits, math.Ldexp(1+rng.Float64(), rng.Intn(1000)-500))
	}
	for _, l := range limits {
		for _, limit := range []float64{l, math.Nextafter(l, 0), math.Nextafter(l, math.Inf(1))} {
			if !(limit >= 0x1p-500 && limit <= 0x1p500) {
				continue
			}
			cut := sqCut(limit)
			s := limit * limit
			for math.Sqrt(s) > limit {
				s = math.Nextafter(s, 0)
			}
			for math.Sqrt(math.Nextafter(s, math.Inf(1))) <= limit {
				s = math.Nextafter(s, math.Inf(1))
			}
			if s > cut || math.IsInf(cut, 0) {
				t.Fatalf("limit %v: sqCut %v rejects %v, whose root %v is at most the limit", limit, cut, s, math.Sqrt(s))
			}
		}
	}
	for _, limit := range []float64{math.Nextafter(0x1p-500, 0), math.Nextafter(0x1p500, math.Inf(1)), 0, math.Copysign(0, -1), -1, math.Inf(1), math.Inf(-1), math.NaN()} {
		if cut := sqCut(limit); !math.IsInf(cut, 1) {
			t.Fatalf("limit %v: sqCut %v, want +Inf", limit, cut)
		}
	}
}

// TestMeasureRadiusNeighbours: a range query at a row's own distance D keeps
// it, at Nextafter(D, −Inf) drops it and at Nextafter(D, +Inf) keeps it, on
// the guard's edges too; at a −Inf radius nothing is kept.
func TestMeasureRadiusNeighbours(t *testing.T) {
	rng := rand.New(rand.NewSource(5503))
	for d := 1; d <= 10; d++ {
		rows := kernelRows(rng, "random", 200, d)
		rows = append(rows, make([]float64, d), make([]float64, d))
		rows[200][0], rows[201][0] = 0x1p-500, 0x1p500 // at exactly the edges from the origin
		pts := make([]metric.Point, len(rows))
		for i := range rows {
			pts[i] = metric.Vector(rows[i])
		}
		db := NewDB(metric.L2{}, pts)
		qs := []metric.Vector{metric.Vector(kernelRows(rng, "random", 1, d)[0]), make(metric.Vector, d)}
		for qi, q := range qs {
			for i, p := range pts {
				dist := metric.L2{}.Distance(q, p)
				for _, r := range []float64{dist, math.Nextafter(dist, math.Inf(-1)), math.Nextafter(dist, math.Inf(1))} {
					c := collector{r: r}
					db.measure(q, db.block, nil, i, i+1, &c)
					if kept := len(c.out) == 1; kept != (dist <= r) {
						t.Fatalf("d=%d query %d row %d at %v, radius %v: kept %v", d, qi, i, dist, r, kept)
					}
				}
			}
			c := collector{r: math.Inf(-1)}
			db.measure(q, db.block, nil, 0, len(pts), &c)
			if len(c.out) != 0 {
				t.Fatalf("d=%d query %d: a −Inf radius kept %d rows", d, qi, len(c.out))
			}
		}
	}
}
