package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"distperm/internal/metric"
	"distperm/internal/perm"
)

func vecSites(vs ...metric.Vector) []metric.Point {
	out := make([]metric.Point, len(vs))
	for i, v := range vs {
		out[i] = v
	}
	return out
}

func TestPermutationLine(t *testing.T) {
	// Sites at 0, 1, 4 on the line.
	sites := vecSites(metric.Vector{0}, metric.Vector{1}, metric.Vector{4})
	pm := NewPermuter(metric.L2{}, sites)
	cases := []struct {
		y    float64
		want perm.Permutation
	}{
		{-1, perm.Permutation{0, 1, 2}},  // closest 0, then 1, then 4
		{0.9, perm.Permutation{1, 0, 2}}, // closest 1
		{3.0, perm.Permutation{2, 1, 0}}, // closest 4, then 1
		{2.4, perm.Permutation{1, 2, 0}},
	}
	for _, c := range cases {
		got := pm.Permutation(metric.Vector{c.y})
		if !got.Equal(c.want) {
			t.Errorf("Π(%v) = %v, want %v", c.y, got, c.want)
		}
	}
}

func TestPermutationTieBreak(t *testing.T) {
	// y equidistant from sites 0 and 1: the paper's rule puts the lower
	// index first.
	sites := vecSites(metric.Vector{0, 0}, metric.Vector{2, 0}, metric.Vector{1, 5})
	pm := NewPermuter(metric.L2{}, sites)
	got := pm.Permutation(metric.Vector{1, 0})
	if !got.Equal(perm.Permutation{0, 1, 2}) {
		t.Errorf("tie-break: got %v, want 012", got)
	}
	// All sites equidistant: identity.
	sites2 := vecSites(metric.Vector{1, 0}, metric.Vector{-1, 0}, metric.Vector{0, 1})
	got2 := NewPermuter(metric.L2{}, sites2).Permutation(metric.Vector{0, 0})
	if !got2.Equal(perm.Permutation{0, 1, 2}) {
		t.Errorf("all-ties: got %v, want identity", got2)
	}
}

func TestPermutationAtSite(t *testing.T) {
	sites := vecSites(metric.Vector{0, 0}, metric.Vector{1, 0}, metric.Vector{0, 1})
	pm := NewPermuter(metric.L2{}, sites)
	got := pm.Permutation(metric.Vector{1, 0}) // exactly site 1
	if got[0] != 1 {
		t.Errorf("point at site 1 should rank site 1 first, got %v", got)
	}
}

func TestPermutationIsAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		d := 1 + rng.Intn(4)
		k := 1 + rng.Intn(8)
		sites := make([]metric.Point, k)
		for i := range sites {
			v := make(metric.Vector, d)
			for j := range v {
				v[j] = rng.Float64()
			}
			sites[i] = v
		}
		y := make(metric.Vector, d)
		for j := range y {
			y[j] = rng.Float64()
		}
		p := NewPermuter(metric.L1{}, sites).Permutation(y)
		return p.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPermutationMatchesSortedDistances(t *testing.T) {
	// The permutation must list sites in non-decreasing distance order.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(7)
		sites := make([]metric.Point, k)
		for i := range sites {
			sites[i] = metric.Vector{rng.Float64(), rng.Float64()}
		}
		pm := NewPermuter(metric.LInf{}, sites)
		y := metric.Vector{rng.Float64(), rng.Float64()}
		p := pm.Permutation(y)
		d := pm.Distances(y)
		for i := 1; i < k; i++ {
			if d[p[i-1]] > d[p[i]] {
				t.Fatalf("out of order: %v distances %v", p, d)
			}
			if d[p[i-1]] == d[p[i]] && p[i-1] > p[i] {
				t.Fatalf("tie-break violated: %v distances %v", p, d)
			}
		}
	}
}

func TestPermutationIntoPanicsOnBadBuffer(t *testing.T) {
	pm := NewPermuter(metric.L2{}, vecSites(metric.Vector{0}, metric.Vector{1}))
	defer func() {
		if recover() == nil {
			t.Error("short buffer should panic")
		}
	}()
	pm.PermutationInto(metric.Vector{0.5}, make(perm.Permutation, 3))
}

func TestNewPermuterPanicsWithoutSites(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no sites should panic")
		}
	}()
	NewPermuter(metric.L2{}, nil)
}

func TestPermuterClone(t *testing.T) {
	sites := vecSites(metric.Vector{0}, metric.Vector{1})
	pm := NewPermuter(metric.L2{}, sites)
	clone := pm.Clone()
	if clone.K() != pm.K() {
		t.Error("clone should share k")
	}
	// Clones must not share buffers: interleaved use must not corrupt.
	a := pm.Permutation(metric.Vector{-1})
	b := clone.Permutation(metric.Vector{2})
	if !a.Equal(perm.Permutation{0, 1}) || !b.Equal(perm.Permutation{1, 0}) {
		t.Errorf("clone interference: %v %v", a, b)
	}
}

func TestPermuterAccessors(t *testing.T) {
	sites := vecSites(metric.Vector{0}, metric.Vector{1})
	pm := NewPermuter(metric.L1{}, sites)
	if pm.K() != 2 {
		t.Errorf("K = %d", pm.K())
	}
	if pm.Metric().Name() != "L1" {
		t.Errorf("Metric = %s", pm.Metric().Name())
	}
	if len(pm.Sites()) != 2 {
		t.Errorf("Sites len = %d", len(pm.Sites()))
	}
}

func TestStringMetricPermutations(t *testing.T) {
	sites := []metric.Point{
		metric.String("cat"), metric.String("dog"), metric.String("cart"),
	}
	pm := NewPermuter(metric.Edit{}, sites)
	got := pm.Permutation(metric.String("car"))
	// d(car,cat)=1, d(car,dog)=3, d(car,cart)=1 → tie between 0 and 2,
	// lower index first: 0, 2, 1.
	if !got.Equal(perm.Permutation{0, 2, 1}) {
		t.Errorf("edit-metric permutation = %v, want 031 (0-based 021)", got)
	}
}

func TestCounterBasics(t *testing.T) {
	sites := vecSites(metric.Vector{0}, metric.Vector{1})
	c := NewCounter(metric.L2{}, sites)
	if c.Distinct() != 0 || c.Total() != 0 {
		t.Error("fresh counter should be empty")
	}
	if !c.Add(metric.Vector{-1}) {
		t.Error("first permutation should be new")
	}
	if c.Add(metric.Vector{-2}) {
		t.Error("same permutation should not be new")
	}
	if !c.Add(metric.Vector{5}) {
		t.Error("different permutation should be new")
	}
	if c.Distinct() != 2 {
		t.Errorf("Distinct = %d, want 2", c.Distinct())
	}
	if c.Total() != 3 {
		t.Errorf("Total = %d, want 3", c.Total())
	}
	occ := c.Occupancy()
	if len(occ) != 2 || occ[0] != 2 || occ[1] != 1 {
		t.Errorf("Occupancy = %v, want [2 1]", occ)
	}
}

func TestCounterPermutationsDecoding(t *testing.T) {
	sites := vecSites(metric.Vector{0}, metric.Vector{1}, metric.Vector{2})
	c := NewCounter(metric.L2{}, sites)
	c.AddAll([]metric.Point{
		metric.Vector{-1},  // 012
		metric.Vector{2.9}, // 210
	})
	perms := c.Permutations()
	if len(perms) != 2 {
		t.Fatalf("decoded %d perms", len(perms))
	}
	if !perms[0].Equal(perm.Permutation{0, 1, 2}) || !perms[1].Equal(perm.Permutation{2, 1, 0}) {
		t.Errorf("decoded %v", perms)
	}
}

func TestCountDistinctNeverExceedsKFactorialOrN(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(4)
		n := 1 + rng.Intn(100)
		sites := make([]metric.Point, k)
		for i := range sites {
			sites[i] = metric.Vector{rng.Float64(), rng.Float64()}
		}
		pts := make([]metric.Point, n)
		for i := range pts {
			pts[i] = metric.Vector{rng.Float64(), rng.Float64()}
		}
		got := CountDistinct(metric.L2{}, sites, pts)
		kfact := 1
		for i := 2; i <= k; i++ {
			kfact *= i
		}
		if got > n || got > kfact || got < 1 {
			t.Fatalf("count %d out of range (n=%d, k!=%d)", got, n, kfact)
		}
	}
}

func TestCounterDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sites := make([]metric.Point, 5)
	for i := range sites {
		sites[i] = metric.Vector{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	pts := make([]metric.Point, 500)
	for i := range pts {
		pts[i] = metric.Vector{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	a := CountDistinct(metric.L1{}, sites, pts)
	b := CountDistinct(metric.L1{}, sites, pts)
	if a != b {
		t.Errorf("counting is not deterministic: %d vs %d", a, b)
	}
}

// TestPermutationIntoMatchesSortReference pins the small-k insertion sort
// (and the sort.Slice path past insertionSortMaxK) to the definition:
// sites by (distance, index) through sort.Slice, on random, heavily tied
// and all-tied inputs on both sides of the switch.
func TestPermutationIntoMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, k := range []int{1, 2, 12, insertionSortMaxK, insertionSortMaxK + 1, 300} {
		for _, levels := range []int{0, 3, 1} { // distinct distances: all, three, one
			for trial := 0; trial < 50; trial++ {
				sites := make([]metric.Point, k)
				for i := range sites {
					x := rng.Float64()
					if levels > 0 {
						x = float64(rng.Intn(levels))
					}
					sites[i] = metric.Vector{x}
				}
				pm := NewPermuter(metric.L1{}, sites)
				y := metric.Vector{float64(rng.Intn(3)) / 2}
				d := pm.Distances(y)
				want := make(perm.Permutation, k)
				for i := range want {
					want[i] = i
				}
				sort.Slice(want, func(a, b int) bool {
					if d[want[a]] != d[want[b]] {
						return d[want[a]] < d[want[b]]
					}
					return want[a] < want[b]
				})
				if got := pm.Permutation(y); !got.Equal(want) {
					t.Fatalf("k=%d levels=%d: Π = %v, want %v (distances %v)", k, levels, got, want, d)
				}
			}
		}
	}
}
