// Package core implements the paper's central object: the distance
// permutation. Given k fixed reference points (sites) x_1..x_k in a metric
// space, the distance permutation Π_y of a point y is the unique permutation
// sorting the site indices into order of increasing distance from y, with
// ties broken toward the lower site index (Chávez, Figueroa, Navarro 2005;
// Skala 2008 Definition in §1).
//
// The package provides a reusable Permuter that computes Π_y with a single
// distance evaluation per site, and a Counter that streams over a point set
// tallying the distinct permutations that occur — the quantity the paper's
// experiments (Tables 2 and 3) measure.
package core

import (
	"fmt"
	"sort"

	"distperm/internal/metric"
	"distperm/internal/perm"
)

// Permuter computes distance permutations with respect to a fixed list of
// sites under a fixed metric. It reuses internal buffers; a Permuter is not
// safe for concurrent use (clone one per goroutine with Clone).
type Permuter struct {
	m     metric.Metric
	sites []metric.Point
	dists []float64
}

// NewPermuter returns a Permuter for the given sites under m. It panics if
// fewer than one site is supplied.
func NewPermuter(m metric.Metric, sites []metric.Point) *Permuter {
	if len(sites) == 0 {
		panic("core: NewPermuter requires at least one site")
	}
	return &Permuter{
		m:     m,
		sites: sites,
		dists: make([]float64, len(sites)),
	}
}

// K returns the number of sites.
func (p *Permuter) K() int { return len(p.sites) }

// Metric returns the metric the Permuter evaluates.
func (p *Permuter) Metric() metric.Metric { return p.m }

// Sites returns the site list (shared, not copied).
func (p *Permuter) Sites() []metric.Point { return p.sites }

// Clone returns an independent Permuter sharing the same sites and metric,
// for concurrent use.
func (p *Permuter) Clone() *Permuter {
	return NewPermuter(p.m, p.sites)
}

// Permutation returns Π_y: position i holds the index (0-based) of the
// (i+1)-th closest site to y, ties broken toward the smaller site index.
// The returned slice is freshly allocated. Exactly k distance evaluations
// are performed.
func (p *Permuter) Permutation(y metric.Point) perm.Permutation {
	out := make(perm.Permutation, len(p.sites))
	p.PermutationInto(y, out)
	return out
}

// insertionSortMaxK is the largest k PermutationInto orders by insertion:
// below it the O(k²) comparisons are cheaper than sort.Slice's reflection
// swapper and closure calls (k = 12: roughly half the time, no allocation).
const insertionSortMaxK = 64

// PermutationInto computes Π_y into out, which must have length k. It is
// the allocation-free variant for hot loops.
func (p *Permuter) PermutationInto(y metric.Point, out perm.Permutation) {
	if len(out) != len(p.sites) {
		panic(fmt.Sprintf("core: PermutationInto buffer length %d, want %d", len(out), len(p.sites)))
	}
	d := p.dists
	for i, s := range p.sites {
		d[i] = p.m.Distance(s, y)
	}
	Order(d, out)
}

// Order writes into out (len(d)) the sites ordered by their distances d,
// nearest first, ties to the lower site: the permutation PermutationInto
// derives from the distances it measures.
func Order(d []float64, out perm.Permutation) {
	if len(d) > insertionSortMaxK {
		for i := range out {
			out[i] = i
		}
		sort.Slice(out, func(a, b int) bool {
			if d[out[a]] != d[out[b]] {
				return d[out[a]] < d[out[b]]
			}
			return out[a] < out[b] // the paper's tie-break: lower index is closer
		})
		return
	}
	// Site i is inserted after every lower index already placed, so moving it
	// only past strictly greater distances is the same tie-break.
	for i, di := range d {
		j := i
		for ; j > 0 && di < d[out[j-1]]; j-- {
			out[j] = out[j-1]
		}
		out[j] = i
	}
}

// Distances returns the distances from y to every site, in site order. The
// returned slice is freshly allocated.
func (p *Permuter) Distances(y metric.Point) []float64 {
	out := make([]float64, len(p.sites))
	for i, s := range p.sites {
		out[i] = p.m.Distance(s, y)
	}
	return out
}
