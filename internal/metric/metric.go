// Package metric defines the metric-space abstraction used throughout the
// library, together with concrete metrics on real vectors (the Minkowski Lp
// family), strings (edit, prefix, Hamming), and sparse documents (angular
// distance).
//
// A metric space in this library is a pair of a point representation and a
// Metric over it. The distance-permutation machinery (package core) and the
// search structures (package sisap) are generic over Metric, mirroring the
// SISAP metric-space library the paper's experiments were built on.
package metric

import (
	"fmt"
	"math"
)

// Point is an opaque element of a metric space. Concrete metrics document
// the dynamic types they accept (e.g. Vector for Lp metrics, String for the
// string metrics). Using a small interface rather than generics keeps the
// index structures storable in mixed collections and matches the C library's
// void-pointer object model.
type Point interface{}

// Metric computes distances between points and names itself. Implementations
// must satisfy the metric axioms: non-negativity, identity of
// indiscernibles, symmetry, and the triangle inequality. All implementations
// in this package are property-tested against those axioms.
type Metric interface {
	// Distance returns the distance between two points. It panics if the
	// points have the wrong dynamic type for the metric; mixing point
	// types in one space is a programming error, not a runtime condition.
	Distance(a, b Point) float64
	// Name returns a short human-readable identifier such as "L2" or
	// "edit".
	Name() string
}

// Vector is a point of a d-dimensional real vector space.
type Vector []float64

// String is a point of a string metric space.
type String string

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// LP is the Minkowski metric with parameter P ≥ 1:
//
//	d(x,y) = (Σ |x_i − y_i|^P)^(1/P).
//
// Use L1, L2, or LInf for the common special cases; they avoid the generic
// pow-based computation.
type LP struct {
	P float64
}

// NewLP returns the Lp metric for p ≥ 1, choosing the specialised
// implementation for p ∈ {1, 2, +Inf}.
func NewLP(p float64) Metric {
	switch {
	case p < 1:
		panic(fmt.Sprintf("metric: Lp requires p >= 1, got %g", p))
	case p == 1:
		return L1{}
	case p == 2:
		return L2{}
	case math.IsInf(p, 1):
		return LInf{}
	default:
		return LP{P: p}
	}
}

// Probe checks that m can measure p, converting the metric's type-mismatch
// panic into an error. Metrics panic on wrong point types by contract (a
// programming error in trusted internal callers), but at a boundary where
// the metric/point pairing comes from user input — CLI flags, a loaded
// dataset — the mismatch must surface as an error before it can reach a
// query worker.
func Probe(m Metric, p Point) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("metric %s cannot measure these points: %v", m.Name(), r)
		}
	}()
	m.Distance(p, p)
	return nil
}

// ByName maps a CLI-style metric name (L1, L2, Linf, edit, prefix, angular)
// to its Metric — the one seam behind the -metric flag of every binary.
func ByName(name string) (Metric, error) {
	switch name {
	case "L1":
		return L1{}, nil
	case "L2":
		return L2{}, nil
	case "Linf":
		return LInf{}, nil
	case "edit":
		return Edit{}, nil
	case "prefix":
		return Prefix{}, nil
	case "angular":
		return Angular{}, nil
	default:
		return nil, fmt.Errorf("unknown metric %q (have L1, L2, Linf, edit, prefix, angular)", name)
	}
}

// Distance implements Metric.
func (m LP) Distance(a, b Point) float64 {
	x, y := mustVectors(a, b)
	var s float64
	for i := range x {
		s += math.Pow(math.Abs(x[i]-y[i]), m.P)
	}
	return math.Pow(s, 1/m.P)
}

// Name implements Metric.
func (m LP) Name() string { return fmt.Sprintf("L%g", m.P) }

// L1 is the Manhattan (taxicab) metric.
type L1 struct{}

// Distance implements Metric.
func (L1) Distance(a, b Point) float64 {
	x, y := mustVectors(a, b)
	var s float64
	for i := range x {
		s += math.Abs(x[i] - y[i])
	}
	return s
}

// Name implements Metric.
func (L1) Name() string { return "L1" }

// L2 is the Euclidean metric.
type L2 struct{}

// Distance implements Metric.
func (L2) Distance(a, b Point) float64 {
	x, y := mustVectors(a, b)
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Name implements Metric.
func (L2) Name() string { return "L2" }

// LInf is the Chebyshev (maximum) metric.
type LInf struct{}

// Distance implements Metric. It takes the builtin max, with no branch on the
// data, so a NaN coordinate makes the distance NaN, as it does under L1 and L2.
func (LInf) Distance(a, b Point) float64 {
	x, y := mustVectors(a, b)
	var s float64
	for i := range x {
		s = max(s, math.Abs(x[i]-y[i]))
	}
	return s
}

// Name implements Metric.
func (LInf) Name() string { return "Linf" }

func mustVectors(a, b Point) (Vector, Vector) {
	x, ok := a.(Vector)
	if !ok {
		panic(fmt.Sprintf("metric: expected Vector point, got %T", a))
	}
	y, ok := b.(Vector)
	if !ok {
		panic(fmt.Sprintf("metric: expected Vector point, got %T", b))
	}
	if len(x) != len(y) {
		panic(dimMismatch(len(x), len(y)))
	}
	return x, y
}

func dimMismatch(a, b int) string {
	return fmt.Sprintf("metric: dimension mismatch %d vs %d", a, b)
}
