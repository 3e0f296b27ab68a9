package metric

import (
	"math"
	"testing"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*(1+math.Abs(a)+math.Abs(b))
}

func TestL1KnownValues(t *testing.T) {
	m := L1{}
	cases := []struct {
		a, b Vector
		want float64
	}{
		{Vector{0, 0}, Vector{0, 0}, 0},
		{Vector{0, 0}, Vector{1, 1}, 2},
		{Vector{1, 2, 3}, Vector{4, 6, 3}, 7},
		{Vector{-1}, Vector{1}, 2},
	}
	for _, c := range cases {
		if got := m.Distance(c.a, c.b); !almostEqual(got, c.want) {
			t.Errorf("L1(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestL2KnownValues(t *testing.T) {
	m := L2{}
	cases := []struct {
		a, b Vector
		want float64
	}{
		{Vector{0, 0}, Vector{3, 4}, 5},
		{Vector{1, 1, 1}, Vector{1, 1, 1}, 0},
		{Vector{0}, Vector{2}, 2},
	}
	for _, c := range cases {
		if got := m.Distance(c.a, c.b); !almostEqual(got, c.want) {
			t.Errorf("L2(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLInfKnownValues(t *testing.T) {
	m := LInf{}
	if got := m.Distance(Vector{1, 5, 2}, Vector{2, 1, 2}); !almostEqual(got, 4) {
		t.Errorf("LInf = %v, want 4", got)
	}
	if got := m.Distance(Vector{0}, Vector{0}); got != 0 {
		t.Errorf("LInf identical = %v, want 0", got)
	}
}

func TestLPGeneral(t *testing.T) {
	m := LP{P: 3}
	// (|1|^3 + |1|^3)^(1/3) = 2^(1/3)
	if got := m.Distance(Vector{0, 0}, Vector{1, 1}); !almostEqual(got, math.Cbrt(2)) {
		t.Errorf("L3 = %v, want %v", got, math.Cbrt(2))
	}
}

func TestNewLPSpecialisation(t *testing.T) {
	if _, ok := NewLP(1).(L1); !ok {
		t.Error("NewLP(1) should return L1")
	}
	if _, ok := NewLP(2).(L2); !ok {
		t.Error("NewLP(2) should return L2")
	}
	if _, ok := NewLP(math.Inf(1)).(LInf); !ok {
		t.Error("NewLP(inf) should return LInf")
	}
	if _, ok := NewLP(4).(LP); !ok {
		t.Error("NewLP(4) should return LP")
	}
}

func TestNewLPPanicsBelowOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLP(0.5) should panic")
		}
	}()
	NewLP(0.5)
}

func TestLpOrdering(t *testing.T) {
	// For any pair of vectors, L1 ≥ L2 ≥ L4 ≥ L∞ (Lp norms are
	// non-increasing in p).
	pairs := [][2]Vector{
		{{0, 0, 0}, {1, 2, 3}},
		{{0.3, -0.2, 0.9}, {-0.5, 0.7, 0.4}},
		{{1}, {4}},
		{{2, 2, 2, 2}, {0, 0, 0, 0}},
	}
	ps := []float64{1, 2, 4, math.Inf(1)}
	for _, pr := range pairs {
		prev := math.Inf(1)
		for i, p := range ps {
			d := NewLP(p).Distance(pr[0], pr[1])
			if i > 0 && d > prev+1e-12 {
				t.Errorf("Lp monotonicity violated at p=%v for %v,%v: %v > %v", p, pr[0], pr[1], d, prev)
			}
			prev = d
		}
	}
}

func TestVectorPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch should panic")
		}
	}()
	L2{}.Distance(Vector{1, 2}, Vector{1})
}

func TestVectorPanicsOnWrongType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("wrong point type should panic")
		}
	}()
	L2{}.Distance(String("x"), Vector{1})
}

func TestVectorClone(t *testing.T) {
	v := Vector{1, 2, 3}
	w := v.Clone()
	w[0] = 9
	if v[0] != 1 {
		t.Error("Clone should be independent")
	}
}

func TestEditDistanceKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"abc", "abc", 0},
		{"abc", "abd", 1},
		{"saturday", "sunday", 3},
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := EditDistance(c.b, c.a); got != c.want {
			t.Errorf("EditDistance(%q,%q) = %d, want %d (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestEditMetricWrapper(t *testing.T) {
	if got := (Edit{}).Distance(String("kitten"), String("sitting")); got != 3 {
		t.Errorf("Edit.Distance = %v, want 3", got)
	}
}

func TestPrefixDistanceKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"abc", "ab", 1},
		{"abc", "abd", 2},
		{"abc", "xyz", 6},
		{"qa76", "qa9", 3},
		{"q", "z", 2},
	}
	for _, c := range cases {
		if got := PrefixDistance(c.a, c.b); got != c.want {
			t.Errorf("PrefixDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestPrefixAtLeastEdit(t *testing.T) {
	// Prefix edits are a restricted edit alphabet, so edit ≤ prefix
	// always.
	words := []string{"", "a", "ab", "abc", "abd", "xyz", "axc", "hello", "help"}
	for _, a := range words {
		for _, b := range words {
			if EditDistance(a, b) > PrefixDistance(a, b) {
				t.Errorf("edit(%q,%q)=%d > prefix=%d", a, b,
					EditDistance(a, b), PrefixDistance(a, b))
			}
		}
	}
}

func TestHammingKnownValues(t *testing.T) {
	m := Hamming{}
	if got := m.Distance(String("karolin"), String("kathrin")); got != 3 {
		t.Errorf("Hamming = %v, want 3", got)
	}
	if got := m.Distance(String(""), String("")); got != 0 {
		t.Errorf("Hamming empty = %v, want 0", got)
	}
}

func TestHammingPanicsOnUnequalLengths(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Hamming on unequal lengths should panic")
		}
	}()
	Hamming{}.Distance(String("ab"), String("abc"))
}

func TestHammingAtLeastEdit(t *testing.T) {
	pairs := [][2]string{{"karolin", "kathrin"}, {"abcd", "dcba"}, {"aaaa", "aaab"}}
	for _, p := range pairs {
		if EditDistance(p[0], p[1]) > int(Hamming{}.Distance(String(p[0]), String(p[1]))) {
			t.Errorf("edit(%q,%q) exceeds hamming", p[0], p[1])
		}
	}
}

func TestAngularKnownValues(t *testing.T) {
	m := Angular{}
	if got := m.Distance(Vector{1, 0}, Vector{0, 1}); !almostEqual(got, math.Pi/2) {
		t.Errorf("Angular orthogonal = %v, want pi/2", got)
	}
	if got := m.Distance(Vector{1, 0}, Vector{-1, 0}); !almostEqual(got, math.Pi) {
		t.Errorf("Angular opposite = %v, want pi", got)
	}
	if got := m.Distance(Vector{2, 2}, Vector{5, 5}); !almostEqual(got, 0) {
		t.Errorf("Angular colinear = %v, want 0", got)
	}
}

func TestAngularClampsRounding(t *testing.T) {
	// Nearly identical unit vectors can produce cos slightly above 1;
	// result must be finite and ~0, not NaN.
	a := Vector{0.1234567891234, 0.987654321}
	got := Angular{}.Distance(a, a.Clone())
	if math.IsNaN(got) || got != 0 {
		t.Errorf("Angular self = %v, want 0", got)
	}
}

func TestAngularPanicsOnZeroVector(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Angular on zero vector should panic")
		}
	}()
	Angular{}.Distance(Vector{0, 0}, Vector{1, 0})
}

func TestDiscreteMetric(t *testing.T) {
	m := Discrete{}
	if got := m.Distance(Vector{1, 2}, Vector{1, 2}); got != 0 {
		t.Errorf("Discrete equal = %v, want 0", got)
	}
	if got := m.Distance(Vector{1, 2}, Vector{1, 3}); got != 1 {
		t.Errorf("Discrete unequal = %v, want 1", got)
	}
	if got := m.Distance(String("a"), String("b")); got != 1 {
		t.Errorf("Discrete strings = %v, want 1", got)
	}
}

func TestMetricNames(t *testing.T) {
	cases := []struct {
		m    Metric
		want string
	}{
		{L1{}, "L1"}, {L2{}, "L2"}, {LInf{}, "Linf"}, {LP{P: 3}, "L3"},
		{Edit{}, "edit"}, {Prefix{}, "prefix"}, {Hamming{}, "hamming"},
		{Angular{}, "angular"}, {Discrete{}, "discrete"},
	}
	for _, c := range cases {
		if got := c.m.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
}

// TestNaNCoordinate: under L1, L2 and L∞ alike a NaN coordinate on either side
// makes the distance NaN, wherever it sits and whatever the other terms; L∞
// took its branch's rule (skip the NaN term) until it took the builtin max.
func TestNaNCoordinate(t *testing.T) {
	nan := math.NaN()
	for _, m := range []Metric{L1{}, L2{}, LInf{}} {
		for _, pair := range [][2]Vector{{{nan, 0, 0}, {1, 2, 3}}, {{0, 5, 0}, {1, nan, 3}}, {{0, 0, 9}, {1, 2, nan}}} {
			if d := m.Distance(pair[0], pair[1]); !math.IsNaN(d) {
				t.Errorf("%s%v = %v, want NaN", m.Name(), pair, d)
			}
		}
	}
}
