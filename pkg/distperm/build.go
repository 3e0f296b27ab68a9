package distperm

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"distperm/internal/sisap"
)

// Spec describes an index to build. The zero value plus an Index kind is a
// usable spec; K defaults per kind.
type Spec struct {
	// Index is the index kind: one of Kinds() ("linear", "aesa", "iaesa",
	// "laesa", "distperm", "vptree", "ghtree").
	Index string
	// K is the number of pivots (laesa) or sites (distperm). 0 means
	// DefaultK, capped at the database size.
	K int
	// PermDist is the candidate-ordering permutation distance for
	// distperm (default Footrule).
	PermDist PermDistance
	// Seed drives the randomised choices (site selection, tree pivots), so
	// builds are reproducible.
	Seed int64
}

// DefaultK is the pivot/site count used when Spec.K is zero.
const DefaultK = 8

// Builder constructs an index over db from a validated spec (db non-empty;
// for kinds that use K, 1 ≤ spec.K ≤ db.N()).
type Builder func(db *DB, spec Spec) (Index, error)

// builders maps every index kind to its constructor.
var builders = map[string]Builder{
	"linear": func(db *DB, spec Spec) (Index, error) { return sisap.NewLinearScan(db), nil },
	"aesa":   matrixBuilder(sisap.NewAESA),
	"iaesa":  matrixBuilder(sisap.NewIAESA),
	"laesa": func(db *DB, spec Spec) (Index, error) {
		return sisap.NewLAESAMaxSpread(db, spec.K), nil
	},
	"distperm": func(db *DB, spec Spec) (Index, error) {
		rng := rand.New(rand.NewSource(spec.Seed))
		return sisap.NewPermIndex(db, sampleSites(rng, db.N(), spec.K), spec.PermDist), nil
	},
	"vptree": func(db *DB, spec Spec) (Index, error) {
		return sisap.NewVPTree(db, rand.New(rand.NewSource(spec.Seed))), nil
	},
	"ghtree": func(db *DB, spec Spec) (Index, error) {
		return sisap.NewGHTree(db, rand.New(rand.NewSource(spec.Seed))), nil
	},
}

// maxMatrixN is the largest store the aesa and iaesa kinds build over: their
// n×n float64 distance matrix is then at most 1 GiB (11 585² · 8 B ≤ 2³⁰ B <
// 11 586² · 8 B).
const maxMatrixN = 11_585

// matrixBuilder is the Builder of an index holding the full distance matrix,
// which refuses a store over maxMatrixN points before allocating any of it.
func matrixBuilder[I Index](build func(*DB) I) Builder {
	return func(db *DB, spec Spec) (Index, error) {
		if db.N() > maxMatrixN {
			return nil, fmt.Errorf("distperm: %s over %d points needs a %d-byte distance matrix: n is %w 1..%d (1 GiB)",
				spec.Index, db.N(), 8*int64(db.N())*int64(db.N()), ErrOutOfRange, maxMatrixN)
		}
		return build(db), nil
	}
}

// Kinds returns the index kinds, sorted.
func Kinds() []string {
	kinds := make([]string, 0, len(builders))
	for k := range builders {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// Build constructs the index described by spec over db — the single entry
// point in front of the family's seven constructors. Unknown kinds and
// out-of-range parameters are reported as errors.
func Build(db *DB, spec Spec) (Index, error) {
	if db == nil || db.N() == 0 {
		return nil, fmt.Errorf("distperm: Build requires a non-empty database")
	}
	b, ok := builders[spec.Index]
	if !ok {
		return nil, fmt.Errorf("distperm: unknown index kind %q (have %s)",
			spec.Index, strings.Join(Kinds(), ", "))
	}
	if spec.K == 0 {
		spec.K = DefaultK
		if spec.K > db.N() {
			spec.K = db.N()
		}
	}
	if spec.K < 1 || spec.K > db.N() {
		return nil, fmt.Errorf("distperm: k=%d out of range 1..%d", spec.K, db.N())
	}
	return b(db, spec)
}

// sampleSites draws k distinct IDs uniformly from [0, n): the first k steps
// of a Fisher–Yates shuffle over a sparse (map-backed) array, so selection
// costs O(k) time and space where rng.Perm(n)[:k] allocates O(n) ints for
// k ≪ n. Deterministic for a given rng state, so builds stay
// seed-reproducible.
func sampleSites(rng *rand.Rand, n, k int) []int {
	displaced := make(map[int]int, 2*k)
	at := func(i int) int {
		if v, ok := displaced[i]; ok {
			return v
		}
		return i
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		out[i] = at(j)
		displaced[j] = at(i)
	}
	return out
}
