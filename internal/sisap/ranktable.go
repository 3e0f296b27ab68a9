package sisap

import (
	"fmt"
	"sort"

	"distperm/internal/perm"
)

// This file holds the query-path machinery the paper's counting results buy
// the distance-permutation index:
//
//   - rankTable: the table encoding, live. Every *distinct occurring*
//     inverse distance permutation is stored once as one contiguous
//     row-major row of site ranks (uint8 when k ≤ 256, uint16 beyond), and
//     each database point keeps only a row ID. Where the old representation
//     paid O(n·k) permutation-distance work per query over a cache-hostile
//     slice-of-slices, a query now evaluates its distance once per distinct
//     row (O(distinct·k), with distinct ≪ n exactly where the paper says)
//     and scatters the precomputed keys to points in O(n).
//   - integer distance kernels: footrule and Kendall tau are integers
//     bounded by ⌊k²/2⌉ and k(k−1)/2, and Spearman rho sorts identically to
//     its integer square, so every candidate ordering reduces to integer
//     keys. The kernel is chosen once per query, not per element.
//   - countingArgsort: a stable counting sort over those bounded integer
//     keys replacing the O(n log n) float64 comparison argsort, with a
//     partial variant that stops after the first `limit` candidates for
//     KNNBudget. Stability plus ascending-index placement reproduces the
//     argsort tie-break (ties by lower index) exactly.

// rankStore is the backing store of one rank width: a read-only view over
// either a heap-owned growable buffer or a section of a mapped frozen
// container. The kernels consume plain []T slices of it, so they are
// backend-agnostic; only the build paths append, and appending to a frozen
// view is a programming error (the container bytes are not ours to grow).
type rankStore[T uint8 | uint16] struct {
	data   []T
	frozen bool
}

// row returns row r of a k-wide matrix as a capacity-pinned slice.
func (s *rankStore[T]) row(k, r int) []T {
	return s.data[r*k : (r+1)*k : (r+1)*k]
}

// appendInverseOf appends the inverse of the forward permutation p (site →
// rank) as one new k-wide row.
func (s *rankStore[T]) appendInverseOf(k int, p perm.Permutation) {
	s.checkMutable()
	n := len(s.data)
	s.data = append(s.data, make([]T, k)...)
	row := s.data[n : n+k : n+k]
	for rank, site := range p {
		row[site] = T(rank)
	}
}

// appendRow appends a copy of row (one k-wide row of another store).
func (s *rankStore[T]) appendRow(row []T) {
	s.checkMutable()
	s.data = append(s.data, row...)
}

func (s *rankStore[T]) checkMutable() {
	if s.frozen {
		panic("sisap: append to a frozen rank store")
	}
}

// rankTable stores the distinct inverse distance permutations of an index
// as a flat rows×k row-major matrix: row r, column s holds the rank of site
// s in the r-th distinct permutation's closeness order. Rows are immutable
// once built, so concurrent queries share them. The backing store is heap-owned
// for built and stream-decoded tables, or a zero-copy view into a mapped
// frozen container (newFrozenRankTable); every kernel runs unchanged over
// both.
type rankTable struct {
	k    int
	rows int
	r8   rankStore[uint8]  // backing store when k ≤ 256 (ranks fit a byte)
	r16  rankStore[uint16] // backing store when k > 256
}

func newRankTable(k int) *rankTable {
	// 65535 matches perm.Key, the build path's dedup key, so the bound
	// fails fast here instead of mid-build.
	if k < 1 || k > 65535 {
		panic(fmt.Sprintf("sisap: rankTable supports 1 <= k <= 65535, got %d", k))
	}
	return &rankTable{k: k}
}

// newFrozenRankTable wraps an already-materialised rank matrix — typically
// views into a mapped container — without copying. Exactly one of r8/r16 is
// non-nil, matching wide().
func newFrozenRankTable(k, rows int, r8 []uint8, r16 []uint16) *rankTable {
	t := newRankTable(k)
	t.rows = rows
	t.r8 = rankStore[uint8]{data: r8, frozen: true}
	t.r16 = rankStore[uint16]{data: r16, frozen: true}
	return t
}

// wide reports whether ranks need uint16 storage (the r16 store).
func (t *rankTable) wide() bool { return t.k > 256 }

// appendInverseOf appends the inverse of the forward permutation p (site →
// rank) as a new row and returns its row ID.
func (t *rankTable) appendInverseOf(p perm.Permutation) int {
	r := t.rows
	t.rows++
	if t.wide() {
		t.r16.appendInverseOf(t.k, p)
	} else {
		t.r8.appendInverseOf(t.k, p)
	}
	return r
}

// appendRowFrom copies row r of src (same k) as a new row of t.
func (t *rankTable) appendRowFrom(src *rankTable, r int) {
	t.rows++
	if t.wide() {
		t.r16.appendRow(src.r16.row(t.k, r))
	} else {
		t.r8.appendRow(src.r8.row(t.k, r))
	}
}

// invAt reconstructs row r as an inverse permutation (site → rank). It
// allocates; query paths use the raw rows, this is for serialization and
// reference implementations.
func (t *rankTable) invAt(r int) perm.Permutation {
	out := make(perm.Permutation, t.k)
	if t.wide() {
		fillInverse(t.r16.row(t.k, r), out)
	} else {
		fillInverse(t.r8.row(t.k, r), out)
	}
	return out
}

func fillInverse[T uint8 | uint16](row []T, out perm.Permutation) {
	for s, rank := range row {
		out[s] = int(rank)
	}
}

// distanceKeys computes the permutation distance between the query's
// permutation and every row of the table, as integer keys into out (len
// t.rows), returning the maximum key produced. qinv is the query's inverse
// (site → rank, what footrule and rho consume), qfwd its forward form
// (rank → site, what the Kendall kernel consumes), and seq a k-length
// scratch buffer. The kernel — distance × rank width — is selected here,
// once per query, instead of per element.
func (t *rankTable) distanceKeys(dist PermDistance, qinv, qfwd, seq []int32, out []int64) int64 {
	switch {
	case dist == Footrule && !t.wide():
		return footruleKeys(t.k, qinv, t.r8.data, out)
	case dist == Footrule:
		return footruleKeys(t.k, qinv, t.r16.data, out)
	case dist == KendallTau && !t.wide():
		return kendallKeys(t.k, qfwd, t.r8.data, seq, out)
	case dist == KendallTau:
		return kendallKeys(t.k, qfwd, t.r16.data, seq, out)
	case dist == SpearmanRho && !t.wide():
		return rhoSqKeys(t.k, qinv, t.r8.data, out)
	case dist == SpearmanRho:
		return rhoSqKeys(t.k, qinv, t.r16.data, out)
	default:
		panic("sisap: unknown permutation distance")
	}
}

// footruleKeys is the Spearman footrule kernel: out[r] = Σ_s |qinv[s] −
// row_r[s]|, an integer ≤ ⌊k²/2⌋.
func footruleKeys[T uint8 | uint16](k int, qinv []int32, rows []T, out []int64) int64 {
	var maxKey int64
	for r := range out {
		row := rows[r*k : (r+1)*k : (r+1)*k]
		var sum int64
		for s, rank := range row {
			d := int64(qinv[s]) - int64(rank)
			if d < 0 {
				d = -d
			}
			sum += d
		}
		out[r] = sum
		if sum > maxKey {
			maxKey = sum
		}
	}
	return maxKey
}

// kendallKeys is the Kendall tau kernel: out[r] is perm.KendallTau between
// the query's and the row's inverse vectors, an integer ≤ k(k−1)/2. That
// definition counts the inversions of row⁻¹∘qinv, which equals the
// inversions of its inverse qinv⁻¹∘row — and qinv⁻¹ is exactly the forward
// query permutation, so relabelling each row through qfwd (seq[s] =
// qfwd[row[s]]) reduces the distance to plain inversion counting with no
// row inversion. Rank vectors have no repeated values, so every pair is
// cleanly concordant or discordant. The O(k²) pair scan beats the
// allocating O(k log k) merge sort at the k this index runs at, and runs
// once per distinct row rather than once per point. seq is k-length scratch
// owned by the query's permScratch (sized once per workspace, not per call).
func kendallKeys[T uint8 | uint16](k int, qfwd []int32, rows []T, seq []int32, out []int64) int64 {
	// The three-index recap pins len(seq) to k, like row below, so the
	// relabel loop's seq[s] store needs no per-iteration bounds check.
	seq = seq[:k:k]
	var maxKey int64
	for r := range out {
		row := rows[r*k : (r+1)*k : (r+1)*k]
		for s, rank := range row {
			seq[s] = qfwd[rank]
		}
		var inv int64
		for i := 1; i < k; i++ {
			v := seq[i]
			for j := 0; j < i; j++ {
				if seq[j] > v {
					inv++
				}
			}
		}
		out[r] = inv
		if inv > maxKey {
			maxKey = inv
		}
	}
	return maxKey
}

// rhoSqKeys is the Spearman rho kernel: out[r] = Σ_s (qinv[s] − row_r[s])²,
// the integer square of the rho distance. sqrt is strictly monotone, so
// ordering (including ties) by the square is identical to ordering by rho.
func rhoSqKeys[T uint8 | uint16](k int, qinv []int32, rows []T, out []int64) int64 {
	var maxKey int64
	for r := range out {
		row := rows[r*k : (r+1)*k : (r+1)*k]
		var sum int64
		for s, rank := range row {
			d := int64(qinv[s]) - int64(rank)
			sum += d * d
		}
		out[r] = sum
		if sum > maxKey {
			maxKey = sum
		}
	}
	return maxKey
}

// countingBucketLimit bounds the bucket array a counting sort is allowed to
// allocate relative to n; beyond it (possible only for rho² at large k,
// where maxKey grows as k³) a stable comparison sort on the integer keys is
// cheaper than touching a sparse bucket array.
func countingBucketLimit(n int) int64 {
	return int64(4*n) + 1024
}

// countingArgsortInto writes into out the first len(out) indexes of the
// stable ascending-key ordering of keys (ties by lower index) — exactly
// argsort's ordering, in O(n + maxKey) instead of O(n log n). counts is
// scratch, grown as needed and reused across queries.
func countingArgsortInto(keys []int64, maxKey int64, counts []int32, out []int) []int32 {
	n := len(keys)
	limit := len(out)
	if limit > n {
		panic("sisap: countingArgsortInto limit exceeds key count")
	}
	if maxKey+1 > countingBucketLimit(n) {
		// Sparse key range: stable comparison sort preserves the identical
		// (key, index) order at O(n log n).
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
		copy(out, idx[:limit])
		return counts
	}
	buckets := int(maxKey) + 1
	if cap(counts) < buckets {
		counts = make([]int32, buckets)
	}
	counts = counts[:buckets]
	for i := range counts {
		counts[i] = 0
	}
	for _, key := range keys {
		counts[key]++
	}
	if limit == n {
		// Full sort: prefix sums become placement cursors; the ascending
		// index pass keeps equal keys in index order.
		var sum int32
		for key, c := range counts {
			counts[key] = sum
			sum += c
		}
		for i, key := range keys {
			out[counts[key]] = i
			counts[key]++
		}
		return counts
	}
	// Partial sort: find the cutoff bucket containing the limit-th
	// candidate, then place only keys below it (at their final positions)
	// plus the first `slack` index-order members of the cutoff bucket —
	// byte-identical to the prefix of the full ordering.
	var cutoff int64
	var below int32
	for key, c := range counts {
		if below+c > int32(limit) {
			cutoff = int64(key)
			break
		}
		below += c
		cutoff = int64(key) + 1
	}
	slack := int32(limit) - below // slots available within the cutoff bucket
	var sum int32
	for key := int64(0); key < cutoff; key++ {
		c := counts[key]
		counts[key] = sum
		sum += c
	}
	placed := 0
	for i, key := range keys {
		switch {
		case key < cutoff:
			out[counts[key]] = i
			counts[key]++
			placed++
		case key == cutoff && slack > 0:
			out[below] = i
			below++
			slack--
			placed++
		}
		if placed == limit {
			break
		}
	}
	return counts
}

// footruleRanks is the integer Spearman footrule over plain int rank
// vectors — the same kernel the table path uses, shared with iAESA's
// partial-permutation candidate selection.
func footruleRanks(a, b []int) int {
	s := 0
	for i, v := range a {
		d := v - b[i]
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}
