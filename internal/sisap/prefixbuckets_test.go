package sisap

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"distperm/internal/dataset"
	"distperm/internal/metric"
)

// approxTestIndex builds a PermIndex over the given points with k sites.
func approxTestIndex(t *testing.T, points []metric.Point, k int, dist PermDistance, seed int64) *PermIndex {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := NewDB(metric.L2{}, points)
	return NewPermIndex(db, rng.Perm(len(points))[:k], dist)
}

// recallAt returns |approx ∩ truth| / |truth| over result IDs.
func recallAt(truth, approx []Result) float64 {
	want := make(map[int]bool, len(truth))
	for _, r := range truth {
		want[r.ID] = true
	}
	hit := 0
	for _, r := range approx {
		if want[r.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// TestApproxRecallMonotoneInNProbe pins the contract recall rides on: for
// every query the probe order is fixed, so a larger nprobe only ever grows
// the candidate set, and per-query recall@k against the exact answer is
// non-decreasing — reaching exactly 1.0 once the probe set covers the
// directory. Exercised over uniform and clustered databases and both rank
// widths (uint8 for k ≤ 256, uint16 beyond).
func TestApproxRecallMonotoneInNProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name   string
		points []metric.Point
		sites  int
	}{
		{"uniform-u8", dataset.UniformVectors(rng, 3000, 6), 12},
		{"clustered-u8", dataset.ClusteredVectors(rng, 3000, 6, 24, 0.05), 12},
		{"uniform-u16", dataset.UniformVectors(rng, 500, 4), 300},
		{"clustered-u16", dataset.ClusteredVectors(rng, 500, 4, 8, 0.05), 300},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			idx := approxTestIndex(t, tc.points, tc.sites, Footrule, 11)
			if tc.sites > 256 && !idx.table.wide() {
				t.Fatalf("expected a wide (uint16) rank table at k=%d", tc.sites)
			}
			nb := idx.ApproxBuckets()
			if nb < 2 {
				t.Skipf("directory has %d buckets; nothing to probe", nb)
			}
			const k = 10
			qrng := rand.New(rand.NewSource(23))
			for qi := 0; qi < 20; qi++ {
				q := dataset.UniformVectors(qrng, 1, len(tc.points[0].(metric.Vector)))[0]
				truth, _ := idx.KNN(q, k)
				prev := -1.0
				for nprobe := 1; nprobe <= nb; nprobe += 1 + nb/7 {
					rs, st := idx.KNNApprox(q, k, nprobe)
					r := recallAt(truth, rs)
					if r < prev {
						t.Fatalf("query %d: recall fell from %.3f to %.3f at nprobe=%d", qi, prev, r, nprobe)
					}
					prev = r
					if st.ProbedBuckets < min(nprobe, nb) || st.ProbedBuckets > nb {
						t.Fatalf("probed %d buckets for nprobe=%d (directory %d)", st.ProbedBuckets, nprobe, nb)
					}
					if st.Candidates < k || st.Candidates > idx.db.N() {
						t.Fatalf("candidates %d out of range %d..%d", st.Candidates, k, idx.db.N())
					}
				}
				if rs, st := idx.KNNApprox(q, k, nb); !st.Exact {
					t.Fatalf("nprobe=%d over %d buckets did not report the exact fallback", nb, nb)
				} else if !reflect.DeepEqual(rs, truth) {
					t.Fatalf("full-coverage approx answer differs from exact")
				}
			}
		})
	}
}

// TestApproxRecallQuality pins that a modest probe fraction already buys
// high recall on clustered data — the workload the inverted file exists
// for. The dataset and seeds are fixed, so the floor is deterministic.
func TestApproxRecallQuality(t *testing.T) {
	for _, pd := range []PermDistance{Footrule, KendallTau, SpearmanRho} {
		t.Run(pd.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			points := dataset.ClusteredVectors(rng, 4000, 8, 32, 0.05)
			idx := approxTestIndex(t, points, 14, pd, 5)
			nb := idx.ApproxBuckets()
			nprobe := (nb + 3) / 4
			const k = 10
			qrng := rand.New(rand.NewSource(41))
			total, cands := 0.0, 0
			const queries = 25
			for qi := 0; qi < queries; qi++ {
				q := dataset.ClusteredVectors(qrng, 1, 8, 1, 0.05)[0]
				truth, _ := idx.KNN(q, k)
				rs, st := idx.KNNApprox(q, k, nprobe)
				total += recallAt(truth, rs)
				cands += st.Candidates
			}
			recall := total / queries
			frac := float64(cands) / float64(queries*len(points))
			t.Logf("%s: %d/%d buckets probed, mean recall@%d %.3f, candidate fraction %.3f",
				pd, nprobe, nb, k, recall, frac)
			if recall < 0.6 {
				t.Fatalf("mean recall@%d = %.3f below floor 0.6 at nprobe=%d/%d", k, recall, nprobe, nb)
			}
			if frac >= 1 {
				t.Fatalf("candidate fraction %.3f did not shrink the scan", frac)
			}
		})
	}
}

// TestApproxFullCoverageByteIdentical pins the approx=0 contract at the
// index level: a probe set covering every bucket answers byte-identically
// to KNN, tie-breaks included, for every permutation distance.
func TestApproxFullCoverageByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	// Duplicated points force distance ties, exercising the (distance, ID)
	// tie-break agreement.
	pts := dataset.UniformVectors(rng, 400, 5)
	points := append(append([]metric.Point{}, pts...), pts[:100]...)
	for _, pd := range []PermDistance{Footrule, KendallTau, SpearmanRho} {
		built := approxTestIndex(t, points, 9, pd, 29)
		// Every frozen origin too — PFR3 mapped and decoded, PFR2 mapped —
		// opened with no database and left to the qualification rule.
		image := frozenImage(t, built)
		decoded, _, err := openFrozenBytes(image, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range []permBackend{{"heap", built}, {"pfr3-mmap", mappedCopy(t, built, nil)}, {"pfr3-heap", decoded},
			{"pfr2-mmap", openMappedPath(t, writeImage(t, pfr2Image(t, image)), nil)}} {
			idx, nb := st.idx, st.idx.ApproxBuckets()
			linear := NewLinearScan(idx.db)
			qrng := rand.New(rand.NewSource(31))
			for qi := 0; qi < 10; qi++ {
				q := dataset.UniformVectors(qrng, 1, 5)[0]
				want, wantSt := idx.KNN(q, 7)
				if oracle, _ := linear.KNN(q, 7); !reflect.DeepEqual(want, oracle) {
					t.Fatalf("%s/%s: exact KNN differs from LinearScan over the opened database", pd, st.name)
				}
				if source, _ := built.KNN(q, 7); !reflect.DeepEqual(want, source) {
					t.Fatalf("%s/%s: exact KNN differs from the as-built index's", pd, st.name)
				}
				for _, nprobe := range []int{nb, nb + 3, 1 << 20} {
					got, st := idx.KNNApprox(q, 7, nprobe)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: nprobe=%d answers differ from exact KNN", pd, nprobe)
					}
					if !st.Exact || st.DistanceEvals != wantSt.DistanceEvals {
						t.Fatalf("%s: full-coverage stats %+v not exact (want evals %d)", pd, st, wantSt.DistanceEvals)
					}
				}
				for _, nprobe := range []int{1, 4} {
					got, gotSt := idx.KNNApprox(q, 7, nprobe)
					src, srcSt := built.KNNApprox(q, 7, nprobe)
					if !reflect.DeepEqual(got, src) || gotSt != srcSt {
						t.Fatalf("%s/%s: nprobe=%d answers %v (%+v), the as-built index's %v (%+v)", pd, st.name, nprobe, got, gotSt, src, srcSt)
					}
				}
			}
		}
	}
}

// TestApproxWidensProbeSetForK pins that a tiny nprobe still yields k
// results: the probe set widens along the fixed bucket order until the
// candidate pool can fill the answer.
func TestApproxWidensProbeSetForK(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	points := dataset.ClusteredVectors(rng, 600, 6, 40, 0.02)
	idx := approxTestIndex(t, points, 10, Footrule, 13)
	q := dataset.UniformVectors(rng, 1, 6)[0]
	const k = 50
	rs, st := idx.KNNApprox(q, k, 1)
	if len(rs) != k {
		t.Fatalf("got %d results, want %d", len(rs), k)
	}
	if st.Candidates < k {
		t.Fatalf("candidate pool %d smaller than k=%d", st.Candidates, k)
	}
}

// configurePrefixBuckets attaches a directory with an explicit prefix length
// ell (clamped to 1..k), replacing any already attached. Serving code only
// ever builds the computed default; a frozen file may carry any ℓ, so the
// tests need a way to write one.
func (x *PermIndex) configurePrefixBuckets(ell int) {
	x.lb = &lazyBuckets{pb: buildPrefixBuckets(x.table, x.tableIDs, ell)}
}

// TestConfigurePrefixBuckets pins the explicit-ℓ override: the directory
// adopts the requested prefix length (clamped to k) and longer prefixes
// never coarsen the directory.
func TestConfigurePrefixBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	points := dataset.UniformVectors(rng, 1000, 6)
	idx := approxTestIndex(t, points, 8, Footrule, 37)
	prev := 0
	for _, ell := range []int{1, 2, 3, 4, 99} {
		idx.configurePrefixBuckets(ell)
		want := ell
		if want > idx.K() {
			want = idx.K()
		}
		if got := idx.PrefixLen(); got != want {
			t.Fatalf("PrefixLen() = %d after configuring ell=%d (k=%d)", got, ell, idx.K())
		}
		nb := idx.ApproxBuckets()
		if nb < prev {
			t.Fatalf("directory shrank from %d to %d buckets as ell grew to %d", prev, nb, ell)
		}
		prev = nb
	}
}

// TestApproxReplicaSharesDirectory pins that approximate queries on one
// index, from two goroutines at once, answer identically.
func TestApproxReplicaSharesDirectory(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	points := dataset.UniformVectors(rng, 800, 6)
	idx := approxTestIndex(t, points, 10, Footrule, 41)
	q := dataset.UniformVectors(rng, 1, 6)[0]
	var rs [2][]Result
	var sts [2]ApproxStats
	var wg sync.WaitGroup
	for g := range rs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs[g], sts[g] = idx.KNNApprox(q, 5, 2)
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(rs[0], rs[1]) || sts[0] != sts[1] {
		t.Fatalf("concurrent approximate answers differ")
	}
}
