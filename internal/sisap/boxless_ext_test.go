package sisap_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"distperm/internal/dataset"
	"distperm/internal/metric"
	"distperm/internal/sisap"
	"distperm/pkg/distperm"

	"math/rand"
)

// TestScanSegmentsListsStoreWithoutBounds: a self-contained file that carries
// no bounds, of a store whose shape would qualify for them, is served as a
// scan mapped and decoded alike: an engine over it lists it among its scan
// segments, and its queries bound no cell.
func TestScanSegmentsListsStoreWithoutBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(724))
	db := sisap.NewDB(metric.L2{}, dataset.UniformVectors(rng, 2000, 3))
	idx := sisap.NewPermIndex(db, rng.Perm(db.N())[:6], sisap.Footrule)
	if !idx.Bounded() {
		t.Fatal("the store does not qualify for bounds")
	}
	bare := sisap.BareFrozenForTest(t, idx)
	path := filepath.Join(t.TempDir(), "bare.dpidx")
	if err := os.WriteFile(path, bare, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := sisap.OpenMapped(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	decoded, err := sisap.OpenMappedBytesForTest(bare, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, x := range map[string]*sisap.PermIndex{"mmap": m.Index(), "frozen-heap": decoded} {
		e, err := distperm.NewEngine(m.DB(), x, 0) // the decoded store's points are the same
		if err != nil {
			t.Fatal(err)
		}
		if perm, scans := e.ScanSegments(); perm != 1 || !slices.Equal(scans, []int{0}) || x.Bounded() {
			t.Fatalf("%s: ScanSegments = %d, %v and Bounded %v, want its one segment a scan", name, perm, scans, x.Bounded())
		}
		qs := dataset.UniformVectors(rng, 4, 3)
		if _, err := e.KNNBatch(qs, 5); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.KNNApproxBatch(qs, 5, 2); err != nil {
			t.Fatal(err)
		}
		if x.BoundCells() != 0 {
			t.Fatalf("%s: %d cells bounded after exact and approximate queries", name, x.BoundCells())
		}
		e.Close()
	}
}
