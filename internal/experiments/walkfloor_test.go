package experiments

import (
	"bytes"
	"testing"
)

// TestWalkFloor prints the walk-floor table (go test -v) and checks its
// shape: adding a bound can only lower the floor, and the pruned walk, whose
// terms are slack-shrunk cuts of the ones here, never measures fewer points
// than the lowest floor.
func TestWalkFloor(t *testing.T) {
	wf := RunWalkFloor(Config{VectorN: 10_000, Seed: 1}, []int{2, 4, 6, 8, 12, 16}, 12, 12, 10)
	if len(wf.Rows) != 12 {
		t.Fatalf("%d rows, want 12", len(wf.Rows))
	}
	var buf bytes.Buffer
	wf.Write(&buf)
	t.Log("\n" + buf.String())
	for _, r := range wf.Rows {
		if r.Bucket > r.Range || r.Cell > r.Bucket {
			t.Errorf("%s d=%d: floors range %v, +bucket bisector %v, +cell bisector %v do not fall", r.Shape, r.D, r.Range, r.Bucket, r.Cell)
		}
		if r.CellEll < r.Ell || r.Evals < r.Cell {
			t.Errorf("%s d=%d: ℓ = %d, ℓ' = %d, the walk measured %v under a floor of %v", r.Shape, r.D, r.Ell, r.CellEll, r.Evals, r.Cell)
		}
	}
}
