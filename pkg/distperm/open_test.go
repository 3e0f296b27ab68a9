package distperm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"distperm/internal/dataset"
)

// uniformPoints is a Dataset for Open: n uniform points in the unit cube,
// drawn from the generator Open seeds.
func uniformPoints(n, d int) func(*rand.Rand) (*DB, string, error) {
	return func(rng *rand.Rand) (*DB, string, error) {
		db, err := NewDB(L2, dataset.UniformVectors(rng, n, d))
		return db, "uniform", err
	}
}

// TestOpenDrawsSeedsInOrder: Open draws the dataset, then the build's seed,
// then the rebuilds' from one generator seeded by Seed — the order the
// daemon has always drawn them in, so the same flags build the same bytes.
func TestOpenDrawsSeedsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db, err := NewDB(L2, dataset.UniformVectors(rng, 300, 3))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build(db, Spec{Index: "distperm", K: 6, Seed: rng.Int63()})
	if err != nil {
		t.Fatal(err)
	}
	rebuildSeed := rng.Int63()
	e, err := Open(OpenConfig{Dataset: uniformPoints(300, 3), Seed: 7, Index: "distperm", K: 6, Partition: "roundrobin", RebuildThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var got, ref bytes.Buffer
	if _, err := WriteIndex(&got, e.cur.Load().idx); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteIndex(&ref, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), ref.Bytes()) || e.cfg.Spec.Seed != rebuildSeed || e.Source() != "uniform" {
		t.Errorf("Open built %d bytes (want the %d of a build seeded in order), rebuild seed %d (want %d), source %q",
			got.Len(), ref.Len(), e.cfg.Spec.Seed, rebuildSeed, e.Source())
	}
}

// TestReadOnlyEngineRefusesWrites: an engine from NewEngine serves queries
// and refuses every write with ErrReadOnly, changing nothing.
func TestReadOnlyEngineRefusesWrites(t *testing.T) {
	db, _ := testDB(t, 19, 200, 3)
	idx, err := Build(db, Spec{Index: "distperm", K: 6, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(db, idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	w, err := OpenWAL(t.TempDir(), WALOptions{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	_, insertErr := e.Insert(db.Points[0])
	_, _, replayErr := e.ReplayWAL(w, 0)
	_, _, ckptErr := e.CheckpointSnapshot()
	for name, err := range map[string]error{
		"Insert": insertErr, "Delete": e.Delete(0), "Rebuild": e.Rebuild(), "ReplayWAL": replayErr, "CheckpointSnapshot": ckptErr,
	} {
		if !errors.Is(err, ErrReadOnly) {
			t.Errorf("%s on a read-only engine: %v, want ErrReadOnly", name, err)
		}
	}
	if e.Mutable() || e.LiveN() != 200 || e.Snapshot() != nil || e.MutationStats().LiveN != 200 {
		t.Errorf("read-only engine: mutable %v, %d live, snapshot %v", e.Mutable(), e.LiveN(), e.Snapshot())
	}
	if rs, err := e.KNNBatch([]Point{db.Points[3]}, 1); err != nil || rs[0][0].ID != 3 {
		t.Errorf("self-query answered %v, %v", rs, err)
	}
}

// TestOpenReleasesWhatItOpened: the engine Open returns owns the log it
// opened and closes it when the engine closes, and the next Open replays
// it; a configuration Open cannot boot is an error, not a panic.
func TestOpenReleasesWhatItOpened(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(OpenConfig{Dataset: uniformPoints(200, 3), Seed: 3, Index: "distperm", K: 6, Partition: "roundrobin", WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert(Vector{5, 5, 5}); err != nil {
		t.Fatal(err)
	}
	w := e.boot.wal
	e.Close()
	if err := w.Append(WALRecord{Op: WALDelete, GID: 1}); err == nil {
		t.Error("the log took an append after its engine closed")
	}
	e, err = Open(OpenConfig{Dataset: uniformPoints(200, 3), Seed: 3, Index: "distperm", K: 6, Partition: "roundrobin", WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if e.LiveN() != 201 || e.WALStats().ReplayedRecords != 1 {
		t.Errorf("reopened %d live points after replaying %d records, want 201 after 1", e.LiveN(), e.WALStats().ReplayedRecords)
	}
	e.Close()
	if _, err := Open(OpenConfig{Dataset: uniformPoints(200, 3), Seed: 3, Index: "distperm", K: 6, Partition: "modulo", WALDir: dir}); err == nil {
		t.Fatal("Open with an unknown partitioner succeeded")
	}
	if _, err := Open(OpenConfig{Index: "distperm", K: 6}); err == nil {
		t.Fatal("Open with nothing to build over succeeded")
	}
}

// TestCheckpointRetriedAfterFailure: a checkpoint that fails after a rebuild
// is written on the next tick, not left until the next rebuild — the log
// is folded with no second rebuild.
func TestCheckpointRetriedAfterFailure(t *testing.T) {
	db, rng := testDB(t, 13, 200, 3)
	dir := t.TempDir()
	wal, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	me, err := NewMutableEngine(db, MutableConfig{Spec: Spec{Index: "distperm", K: 6, Seed: 13}, WAL: wal})
	if err != nil {
		t.Fatal(err)
	}
	defer me.Close()
	for _, p := range dataset.UniformVectors(rng, 10, 3) {
		if _, err := me.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := me.Rebuild(); err != nil {
		t.Fatal(err)
	}
	seq := me.WALStats().Seq
	// A directory where the checkpoint's temporary file goes makes writing
	// it fail (EISDIR), even as root.
	tmp := filepath.Join(dir, fmt.Sprintf("ckpt-%016x.ckpt.tmp", seq))
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	folded := me.checkpointOnce(0, 0)
	if got := me.WALStats().CheckpointSeq; got != 0 {
		t.Fatalf("checkpoint seq %d after a failed write, want 0", got)
	}
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	me.checkpointOnce(0, folded)
	if got := me.WALStats().CheckpointSeq; got != seq {
		t.Errorf("checkpoint seq %d after the retry, want %d", got, seq)
	}
	if r := me.MutationStats().Rebuilds; r != 1 {
		t.Errorf("%d rebuilds, want 1", r)
	}
}
