package distperm

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"distperm/internal/dataset"
)

// freezeToFile writes idx's frozen container, points embedded, to a temp
// file and returns its path.
func freezeToFile(t *testing.T, idx Index) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.frozen")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteFrozenIndex(f, idx.(*PermIndex)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckpointOverSelfContainedMappedBase: a writable engine over a
// self-contained mapped store, whose database has no Points, checkpoints every
// base point: restarted through Open from that checkpoint and rebuilt, it
// holds the live points and gives the answers of the same writes over the
// heap-built store.
func TestCheckpointOverSelfContainedMappedBase(t *testing.T) {
	db, rng := testDB(t, 731, 400, 3)
	idx, err := Build(db, Spec{Index: "distperm", K: 6, Seed: 731})
	if err != nil {
		t.Fatal(err)
	}
	cfg := OpenConfig{Load: freezeToFile(t, idx), Mmap: true, WALDir: t.TempDir(), Partition: "roundrobin", RebuildThreshold: 1 << 20}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Snapshot().BaseDB().Points != nil {
		t.Fatal("the self-contained mapped base has Points")
	}
	ref, err := WrapMutable(db, idx, MutableConfig{RebuildThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	fresh := dataset.UniformVectors(rng, 5, 3)
	for _, x := range []*Engine{e, ref} {
		for _, p := range fresh {
			if _, err := x.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		for _, gid := range []int{3, 77, 402} {
			if err := x.Delete(gid); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap, seq, err := e.CheckpointSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.boot.wal.WriteCheckpoint(snap, seq); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if e, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if !strings.Contains(e.Source(), "checkpoint") {
		t.Fatalf("restarted from %q, want the checkpoint", e.Source())
	}
	for _, x := range []*Engine{e, ref} {
		if err := x.Rebuild(); err != nil {
			t.Fatal(err)
		}
	}
	gids, pts := e.Snapshot().Live()
	wantGids, wantPts := ref.Snapshot().Live()
	if len(gids) != 402 || !reflect.DeepEqual(gids, wantGids) || !reflect.DeepEqual(pts, wantPts) {
		t.Fatalf("restarted store holds %d live points, want the heap twin's %d", len(gids), len(wantGids))
	}
	qs := append(db.Points[:50:50], dataset.UniformVectors(rng, 10, 3)...)
	for _, q := range []Query{{K: 5}, {Radius: 0.2}} {
		got, _, err := e.Search(qs, q)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ref.Search(qs, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: the restarted mapped store answers unlike its heap twin", q)
		}
	}
}

// protoSink keeps what Proto returns escaping, as a caller's use of it does.
var protoSink Point

// TestProtoBoxesNothing: an engine's Proto, read on every insert, allocates
// nothing over a mapped store whose points are boxed only on demand.
func TestProtoBoxesNothing(t *testing.T) {
	db, _ := testDB(t, 732, 300, 3)
	idx, err := Build(db, Spec{Index: "distperm", K: 6, Seed: 732})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Load(freezeToFile(t, idx), LoadOptions{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e, err := NewEngine(st.DB, st.Index, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if allocs := testing.AllocsPerRun(100, func() { protoSink = e.Proto() }); allocs != 0 || !reflect.DeepEqual(e.Proto(), db.Points[0]) {
		t.Fatalf("Proto allocates %v objects a call and returns %v, want 0 and point 0, %v", allocs, e.Proto(), db.Points[0])
	}
}
