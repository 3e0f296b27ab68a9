package distperm_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"distperm/pkg/distperm"
)

// walRecs builds n distinct insert records with consecutive gids starting
// at base (the shape an engine would log over a base of `base` points).
func walRecs(base, n int) []distperm.WALRecord {
	rng := rand.New(rand.NewSource(77))
	recs := make([]distperm.WALRecord, n)
	for i := range recs {
		recs[i] = distperm.WALRecord{
			Op:    distperm.WALInsert,
			GID:   base + i,
			Point: distperm.Vector{rng.Float64(), rng.Float64(), rng.Float64()},
		}
	}
	return recs
}

// replayAll collects every record in the log.
func replayAll(t *testing.T, w *distperm.WAL, fromSeq uint64) []distperm.WALRecord {
	t.Helper()
	var got []distperm.WALRecord
	if _, err := w.Replay(fromSeq, func(seq uint64, rec distperm.WALRecord) error {
		got = append(got, rec)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

// lastSegment returns the path of the highest-numbered segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments in %s (err %v)", dir, err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := distperm.OpenWAL(dir, distperm.WALOptions{Sync: distperm.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	recs := walRecs(100, 9)
	recs = append(recs, distperm.WALRecord{Op: distperm.WALDelete, GID: 3})
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Seq(); got != uint64(len(recs)) {
		t.Fatalf("seq %d after %d appends", got, len(recs))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(recs[0]); err == nil {
		t.Fatal("append after Close succeeded")
	}

	w, err = distperm.OpenWAL(dir, distperm.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.Seq(); got != uint64(len(recs)) {
		t.Fatalf("reopened at seq %d, want %d", got, len(recs))
	}
	got := replayAll(t, w, 0)
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replayed %d records, want the %d appended ones", len(got), len(recs))
	}
	// Replay from the middle resumes mid-log; replay past the end is empty.
	if tail := replayAll(t, w, 4); !reflect.DeepEqual(tail, recs[4:]) {
		t.Fatalf("tail replay from 4 gave %d records, want %d", len(tail), len(recs)-4)
	}
	if tail := replayAll(t, w, uint64(len(recs))); len(tail) != 0 {
		t.Fatalf("replay past the end gave %d records", len(tail))
	}
	st := w.Stats()
	if st.Recoveries == 0 || st.ReplayedRecords == 0 || st.AppendedRecords != 0 {
		t.Fatalf("stats after recovery: %+v", st)
	}
}

// TestWALTornTailEveryByte is the heart of the crash story: a log whose
// final record is cut at EVERY byte boundary must reopen cleanly with
// exactly the earlier records (no panic, no invented data), and a log whose
// final record has any single byte flipped must never replay a record that
// differs from the one appended.
func TestWALTornTailEveryByte(t *testing.T) {
	dir := t.TempDir()
	recs := walRecs(10, 5)
	w, err := distperm.OpenWAL(dir, distperm.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[:4] {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	info4, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	w, err = distperm.OpenWAL(dir, distperm.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(recs[4]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info5, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	start, end := info4.Size(), info5.Size() // the final record's frame

	for cut := start; cut < end; cut++ {
		cdir := copyDir(t, dir)
		if err := os.Truncate(lastSegment(t, cdir), cut); err != nil {
			t.Fatal(err)
		}
		cw, err := distperm.OpenWAL(cdir, distperm.WALOptions{})
		if err != nil {
			t.Fatalf("cut at byte %d: open: %v", cut, err)
		}
		if got := cw.Seq(); got != 4 {
			t.Fatalf("cut at byte %d: recovered seq %d, want 4", cut, got)
		}
		if st := cw.Stats(); st.TornBytesTruncated != cut-start {
			t.Fatalf("cut at byte %d: truncated %d torn bytes, want %d", cut, st.TornBytesTruncated, cut-start)
		}
		if got := replayAll(t, cw, 0); !reflect.DeepEqual(got, recs[:4]) {
			t.Fatalf("cut at byte %d: replay diverged from the intact prefix", cut)
		}
		// The log must append cleanly after truncation — on a frame boundary.
		if err := cw.Append(recs[4]); err != nil {
			t.Fatalf("cut at byte %d: append after recovery: %v", cut, err)
		}
		if got := replayAll(t, cw, 0); !reflect.DeepEqual(got, recs[:5]) {
			t.Fatalf("cut at byte %d: post-recovery append diverged", cut)
		}
		cw.Close()
	}

	for off := start; off < end; off++ {
		cdir := copyDir(t, dir)
		path := lastSegment(t, cdir)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[off] ^= 0x5a
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cw, err := distperm.OpenWAL(cdir, distperm.WALOptions{})
		if err != nil {
			// A flip can also surface as outright corruption (e.g. a larger
			// length that overruns); refusing to open is acceptable, silent
			// acceptance is not.
			continue
		}
		got := replayAll(t, cw, 0)
		if len(got) > 4 && !reflect.DeepEqual(got[4], recs[4]) {
			t.Fatalf("flip at byte %d: replay invented record %+v", off, got[4])
		}
		if len(got) > 5 {
			t.Fatalf("flip at byte %d: replay grew to %d records", off, len(got))
		}
		if !reflect.DeepEqual(got[:4], recs[:4]) {
			t.Fatalf("flip at byte %d: intact prefix diverged", off)
		}
		cw.Close()
	}
}

// buildMultiSegment fills a WAL with enough 64-dimensional inserts to
// rotate across several minimum-size segments, returning the records.
func buildMultiSegment(t *testing.T, dir string) []distperm.WALRecord {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	w, err := distperm.OpenWAL(dir, distperm.WALOptions{Sync: distperm.SyncNever, SegmentBytes: 1}) // clamped to the 4 KiB minimum
	if err != nil {
		t.Fatal(err)
	}
	var recs []distperm.WALRecord
	for i := 0; i < 40; i++ {
		v := make(distperm.Vector, 64)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		rec := distperm.WALRecord{Op: distperm.WALInsert, GID: i, Point: v}
		recs = append(recs, rec)
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if st := w.Stats(); st.Segments < 3 {
		t.Fatalf("only %d segments; the test needs rotation", st.Segments)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestWALRotationReplayAndTruncate(t *testing.T) {
	dir := t.TempDir()
	recs := buildMultiSegment(t, dir)
	w, err := distperm.OpenWAL(dir, distperm.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := replayAll(t, w, 0); !reflect.DeepEqual(got, recs) {
		t.Fatalf("multi-segment replay diverged (%d records, want %d)", len(got), len(recs))
	}
	if err := w.TruncateThrough(w.Seq()); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("%d segments after TruncateThrough(all), want just the active one", len(segs))
	}
	// The dropped prefix is gone: replaying from 0 must refuse, not return
	// a partial history.
	if _, err := w.Replay(0, func(uint64, distperm.WALRecord) error { return nil }); err == nil {
		t.Fatal("replay from 0 succeeded over a truncated prefix")
	}
	// Replay from the retained suffix still works.
	w2recs := replayAll(t, w, w.Seq())
	if len(w2recs) != 0 {
		t.Fatalf("replay from head gave %d records", len(w2recs))
	}
}

func TestWALCorruptionMidLogRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	buildMultiSegment(t, dir)
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	sort.Strings(segs)

	t.Run("flip in first segment", func(t *testing.T) {
		cdir := copyDir(t, dir)
		csegs, _ := filepath.Glob(filepath.Join(cdir, "wal-*.seg"))
		sort.Strings(csegs)
		data, err := os.ReadFile(csegs[0])
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(csegs[0], data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := distperm.OpenWAL(cdir, distperm.WALOptions{}); err == nil {
			t.Fatal("opened a log with mid-segment corruption")
		}
	})
	t.Run("missing segment", func(t *testing.T) {
		cdir := copyDir(t, dir)
		csegs, _ := filepath.Glob(filepath.Join(cdir, "wal-*.seg"))
		sort.Strings(csegs)
		if err := os.Remove(csegs[1]); err != nil {
			t.Fatal(err)
		}
		_, err := distperm.OpenWAL(cdir, distperm.WALOptions{})
		if err == nil || !strings.Contains(err.Error(), "missing segment") {
			t.Fatalf("opening with a missing middle segment: %v", err)
		}
	})
	t.Run("truncated mid-log segment", func(t *testing.T) {
		cdir := copyDir(t, dir)
		csegs, _ := filepath.Glob(filepath.Join(cdir, "wal-*.seg"))
		sort.Strings(csegs)
		if err := os.Truncate(csegs[0], 40); err != nil {
			t.Fatal(err)
		}
		if _, err := distperm.OpenWAL(cdir, distperm.WALOptions{}); err == nil {
			t.Fatal("opened a log whose non-final segment is truncated")
		}
	})
}

func TestWALSyncPolicies(t *testing.T) {
	if _, err := distperm.ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted nonsense")
	}
	for _, tc := range []struct {
		name string
		opts distperm.WALOptions
	}{
		{"always", distperm.WALOptions{Sync: distperm.SyncAlways}},
		{"interval", distperm.WALOptions{Sync: distperm.SyncInterval, SyncInterval: time.Millisecond}},
		{"never", distperm.WALOptions{Sync: distperm.SyncNever}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if p, err := distperm.ParseSyncPolicy(tc.name); err != nil || p != tc.opts.Sync {
				t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.name, p, err)
			}
			dir := t.TempDir()
			w, err := distperm.OpenWAL(dir, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			recs := walRecs(0, 6)
			for _, rec := range recs {
				if err := w.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			st := w.Stats()
			switch tc.opts.Sync {
			case distperm.SyncAlways:
				if st.Syncs < int64(len(recs)) {
					t.Fatalf("always policy fsynced %d times for %d appends", st.Syncs, len(recs))
				}
				if st.Fsync.Count < uint64(len(recs)) {
					t.Fatalf("fsync histogram saw %d samples", st.Fsync.Count)
				}
			case distperm.SyncInterval:
				deadline := time.Now().Add(5 * time.Second)
				for w.Stats().Syncs == 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if w.Stats().Syncs == 0 {
					t.Fatal("interval policy never fsynced")
				}
			}
			if st.Sync != tc.name {
				t.Fatalf("stats report sync %q, want %q", st.Sync, tc.name)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			w, err = distperm.OpenWAL(dir, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if got := replayAll(t, w, 0); !reflect.DeepEqual(got, recs) {
				t.Fatalf("replay under %s diverged", tc.name)
			}
		})
	}
}

// walEngine builds a WAL-attached engine over a fresh uniform base.
func walEngine(t *testing.T, dir string, db *distperm.DB) (*distperm.MutableEngine, *distperm.WAL) {
	t.Helper()
	w, err := distperm.OpenWAL(dir, distperm.WALOptions{Sync: distperm.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	me, err := distperm.NewMutableEngine(db, distperm.MutableConfig{
		Spec: distperm.Spec{Index: "distperm", K: 4, Seed: 11},
		WAL:  w,
	})
	if err != nil {
		t.Fatal(err)
	}
	return me, w
}

// liveSet fingerprints an engine's logical point set: gid → point.
func liveSet(t *testing.T, me *distperm.MutableEngine) map[int]string {
	t.Helper()
	snap := me.Snapshot()
	out := make(map[int]string)
	gids, pts := snap.Live()
	for i, g := range gids {
		out[g] = fmt.Sprintf("%v", pts[i])
	}
	return out
}

// mutate drives n random inserts/deletes through the engine, mirroring
// them in model.
func mutate(t *testing.T, me *distperm.MutableEngine, model map[int]string, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 && len(model) > 1 {
			gids := make([]int, 0, len(model))
			for g := range model {
				gids = append(gids, g)
			}
			sort.Ints(gids)
			victim := gids[rng.Intn(len(gids))]
			if err := me.Delete(victim); err != nil {
				t.Fatal(err)
			}
			delete(model, victim)
			continue
		}
		p := distperm.Vector{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		gid, err := me.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		model[gid] = fmt.Sprintf("%v", p)
	}
}

// TestWALEngineRecovery is the end-to-end crash drill without a process
// boundary: mutate a WAL-attached engine, drop it on the floor (no
// snapshot, no clean close), rebuild from the same base + log, and require
// the recovered live set to equal the acknowledged one exactly.
func TestWALEngineRecovery(t *testing.T) {
	dir := t.TempDir()
	db := mustDB(t, 21, 30)
	me, _ := walEngine(t, dir, db)
	model := make(map[int]string)
	for g, p := range liveSet(t, me) {
		model[g] = p
	}
	rng := rand.New(rand.NewSource(4))
	mutate(t, me, model, rng, 120)
	acked := liveSet(t, me)
	if !reflect.DeepEqual(acked, model) {
		t.Fatal("model drifted from engine before the crash")
	}
	me.Close() // the WAL deliberately stays un-Closed: a crash would not flush it either

	// Recovery attaches the log it replays: the records are applied to the
	// engine, not appended to the log a second time.
	recover := func() (*distperm.MutableEngine, *distperm.WAL) {
		t.Helper()
		w, err := distperm.OpenWAL(dir, distperm.WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		me, err := distperm.NewMutableEngine(db, distperm.MutableConfig{Spec: distperm.Spec{Index: "distperm", K: 4, Seed: 11}, WAL: w})
		if err != nil {
			t.Fatal(err)
		}
		applied, skipped, err := me.ReplayWAL(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		if applied != 120 || skipped != 0 || w.Seq() != 120 {
			t.Fatalf("replay applied %d skipped %d, log at seq %d; want 120/0 at seq 120", applied, skipped, w.Seq())
		}
		if got := liveSet(t, me); !reflect.DeepEqual(got, acked) {
			t.Fatalf("recovered live set has %d points, acknowledged %d — contents diverge", len(got), len(acked))
		}
		return me, w
	}
	me2, w2 := recover()
	me2.Close()
	w2.Close()
	// Recovering again finds the same 120 records: nothing was logged twice.
	me3, w3 := recover()
	defer me3.Close()
	// The recovered engine keeps logging: one more write, one more record.
	if _, err := me3.Insert(distperm.Vector{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if w3.Seq() != 121 {
		t.Fatalf("post-recovery insert moved seq 120→%d", w3.Seq())
	}
	w3.Close()
}

// TestWALCheckpointRecovery covers the checkpoint path: recovery loads the
// newest checkpoint, replays only the tail, and prunes what the checkpoint
// covers; a conservative replay from zero is idempotent.
func TestWALCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	db := mustDB(t, 22, 25)
	me, w := walEngine(t, dir, db)
	model := make(map[int]string)
	for g, p := range liveSet(t, me) {
		model[g] = p
	}
	rng := rand.New(rand.NewSource(5))
	mutate(t, me, model, rng, 60)

	snap, seq, err := me.CheckpointSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 60 {
		t.Fatalf("checkpoint cut at seq %d, want 60", seq)
	}
	if err := w.WriteCheckpoint(snap, seq); err != nil {
		t.Fatal(err)
	}
	mutate(t, me, model, rng, 40)
	acked := liveSet(t, me)
	me.Close()

	w2, err := distperm.OpenWAL(dir, distperm.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := w2.LoadCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.Seq != seq {
		t.Fatalf("loaded checkpoint %+v, want seq %d", ck, seq)
	}
	for _, fromSeq := range []uint64{ck.Seq, 0} {
		me2, err := distperm.WrapMutable(nil, ck.Snapshot, distperm.MutableConfig{WAL: w2})
		if err != nil {
			t.Fatal(err)
		}
		applied, skipped, err := me2.ReplayWAL(w2, fromSeq)
		if err != nil {
			t.Fatalf("replay from %d: %v", fromSeq, err)
		}
		if fromSeq == ck.Seq && (applied != 40 || skipped != 0) {
			t.Fatalf("tail replay applied %d skipped %d, want 40/0", applied, skipped)
		}
		if fromSeq == 0 && applied != 40 {
			// Everything the checkpoint covers must be recognised and
			// skipped, not double-applied.
			t.Fatalf("conservative replay applied %d records, want 40 (skipped %d)", applied, skipped)
		}
		if got := liveSet(t, me2); !reflect.DeepEqual(got, acked) || w2.Seq() != 100 {
			t.Fatalf("recovery from seq %d diverged from the acknowledged set, or moved the log to seq %d", fromSeq, w2.Seq())
		}
		me2.Close()
	}
	if ckpts, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt")); len(ckpts) != 1 {
		t.Fatalf("%d checkpoint files on disk, want 1", len(ckpts))
	}
	w2.Close()
}

func TestWALReplayAfterAttachRefused(t *testing.T) {
	dir := t.TempDir()
	db := mustDB(t, 23, 10)
	me, mw := walEngine(t, dir, db)
	defer mw.Close()
	defer me.Close()
	w, err := distperm.OpenWAL(t.TempDir(), distperm.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, _, err := me.ReplayWAL(w, 0); err == nil {
		t.Fatal("ReplayWAL ran on an engine with an attached WAL")
	}
}

func TestWALStatsSurface(t *testing.T) {
	db := mustDB(t, 24, 10)
	me, err := distperm.NewMutableEngine(db, distperm.MutableConfig{Spec: distperm.Spec{Index: "linear"}})
	if err != nil {
		t.Fatal(err)
	}
	defer me.Close()
	if st := me.WALStats(); st.Enabled {
		t.Fatal("WAL-less engine reports an enabled WAL")
	}
	if _, _, err := me.CheckpointSnapshot(); err == nil {
		t.Fatal("CheckpointSnapshot worked without a WAL")
	}

	dir := t.TempDir()
	me2, w2 := walEngine(t, dir, db)
	defer w2.Close()
	defer me2.Close()
	if _, err := me2.Insert(distperm.Vector{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	st := me2.WALStats()
	if !st.Enabled || st.AppendedRecords != 1 || st.Seq != 1 || st.Dir != dir || st.Sync != "never" {
		t.Fatalf("engine wal stats: %+v", st)
	}
}

// TestWALRefusesUncheckpointableStore: a checkpoint serialises the store in
// the compact DPERMIDX form, which caps a distperm index at 20 sites. A store
// over the cap — served now, nested in shards, or only promised by the
// rebuild spec — could never checkpoint and its log would never be
// truncated, so MutableConfig.WAL refuses it up front, with the encoder's
// own error.
func TestWALRefusesUncheckpointableStore(t *testing.T) {
	db := mustDB(t, 25, 60)
	w, err := distperm.OpenWAL(t.TempDir(), distperm.WALOptions{Sync: distperm.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "k=24 sites (format limit 20)") {
			t.Errorf("%s: %v, want the format limit", what, err)
		}
	}
	wide := distperm.Spec{Index: "distperm", K: 24, Seed: 3}
	narrow := distperm.Spec{Index: "distperm", K: 12, Seed: 3}

	_, err = distperm.NewMutableEngine(db, distperm.MutableConfig{Spec: wide, WAL: w})
	refused("MutableConfig.WAL over k=24", err)

	sx, err := distperm.BuildSharded(db, wide, 2, distperm.RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = distperm.WrapMutable(db, sx, distperm.MutableConfig{Spec: narrow, WAL: w})
	refused("MutableConfig.WAL over k=24 shards", err)

	idx, err := distperm.Build(db, narrow)
	if err != nil {
		t.Fatal(err)
	}
	_, err = distperm.WrapMutable(db, idx, distperm.MutableConfig{Spec: wide, WAL: w})
	refused("MutableConfig.WAL with a k=24 rebuild spec", err)

	ok, err := distperm.NewMutableEngine(db, distperm.MutableConfig{Spec: narrow, WAL: w})
	if err != nil {
		t.Fatalf("MutableConfig.WAL over k=12: %v", err)
	}
	ok.Close()
}
