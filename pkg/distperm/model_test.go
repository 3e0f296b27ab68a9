package distperm

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"distperm/internal/counting"
	"distperm/internal/sisap"
)

// The model-checked store, first slice: seeded histories of writes, queries
// of every form, forced rebuilds and save/load round trips run against the
// engines and against a model that is a map and a scan; after every step the
// answers must agree to the bit. Every round trip also serves the container
// it read back through a plain Engine, read-only, under every query form. The unsharded distperm legs also freeze the
// store in mid-history, map the file back with no database and go on over the
// mapping — a PFR4 container, whose points lie cell by cell — so the plain
// engine reads it under every query form and the mutable one lays tombstones,
// a delta and gids over it and rebuilds out of it. Every writable history
// logs to a WAL, writes a checkpoint at a seeded step, writes on, and crashes
// at a later one: the engine is dropped with its log unflushed — in a third of
// the histories the log is also cut at a seeded byte inside the records past
// the checkpoint — and the store boots the one way a daemon's does, through
// Open: the checkpoint's snapshot wrapped with the log attached, then the
// log's tail replayed. The restarted store must be the model as of the last
// whole record before the cut, under every query form, before the history
// goes on against it. The distperm
// legs steer every segment across boundMinFill and hold the paper's count as
// an invariant of every rebuilt table; two shorter legs rebuild into a
// VP-tree and into LAESA, so those kinds' traversals run under the tombstone
// skip, delta merge and the save/load round trip too. A mutable store's walk
// skips its tombstones and prunes at the k-th live distance;
// TestModelCheckedTombstones holds that where it is hardest: more tombstones
// near a query than k, and a segment with fewer than k live points.

// model is the oracle: the live points by global ID, and a scan of them
// sorted by (distance, ID).
type model map[int]Point

func (m model) scan(q Point) []Result {
	out := make([]Result, 0, len(m))
	for gid, p := range m {
		out = append(out, Result{ID: gid, Distance: L2.Distance(q, p)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// modelStore is what a history needs of the engine under test.
type modelStore interface {
	Search(qs []Point, q Query) ([][]Result, []ApproxStats, error)
	Stats() EngineStats
	ApproxBuckets() int
	Close()
}

const (
	modelSites = 3 // in the plane: three buckets a segment, bounds from 3 × boundMinFill points up
	modelFlip  = 3 * 32
	modelSwing = 8
	modelSteps = 240
)

// modelRun is one history: the store, the model beside it, and where the
// history is steering the store's size.
type modelRun struct {
	t    *testing.T
	name string
	seed int64
	step int
	op   string
	rng  *rand.Rand

	eng  modelStore
	mut  *Engine       // eng when it takes writes, else nil
	px   *PermIndex    // what a plain engine serves, when that has a frozen form
	maps int           // times the history went on over a mapped file
	cfg  MutableConfig // cfg.WAL logs a writable history's writes until it restarts
	live model
	ids  []int // the live IDs, in a history-determined order
	dead []int
	next int
	// walDir holds that log; the history checkpoints it at step ckptAt and
	// crashes at step crashAt, drawn from crash, which also draws where a
	// tearing history (tear) cuts the log. marks holds, from the checkpoint
	// to the crash, the log's length and the model after each logged write.
	walDir          string
	ckptAt, crashAt int
	crash           *rand.Rand
	tear            bool
	tears           int
	marks           []modelMark
	// focus, when set, is asked about as often as all other queries together.
	focus Point

	// flip is the store size at which a rebuilt segment crosses boundMinFill;
	// grow says which way the writes lean. walked holds, per segment, whether
	// the last rebuilt view carried bounds; ups and downs count the flips.
	flip, ups, downs int
	grow             bool
	walked           []bool
}

// modelMark is the model as of one logged write: the bytes the log had
// appended and its sequence then.
type modelMark struct {
	bytes int64
	seq   uint64
	live  model
	ids   []int
	dead  []int
	next  int
}

// mark notes the log and the model after a write, between the checkpoint and
// the crash.
func (r *modelRun) mark() {
	if r.marks != nil {
		ws := r.mut.WALStats()
		r.marks = append(r.marks, modelMark{ws.AppendedBytes, ws.Seq, maps.Clone(r.live), slices.Clone(r.ids), slices.Clone(r.dead), r.next})
	}
}

func (r *modelRun) failf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("%s seed %d step %d (%s): %s", r.name, r.seed, r.step, r.op, fmt.Sprintf(format, args...))
}

func (r *modelRun) point() Point { return Vector{r.rng.Float64(), r.rng.Float64()} }

// query draws a query point: a fresh one, or a live point itself — with
// duplicates in the store that is a tie at distance zero.
func (r *modelRun) query() Point {
	if r.focus != nil && r.rng.Intn(2) == 0 {
		return r.focus
	}
	if r.rng.Intn(2) == 0 {
		return r.point()
	}
	return r.live[r.ids[r.rng.Intn(len(r.ids))]]
}

// check compares one answer with the model's: IDs and distance bits.
func (r *modelRun) check(got, want []Result) {
	r.t.Helper()
	if len(got) != len(want) {
		r.failf("%d results, model has %d\n got  %v\n want %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
			r.failf("result %d is %+v, model has %+v\n got  %v\n want %v", i, got[i], want[i], got, want)
		}
	}
}

func (r *modelRun) search(qs []Point, q Query) ([][]Result, []ApproxStats) {
	r.t.Helper()
	outs, sts, err := r.eng.Search(qs, q)
	if err != nil {
		r.failf("Search(%+v): %v", q, err)
	}
	return outs, sts
}

// ask runs a random query form against store and model.
func (r *modelRun) ask() {
	k := 1 + r.rng.Intn(min(8, len(r.live)))
	r.askForm(r.rng.Intn(4), k)
}

// askForm runs query form 0 (kNN), 1 (batched kNN), 2 (range at the 5th
// neighbour's distance) or 3 (approximate at full coverage) for k against
// store and model.
func (r *modelRun) askForm(form, k int) {
	switch form {
	case 0:
		r.op = fmt.Sprintf("kNN k=%d", k)
		q := r.query()
		outs, _ := r.search([]Point{q}, Query{K: k})
		r.check(outs[0], r.live.scan(q)[:k])
	case 1:
		r.op = fmt.Sprintf("batch kNN k=%d", k)
		qs := []Point{r.query(), r.query(), r.query()}
		st0 := r.eng.Stats()
		outs, _ := r.search(qs, Query{K: k})
		st1 := r.eng.Stats()
		for i, q := range qs {
			r.check(outs[i], r.live.scan(q)[:k])
			single, _ := r.search([]Point{q}, Query{K: k})
			r.check(single[0], outs[i])
		}
		// A batch is its queries' walks: asked singly they measure and prune
		// exactly what the batch did.
		st2 := r.eng.Stats()
		if st1.DistanceEvals-st0.DistanceEvals != st2.DistanceEvals-st1.DistanceEvals ||
			st1.PrunedEvals-st0.PrunedEvals != st2.PrunedEvals-st1.PrunedEvals {
			r.failf("the batch cost %d evals + %d pruned, its queries asked singly %d + %d",
				st1.DistanceEvals-st0.DistanceEvals, st1.PrunedEvals-st0.PrunedEvals,
				st2.DistanceEvals-st1.DistanceEvals, st2.PrunedEvals-st1.PrunedEvals)
		}
	case 2:
		q := r.query()
		all := r.live.scan(q)
		radius := all[min(5, len(all))-1].Distance
		r.op = fmt.Sprintf("range r=%g", radius)
		n := sort.Search(len(all), func(i int) bool { return all[i].Distance > radius })
		outs, _ := r.search([]Point{q}, Query{Radius: radius})
		r.check(outs[0], all[:n])
	case 3:
		r.op = fmt.Sprintf("approx k=%d at full coverage", k)
		q := r.query()
		if r.cfg.Spec.Index != "distperm" {
			if _, _, err := r.eng.Search([]Point{q}, Query{K: k, Approx: true}); !errors.Is(err, ErrNoApprox) {
				r.failf("approximate search over %s: %v, want ErrNoApprox", r.cfg.Spec.Index, err)
			}
			return
		}
		outs, sts := r.search([]Point{q}, Query{K: k, Approx: true, NProbe: r.eng.ApproxBuckets()})
		if !sts[0].Exact {
			r.failf("nprobe = ApproxBuckets() = %d did not cover the directory: %+v", r.eng.ApproxBuckets(), sts[0])
		}
		r.check(outs[0], r.live.scan(q)[:k])
	}
}

func (r *modelRun) insert() {
	p := r.point()
	r.op = "insert"
	if r.rng.Intn(4) == 0 {
		p, r.op = r.live[r.ids[r.rng.Intn(len(r.ids))]], "insert duplicate"
	}
	gid, err := r.mut.Insert(p)
	if err != nil || gid != r.next {
		r.failf("Insert = %d, %v; want id %d", gid, err, r.next)
	}
	r.live[gid], r.ids, r.next = p, append(r.ids, gid), r.next+1
	r.mark()
}

// kill deletes the live ID r.ids[i].
func (r *modelRun) kill(i int) {
	gid := r.ids[i]
	r.op = fmt.Sprintf("delete %d", gid)
	if err := r.mut.Delete(gid); err != nil {
		r.failf("Delete of a live id: %v", err)
	}
	delete(r.live, gid)
	r.ids[i] = r.ids[len(r.ids)-1]
	r.ids, r.dead = r.ids[:len(r.ids)-1], append(r.dead, gid)
	r.mark()
}

// remove deletes a live ID, or checks that a dead or never-issued one is
// refused with ErrUnknownID.
func (r *modelRun) remove() {
	switch what := r.rng.Intn(10); {
	case what < 7 && len(r.ids) > modelSites+8:
		r.kill(r.rng.Intn(len(r.ids)))
	case what < 9 && len(r.dead) > 0:
		gid := r.dead[r.rng.Intn(len(r.dead))]
		r.op = fmt.Sprintf("delete dead %d", gid)
		if err := r.mut.Delete(gid); !errors.Is(err, ErrUnknownID) {
			r.failf("Delete of a dead id: %v, want ErrUnknownID", err)
		}
	default:
		gid := []int{-1, r.next, r.next + 5}[r.rng.Intn(3)]
		r.op = fmt.Sprintf("delete never-issued %d", gid)
		if err := r.mut.Delete(gid); !errors.Is(err, ErrUnknownID) {
			r.failf("Delete of an id never issued: %v, want ErrUnknownID", err)
		}
	}
}

// rebuild folds the pending writes and, of a distperm store, notes which
// segments of the new view carry bounds, counting the flips against the view
// before it — and holds every segment's table to the paper's count: k sites
// in the Euclidean plane order the points in at most N_{2,2}(k) ways.
func (r *modelRun) rebuild() {
	r.op = "rebuild"
	if err := r.mut.Rebuild(); err != nil {
		r.failf("%v", err)
	}
	if r.cfg.Spec.Index != "distperm" {
		return
	}
	segs := r.mut.cur.Load().view.segs
	walked := make([]bool, len(segs))
	for s, seg := range segs {
		px := seg.idx.(*sisap.PermIndex)
		if got, bound := px.DistinctPermutations(), counting.EuclideanCount64(2, modelSites); int64(got) > bound {
			r.failf("segment %d holds %d distinct permutations, over N_{2,2}(%d) = %d", s, got, modelSites, bound)
		}
		_, walked[s] = lazyBuilt(px)
		if len(r.walked) == len(walked) && walked[s] != r.walked[s] {
			if walked[s] {
				r.ups++
			} else {
				r.downs++
			}
		}
	}
	r.walked = walked
}

// reload saves the store, reads it back, serves what it read read-only
// through a plain Engine — every query form, against the model — and goes on
// with the resumed engine.
func (r *modelRun) reload() {
	r.op = "snapshot → write → read → resume"
	mi := r.mut.Snapshot()
	var buf bytes.Buffer
	if _, err := WriteIndex(&buf, mi); err != nil {
		r.failf("WriteIndex: %v", err)
	}
	full := mi.DB()
	back, err := ReadIndex(&buf, full)
	if err != nil {
		r.failf("ReadIndex: %v", err)
	}
	ro, err := NewEngine(full, back, 2)
	if err != nil {
		r.failf("NewEngine: %v", err)
	}
	// The read-only queries draw from a stream of their own, so the history
	// goes on as it would without them.
	eng, rng, name := r.eng, r.rng, r.name
	r.eng, r.rng, r.name = ro, rand.New(rand.NewSource(r.seed<<16|int64(r.step))), name+" (read back, read-only)"
	for form := range 4 {
		r.askForm(form, 1+r.rng.Intn(min(8, len(r.live))))
	}
	r.eng, r.rng, r.name, r.op = eng, rng, name, "snapshot → write → read → resume"
	ro.Close()
	resumed, err := WrapMutable(nil, back, r.cfg)
	if err != nil {
		r.failf("WrapMutable: %v", err)
	}
	// The resumed base is the saved one bit for bit: whether its segments
	// qualify for bounds (walked) is unchanged, only not yet computed.
	r.mut.Close()
	r.eng, r.mut = resumed, resumed
	if got := resumed.Snapshot().NextGID(); got != r.next {
		r.failf("resumed store issues id %d next, model %d", got, r.next)
	}
}

// openWAL opens the history's log and closes it when the test ends — after a
// crash, too, since a crash leaves it open.
func (r *modelRun) openWAL() *WAL {
	w, err := OpenWAL(r.walDir, WALOptions{Sync: SyncNever})
	if err != nil {
		r.failf("OpenWAL: %v", err)
	}
	r.t.Cleanup(func() { w.Close() })
	return w
}

// checkpoint writes the store and the log sequence it covers to the log.
func (r *modelRun) checkpoint() {
	r.op = "checkpoint"
	snap, seq, err := r.mut.CheckpointSnapshot()
	if err == nil {
		err = r.cfg.WAL.WriteCheckpoint(snap, seq)
	}
	if err != nil {
		r.failf("%v", err)
	}
	r.marks = []modelMark{}
	r.mark()
}

// restart crashes the store — the engine closed, its log neither flushed nor
// closed — and, in a tearing history, cuts the log's active segment at a
// seeded byte inside the records past the checkpoint, rolling the model back
// to the last whole record before the cut. The store then boots through
// Open, from the checkpoint and the log, and must answer as the model does
// under every query form and issue the model's next id.
func (r *modelRun) restart() {
	r.op = "crash → Open"
	r.mut.Close()
	first, want := r.marks[0], r.marks[len(r.marks)-1]
	var torn int64
	if end := want.bytes; r.tear && end > first.bytes {
		cut := first.bytes + r.crash.Int63n(end-first.bytes)
		segs, err := filepath.Glob(filepath.Join(r.walDir, "wal-*.seg"))
		if err != nil || len(segs) == 0 {
			r.failf("no log segment (%v)", err)
		}
		fi, err := os.Stat(segs[len(segs)-1])
		if err == nil {
			err = os.Truncate(segs[len(segs)-1], fi.Size()-(end-cut))
		}
		if err != nil {
			r.failf("cutting the log: %v", err)
		}
		want = r.marks[sort.Search(len(r.marks), func(i int) bool { return r.marks[i].bytes > cut })-1]
		torn = cut - want.bytes
		r.live, r.ids, r.dead, r.next = want.live, want.ids, want.dead, want.next
		r.op, r.tears = fmt.Sprintf("crash, log cut %d bytes short → Open", end-cut), r.tears+1
	}
	e, err := Open(OpenConfig{
		Dataset: func(*rand.Rand) (*DB, string, error) {
			return nil, "", errors.New("a restart with a checkpoint read the dataset")
		},
		Seed: r.seed, Partition: "roundrobin", WALDir: r.walDir, WAL: WALOptions{Sync: SyncNever},
	})
	if err != nil {
		r.failf("Open: %v", err)
	}
	// The restarted engine owns its log; the history's later writes go
	// unlogged.
	r.eng, r.mut, r.cfg.WAL, r.marks = e, e, nil, nil
	replayed := fmt.Sprintf("replayed %d records, skipped 0", want.seq-first.seq)
	if ws := e.WALStats(); ws.Seq != want.seq || ws.TornBytesTruncated != torn || !strings.Contains(e.Source(), replayed) {
		r.failf("booted %q at seq %d, %d torn bytes truncated; want %s, seq %d, %d torn", e.Source(), ws.Seq, ws.TornBytesTruncated, replayed, want.seq, torn)
	}
	if got := e.Snapshot().NextGID(); got != r.next {
		r.failf("restarted store issues id %d next, model %d", got, r.next)
	}
	for form := range 4 {
		r.askForm(form, 1+r.rng.Intn(min(8, len(r.live))))
	}
}

// mapped freezes px and maps the file back with no database: the store a
// restarted daemon serves. It stays mapped until the test ends, after every
// engine of the history has closed.
func (r *modelRun) mapped(px *PermIndex) *Store {
	var buf bytes.Buffer
	if _, err := WriteFrozenIndex(&buf, px); err != nil {
		r.failf("WriteFrozenIndex: %v", err)
	}
	path := filepath.Join(r.t.TempDir(), "store.frozen")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		r.failf("%v", err)
	}
	st, err := Load(path, LoadOptions{Mmap: true})
	if err != nil {
		r.failf("Load: %v", err)
	}
	r.t.Cleanup(func() { st.Close() })
	r.maps++
	return st
}

// refreeze puts a plain engine's store through a frozen file and goes on with
// an engine over the mapping, once both have answered every query form alike:
// single and batched kNN, range at the 5th neighbour's distance, approximate
// at full coverage and at one probe — results to the bit, and the probe
// accounting with them.
func (r *modelRun) refreeze() {
	r.op = "freeze → Load(mmap) → NewEngine"
	st := r.mapped(r.px)
	fresh, err := NewEngine(st.DB, st.Index, 2)
	if err != nil {
		r.failf("NewEngine: %v", err)
	}
	k := 1 + r.rng.Intn(8)
	qs := []Point{r.query(), r.query(), r.query()}
	all := r.live.scan(qs[0])
	for _, c := range []struct {
		qs []Point
		q  Query
	}{{qs[:1], Query{K: k}}, {qs, Query{K: k}}, {qs[:1], Query{Radius: all[4].Distance}},
		{qs, Query{K: k, Approx: true, NProbe: r.eng.ApproxBuckets()}}, {qs, Query{K: k, Approx: true, NProbe: 1}}} {
		r.op = fmt.Sprintf("freeze → Load(mmap) → NewEngine, then %+v", c.q)
		want, wantSt := r.search(c.qs, c.q)
		got, gotSt, err := fresh.Search(c.qs, c.q)
		if err != nil {
			r.failf("Search over the mapped store: %v", err)
		}
		for i := range want {
			r.check(got[i], want[i])
			if c.q.Approx && gotSt[i] != wantSt[i] {
				r.failf("query %d: the mapped store reports %+v, the store it was frozen from %+v", i, gotSt[i], wantSt[i])
			}
		}
	}
	r.eng.Close()
	r.eng, r.px = fresh, st.Index.(*PermIndex)
}

// thaw folds the pending writes into the base, freezes it, and resumes the
// store over the mapped file: until the next rebuild, what lies under the
// tombstones, the delta merge and the gids is the container's bucket-major
// points section, and the rebuild that ends it reads its points out of the
// mapping. An insert and a delete follow at once, so no history leaves the
// mapped base unwritten.
func (r *modelRun) thaw() {
	r.rebuild()
	r.op = "freeze base → Load(mmap) → resume"
	s := r.mut.cur.Load()
	st := r.mapped(s.view.idx.(*PermIndex))
	mi, err := sisap.NewMutableIndex(st.DB, st.DB.N(), st.Index, s.mi.GIDs(), nil, r.next)
	if err != nil {
		r.failf("NewMutableIndex: %v", err)
	}
	resumed, err := WrapMutable(nil, mi, r.cfg)
	if err != nil {
		r.failf("WrapMutable: %v", err)
	}
	r.mut.Close()
	r.eng, r.mut = resumed, resumed
	r.ask()
	r.insert()
	r.ask()
	r.remove()
}

// run plays the history: writes lean towards growth until the store is
// modelSwing points past flip, then towards shrinking until it is as far
// below, and every turn forces a rebuild so the crossing is observed.
func (r *modelRun) run() {
	defer func() { r.eng.Close() }()
	for r.step = 1; r.step <= modelSteps; r.step++ {
		if r.mut != nil && r.step == r.ckptAt {
			r.checkpoint()
		}
		if r.mut != nil && r.step == r.crashAt {
			r.restart()
		}
		x := r.rng.Float64()
		switch {
		case r.mut == nil && r.px != nil && x < 0.04:
			r.refreeze()
		case r.mut == nil || x < 0.42:
			r.ask()
		case x < 0.46:
			r.rebuild()
		case x < 0.48:
			r.reload()
		case x < 0.50 && r.cfg.Shards <= 1 && r.cfg.Spec.Index == "distperm":
			r.thaw()
		case (x < 0.90) == r.grow: // four writes in five go the way the history leans
			r.insert()
		default:
			r.remove()
		}
		if n := len(r.live); r.mut != nil && ((r.grow && n >= r.flip+modelSwing) || (!r.grow && n <= r.flip-modelSwing)) {
			r.grow = !r.grow
			r.rebuild()
		}
		r.ask() // after every step, whatever it was
	}
}

// newModelRun starts a history over n random points: a MutableEngine when
// mutable, else a plain Engine, over spec built whole or, with shards > 1,
// into that many RoundRobin shards (point g in shard g mod shards).
func newModelRun(t *testing.T, name string, seed int64, spec Spec, shards int, mutable bool, n int) *modelRun {
	r := &modelRun{t: t, name: name, seed: seed, rng: rand.New(rand.NewSource(seed)), live: model{}}
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = r.point()
		r.live[i], r.ids = pts[i], append(r.ids, i)
	}
	r.next = n
	db, err := NewDB(L2, pts)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = seed
	r.cfg = MutableConfig{Spec: spec}
	if shards > 1 {
		r.cfg.Shards, r.cfg.Partitioner = shards, RoundRobin{}
	}
	idx, err := buildForConfig(db, r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mutable {
		// The crash steps come from a stream of their own, so the history is
		// the one it would be without them.
		r.crash = rand.New(rand.NewSource(^seed))
		r.ckptAt = 1 + r.crash.Intn(modelSteps/2)
		r.crashAt = r.ckptAt + 1 + r.crash.Intn(modelSteps/3)
		r.tear = seed%3 == 1
		r.walDir = t.TempDir()
		r.cfg.WAL = r.openWAL()
		r.mut, err = WrapMutable(db, idx, r.cfg)
		r.eng = r.mut
	} else {
		r.eng, err = NewEngine(db, idx, 2)
		r.px, _ = idx.(*PermIndex)
	}
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestModelCheckedStore runs the histories over the four distperm
// compositions, and a third as many over the two other kinds. A failure
// prints the composition, seed and step; the history is a function of the
// seed alone.
func TestModelCheckedStore(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for _, c := range []struct {
		name    string
		kind    string
		shards  int
		mutable bool
	}{{"engine", "distperm", 1, false}, {"engine/4-shard", "distperm", 4, false},
		{"mutable", "distperm", 1, true}, {"mutable/4-shard", "distperm", 4, true},
		{"mutable/vptree", "vptree", 1, true}, {"mutable/4-shard/laesa", "laesa", 4, true}} {
		spec := Spec{Index: c.kind, K: modelSites}
		seeds := seeds
		if c.kind != "distperm" {
			seeds = (seeds + 2) / 3
		}
		ups, downs, maps, tears := 0, 0, 0, 0
		for seed := int64(1); seed <= int64(seeds); seed++ {
			// Odd seeds start below the flip and grow, even ones above it.
			grow := seed%2 == 1
			n := modelFlip*c.shards - modelSwing/2
			if !grow {
				n += modelSwing
			}
			r := newModelRun(t, c.name, seed, spec, c.shards, c.mutable, n)
			r.flip, r.grow = modelFlip*c.shards, grow
			r.run()
			ups, downs, maps, tears = ups+r.ups, downs+r.downs, maps+r.maps, tears+r.tears
		}
		if c.mutable && tears == 0 {
			t.Errorf("%s: no history cut its log before restarting", c.name)
		}
		if freezes := c.kind == "distperm" && c.shards == 1; freezes != (maps > 0) {
			t.Errorf("%s: %d histories went over a mapped file %d times", c.name, seeds, maps)
		}
		if !c.mutable || c.kind != "distperm" {
			continue
		}
		t.Logf("%s: %d seeds × %d steps, segments flipped scan → walk %d times, walk → scan %d", c.name, seeds, modelSteps, ups, downs)
		if ups == 0 || downs == 0 {
			t.Errorf("%s: %d segments flipped from scan to walk and %d back over %d seeds; the histories must cross boundMinFill both ways", c.name, ups, downs, seeds)
		}
	}
}

// TestModelCheckedTombstones piles up, with no rebuild to fold them away, the
// tombstones a walk has to skip without losing an answer: first the points of
// segment 0 nearest a query asked about throughout, more of them than the
// largest k asked, then every other point segment 0 holds, so it answers with
// fewer than k live points, or none. Every query form is checked after each
// delete; a rebuild and a fresh insert end the history.
func TestModelCheckedTombstones(t *testing.T) {
	for _, c := range []struct {
		name   string
		kind   string
		shards int
	}{{"mutable", "distperm", 1}, {"mutable/4-shard", "distperm", 4}, {"mutable/4-shard/laesa", "laesa", 4}} {
		for seed := int64(1); seed <= 2; seed++ {
			r := newModelRun(t, c.name, seed, Spec{Index: c.kind, K: modelSites}, c.shards, true, 2*modelFlip*c.shards)
			func() {
				defer r.eng.Close()
				if c.shards == 1 {
					// Segment 0 is the whole base: the delta keeps the store answering.
					for range 8 {
						r.insert()
					}
				}
				r.focus = r.point()
				seg0 := func(gid int) bool { return gid%c.shards == 0 && gid < 2*modelFlip*c.shards }
				near := 0
				for _, res := range r.live.scan(r.focus) {
					if seg0(res.ID) && near <= 2*8 {
						r.kill(slices.Index(r.ids, res.ID))
						r.ask()
						near++
					}
				}
				for i := len(r.ids) - 1; i >= 0; i-- {
					if seg0(r.ids[i]) {
						r.kill(i)
						r.ask()
					}
				}
				if got, want := r.mut.MutationStats().Tombstones, 2*modelFlip; got != want {
					r.failf("%d tombstones pending, want segment 0's %d points", got, want)
				}
				for range 8 {
					r.ask()
				}
				r.rebuild()
				r.insert()
				for range 8 {
					r.ask()
				}
			}()
		}
	}
}
