package distperm_test

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distperm/internal/dataset"
	"distperm/pkg/distperm"
)

// mutModel is the trusted mirror of a MutableEngine's logical point set:
// live (gid, point) pairs in ascending gid order.
type mutModel struct {
	gids []int
	pts  []distperm.Point
}

func newMutModel(pts []distperm.Point) *mutModel {
	m := &mutModel{pts: append([]distperm.Point(nil), pts...)}
	m.gids = make([]int, len(pts))
	for i := range m.gids {
		m.gids[i] = i
	}
	return m
}

func (m *mutModel) insert(gid int, p distperm.Point) {
	m.gids = append(m.gids, gid)
	m.pts = append(m.pts, p)
}

func (m *mutModel) delete(gid int) bool {
	for i, g := range m.gids {
		if g == gid {
			m.gids = append(m.gids[:i], m.gids[i+1:]...)
			m.pts = append(m.pts[:i], m.pts[i+1:]...)
			return true
		}
	}
	return false
}

func (m *mutModel) randomLive(rng *rand.Rand) int { return m.gids[rng.Intn(len(m.gids))] }

// batchBackend is the query surface shared by MutableEngine and a plain
// Engine serving a loaded snapshot.
type batchBackend interface {
	KNNBatch(qs []distperm.Point, k int) ([][]distperm.Result, error)
	Search(qs []distperm.Point, q distperm.Query) ([][]distperm.Result, []distperm.ApproxStats, error)
}

// checkEquivalence compares backend answers against a from-scratch
// LinearScan over the model's logical point set (ordered by gid, so
// tie-breaking agrees), for a handful of probes.
func checkEquivalence(t *testing.T, label string, backend batchBackend, m *mutModel, probes []distperm.Point, k int, radius float64) {
	t.Helper()
	db, err := distperm.NewDB(distperm.L2, m.pts)
	if err != nil {
		t.Fatalf("%s: reference db: %v", label, err)
	}
	ref, err := distperm.Build(db, distperm.Spec{Index: "linear"})
	if err != nil {
		t.Fatal(err)
	}
	if k > len(m.gids) {
		k = len(m.gids)
	}
	gotK, err := backend.KNNBatch(probes, k)
	if err != nil {
		t.Fatalf("%s: KNNBatch: %v", label, err)
	}
	gotR, _, err := backend.Search(probes, distperm.Query{Radius: radius})
	if err != nil {
		t.Fatalf("%s: range Search: %v", label, err)
	}
	for i, q := range probes {
		wantK, _ := ref.KNN(q, k)
		for j := range wantK {
			wantK[j].ID = m.gids[wantK[j].ID]
		}
		if !sameResultSlices(gotK[i], wantK) {
			t.Fatalf("%s: probe %d kNN = %v, want %v", label, i, gotK[i], wantK)
		}
		wantR, _ := ref.Range(q, radius)
		for j := range wantR {
			wantR[j].ID = m.gids[wantR[j].ID]
		}
		if !sameResultSlices(gotR[i], wantR) {
			t.Fatalf("%s: probe %d range = %v, want %v", label, i, gotR[i], wantR)
		}
	}
}

func sameResultSlices(a, b []distperm.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runMutationEquivalence is the shared acceptance loop: random interleaved
// inserts/deletes with an equivalence check against the from-scratch
// rebuild after every step, a forced fold mid-way and at the end, and a
// save/load round trip (the DPERMIDX "mutable" container) checked both
// resumed as a MutableEngine and served read-only by a plain Engine.
func runMutationEquivalence(t *testing.T, cfg distperm.MutableConfig, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	pts := dataset.UniformVectors(rng, 200, 3)
	db, err := distperm.NewDB(distperm.L2, pts)
	if err != nil {
		t.Fatal(err)
	}
	me, err := distperm.NewMutableEngine(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer me.Close()
	model := newMutModel(pts)
	probes := dataset.UniformVectors(rng, 8, 3)

	for step := 0; step < 120; step++ {
		switch {
		case rng.Intn(10) < 6 || len(model.gids) < 5:
			p := dataset.UniformVectors(rng, 1, 3)[0]
			gid, err := me.Insert(p)
			if err != nil {
				t.Fatalf("step %d: insert: %v", step, err)
			}
			model.insert(gid, p)
		default:
			gid := model.randomLive(rng)
			if err := me.Delete(gid); err != nil {
				t.Fatalf("step %d: delete %d: %v", step, gid, err)
			}
			if !model.delete(gid) {
				t.Fatalf("step %d: model had no %d", step, gid)
			}
		}
		if step%10 == 0 {
			checkEquivalence(t, "mid-write", me, model, probes, 5, 0.5)
		}
		if step == 60 {
			if err := me.Rebuild(); err != nil {
				t.Fatalf("mid-way rebuild: %v", err)
			}
			checkEquivalence(t, "post-rebuild", me, model, probes, 5, 0.5)
		}
	}
	checkEquivalence(t, "final", me, model, probes, 5, 0.5)
	if err := me.Rebuild(); err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, "final folded", me, model, probes, 5, 0.5)
	if ms := me.MutationStats(); ms.Rebuilds < 2 || ms.Inserts == 0 || ms.Deletes == 0 || ms.LiveN != len(model.gids) {
		t.Fatalf("implausible mutation stats %+v (model %d live)", ms, len(model.gids))
	}

	// Save, load, and resume: answers must survive the round trip.
	if _, err := me.Insert(probes[0]); err != nil { // leave a pending delta in the snapshot
		t.Fatal(err)
	}
	model.insert(me.MutationStats().NextID-1, probes[0])
	snap := me.Snapshot()
	var buf bytes.Buffer
	if _, err := distperm.WriteIndex(&buf, snap); err != nil {
		t.Fatal(err)
	}
	back, err := distperm.ReadIndex(bytes.NewReader(buf.Bytes()), snap.DB())
	if err != nil {
		t.Fatal(err)
	}
	mi, ok := back.(*distperm.MutableIndex)
	if !ok {
		t.Fatalf("loaded %T, want *MutableIndex", back)
	}
	resumed, err := distperm.WrapMutable(nil, mi, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	checkEquivalence(t, "resumed", resumed, model, probes, 5, 0.5)
	// Mutation continues where the store left off: fresh IDs, no clashes.
	p := dataset.UniformVectors(rng, 1, 3)[0]
	gid, err := resumed.Insert(p)
	if err != nil {
		t.Fatal(err)
	}
	if gid != snap.NextGID() {
		t.Fatalf("resumed insert took id %d, want %d", gid, snap.NextGID())
	}
	model.insert(gid, p)
	checkEquivalence(t, "resumed+write", resumed, model, probes, 5, 0.5)
	model.delete(gid)

	// The same container serves read-only through a plain Engine.
	ro, err := distperm.NewEngine(mi.DB(), mi, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	checkEquivalence(t, "read-only", ro, model, probes, 5, 0.5)
}

// TestMutableEngineEquivalence: interleaved writes and queries on an
// unsharded MutableEngine always answer like a from-scratch rebuild.
func TestMutableEngineEquivalence(t *testing.T) {
	runMutationEquivalence(t, distperm.MutableConfig{
		Spec: distperm.Spec{Index: "distperm", K: 6, Seed: 31},
	}, 31)
}

// TestMutableShardedEquivalence: the same bar with writes routed through
// the Partitioner seam into a sharded scatter-gather base.
func TestMutableShardedEquivalence(t *testing.T) {
	runMutationEquivalence(t, distperm.MutableConfig{
		Spec:        distperm.Spec{Index: "distperm", K: 6, Seed: 33},
		Shards:      3,
		Partitioner: distperm.RoundRobin{},
	}, 33)
	me, err := distperm.NewMutableEngine(mustDB(t, 34, 60), distperm.MutableConfig{
		Spec: distperm.Spec{Index: "vptree", Seed: 34}, Shards: 2, Partitioner: distperm.HashPoint{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer me.Close()
	if _, err := me.Insert(distperm.Vector{0.1, 0.2, 0.3}); err != nil {
		t.Fatal(err)
	}
	ms := me.MutationStats()
	if len(ms.DeltaPerShard) != 2 || ms.DeltaPerShard[0]+ms.DeltaPerShard[1] != 1 {
		t.Fatalf("partitioner routing not visible: %+v", ms)
	}
}

func mustDB(t *testing.T, seed int64, n int) *distperm.DB {
	t.Helper()
	db, err := distperm.NewDB(distperm.L2, dataset.UniformVectors(rand.New(rand.NewSource(seed)), n, 3))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestMutableEngineConcurrent hammers a low-threshold MutableEngine with
// concurrent writers and readers, so background rebuild swaps happen under
// live traffic. Under -race this proves the RCU discipline: readers pin a
// snapshot, swapped-out engines drain before closing, and no answer is
// torn (well-formed, sorted, live-only). After the storm quiesces, answers
// must equal the from-scratch rebuild.
func TestMutableEngineConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	pts := dataset.UniformVectors(rng, 300, 3)
	db, err := distperm.NewDB(distperm.L2, pts)
	if err != nil {
		t.Fatal(err)
	}
	me, err := distperm.NewMutableEngine(db, distperm.MutableConfig{
		Spec:             distperm.Spec{Index: "distperm", K: 6, Seed: 51},
		RebuildThreshold: 24, // low: many swaps during the storm
	})
	if err != nil {
		t.Fatal(err)
	}
	defer me.Close()

	var mu sync.Mutex // guards model + rng
	model := newMutModel(pts)
	probes := dataset.UniformVectors(rng, 16, 3)

	// Each writer issues 150 writes, and the storm goes on until a
	// background rebuild has swapped under it (or the deadline passes): on a
	// busy box 600 writes can finish before the rebuilder is first scheduled.
	deadline := time.Now().Add(10 * time.Second)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150 || (me.MutationStats().Rebuilds == 0 && time.Now().Before(deadline)); i++ {
				mu.Lock()
				if rng.Intn(3) > 0 || len(model.gids) < 10 {
					p := dataset.UniformVectors(rng, 1, 3)[0]
					mu.Unlock()
					gid, err := me.Insert(p)
					if err != nil {
						t.Errorf("writer %d: insert: %v", w, err)
						return
					}
					mu.Lock()
					model.insert(gid, p)
					mu.Unlock()
				} else {
					gid := model.randomLive(rng)
					if !model.delete(gid) {
						mu.Unlock()
						t.Errorf("writer %d: model had no %d", w, gid)
						return
					}
					mu.Unlock()
					if err := me.Delete(gid); err != nil {
						t.Errorf("writer %d: delete %d: %v", w, gid, err)
						return
					}
				}
			}
		}(w)
	}
	readerStop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-readerStop:
					return
				default:
				}
				outs, err := me.KNNBatch(probes, 3)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				for _, rs := range outs {
					for j := 1; j < len(rs); j++ {
						a, b := rs[j-1], rs[j]
						if a.Distance > b.Distance || (a.Distance == b.Distance && a.ID >= b.ID) {
							t.Errorf("torn answer: %v", rs)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(readerStop)
	readers.Wait()

	if ms := me.MutationStats(); ms.Rebuilds == 0 {
		t.Fatalf("no background rebuild happened under load: %+v", ms)
	}
	checkEquivalence(t, "quiesced", me, model, probes, 5, 0.4)
	if err := me.Rebuild(); err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, "quiesced+folded", me, model, probes, 5, 0.4)
}

// TestMutableEngineRebuildRace hammers manual Rebuild calls against the
// background rebuilder while writers insert — rebuilds must serialise, or
// a stale-snapshot swap silently drops acknowledged inserts (every id the
// writers collected must still be answerable afterwards).
func TestMutableEngineRebuildRace(t *testing.T) {
	db := mustDB(t, 81, 100)
	me, err := distperm.NewMutableEngine(db, distperm.MutableConfig{
		Spec:             distperm.Spec{Index: "distperm", K: 5, Seed: 81},
		RebuildThreshold: 8, // constant background folding
	})
	if err != nil {
		t.Fatal(err)
	}
	defer me.Close()

	var mu sync.Mutex
	var inserted []int
	var writers, rebuilders sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(81 + w)))
			for i := 0; i < 100; i++ {
				gid, err := me.Insert(dataset.UniformVectors(rng, 1, 3)[0])
				if err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				mu.Lock()
				inserted = append(inserted, gid)
				mu.Unlock()
			}
		}(w)
	}
	rebuilders.Add(1)
	go func() {
		defer rebuilders.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := me.Rebuild(); err != nil {
				t.Errorf("manual rebuild: %v", err)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	rebuilders.Wait()

	// Every acknowledged insert must still be deletable — i.e. present in
	// the logical point set despite the rebuild storm.
	if got := me.LiveN(); got != 100+len(inserted) {
		t.Fatalf("LiveN = %d, want %d: inserts lost across racing rebuilds", got, 100+len(inserted))
	}
	for _, gid := range inserted {
		if err := me.Delete(gid); err != nil {
			t.Fatalf("insert %d vanished: %v", gid, err)
		}
	}
}

// TestMutableEngineCloseUnderTraffic: Close racing query batches must
// never panic (the acquire/Close WaitGroup barrier) — queries either
// answer or report the closed engine.
func TestMutableEngineCloseUnderTraffic(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		db := mustDB(t, int64(90+iter), 80)
		me, err := distperm.NewMutableEngine(db, distperm.MutableConfig{
			Spec: distperm.Spec{Index: "linear", Seed: int64(iter)},
		})
		if err != nil {
			t.Fatal(err)
		}
		probe := []distperm.Point{distperm.Vector{0.5, 0.5, 0.5}}
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if _, err := me.KNNBatch(probe, 2); err != nil {
						return // closed — accepted
					}
				}
			}()
		}
		me.Close()
		wg.Wait()
	}
}

// TestMutableEngineErrors: the write path's failure modes are errors with
// matchable sentinels, never panics.
func TestMutableEngineErrors(t *testing.T) {
	db := mustDB(t, 61, 50)
	me, err := distperm.NewMutableEngine(db, distperm.MutableConfig{
		Spec: distperm.Spec{Index: "distperm", K: 4, Seed: 61},
	})
	if err != nil {
		t.Fatal(err)
	}
	probe := []distperm.Point{distperm.Vector{0.5, 0.5, 0.5}}

	if _, err := me.KNNBatch(probe, 0); !errors.Is(err, distperm.ErrOutOfRange) {
		t.Errorf("k=0: %v", err)
	}
	if _, err := me.KNNBatch(probe, 51); !errors.Is(err, distperm.ErrOutOfRange) {
		t.Errorf("k>live: %v", err)
	}
	if _, _, err := me.Search(probe, distperm.Query{Radius: -1}); !errors.Is(err, distperm.ErrOutOfRange) {
		t.Errorf("negative radius: %v", err)
	}
	if err := me.Delete(999); !errors.Is(err, distperm.ErrUnknownID) {
		t.Errorf("unknown id: %v", err)
	}
	if err := me.Delete(7); err != nil {
		t.Fatal(err)
	}
	if err := me.Delete(7); !errors.Is(err, distperm.ErrUnknownID) {
		t.Errorf("double delete: %v", err)
	}
	gid, err := me.Insert(distperm.Vector{0.1, 0.1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := me.Delete(gid); err != nil {
		t.Fatalf("delete of delta point: %v", err)
	}
	if err := me.Delete(gid); !errors.Is(err, distperm.ErrUnknownID) {
		t.Errorf("deleted delta point: %v", err)
	}
	if _, err := me.Insert(distperm.Vector{0.1, 0.2}); err == nil {
		t.Error("wrong dimension should not insert")
	}
	if _, err := me.Insert(distperm.String("word")); err == nil {
		t.Error("wrong point type should not insert")
	}
	if _, err := me.Insert(distperm.Vector{0.1, math.NaN(), 0.1}); !errors.Is(err, distperm.ErrOutOfRange) {
		t.Errorf("NaN coordinate: %v", err)
	}
	// The k bound tracks the logical size, not the physical one.
	if _, err := me.KNNBatch(probe, 49); err != nil {
		t.Errorf("k=liveN: %v", err)
	}
	if _, err := me.KNNBatch(probe, 50); !errors.Is(err, distperm.ErrOutOfRange) {
		t.Errorf("k=liveN+1: %v", err)
	}
	if outs, err := me.KNNBatch(nil, 3); err != nil || len(outs) != 0 {
		t.Errorf("empty batch: %v, %v", outs, err)
	}

	me.Close()
	me.Close() // idempotent
	if _, err := me.Insert(distperm.Vector{0.1, 0.1, 0.1}); err == nil {
		t.Error("insert after Close should fail")
	}
	if err := me.Delete(1); err == nil {
		t.Error("delete after Close should fail")
	}
	if _, err := me.KNNBatch(probe, 1); err == nil {
		t.Error("query after Close should fail")
	}
	if err := me.Rebuild(); err == nil {
		t.Error("rebuild after Close should fail")
	}

	// Config validation.
	if _, err := distperm.NewMutableEngine(db, distperm.MutableConfig{
		Spec: distperm.Spec{Index: "distperm"}, Shards: 3,
	}); err == nil {
		t.Error("shards without partitioner should fail")
	}
	if _, err := distperm.NewMutableEngine(db, distperm.MutableConfig{
		Spec: distperm.Spec{Index: "bogus"},
	}); err == nil {
		t.Error("unknown kind should fail")
	}
	if _, err := distperm.NewMutableEngine(nil, distperm.MutableConfig{}); err == nil {
		t.Error("nil db should fail")
	}
}

// TestWrapMutable: any already-built index — including a sharded container —
// gains the write path, with rebuilds defaulting to the wrapped kind.
func TestWrapMutable(t *testing.T) {
	db := mustDB(t, 71, 90)
	sx, err := distperm.BuildSharded(db, distperm.Spec{Index: "vptree", Seed: 71}, 3, distperm.RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	me, err := distperm.WrapMutable(db, sx, distperm.MutableConfig{
		Shards: 3, Partitioner: distperm.RoundRobin{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer me.Close()
	if me.BaseKind() != "sharded" || me.Shards() != 3 {
		t.Fatalf("wrapped kind %s, %d shards", me.BaseKind(), me.Shards())
	}
	gid, err := me.Insert(distperm.Vector{2, 2, 2}) // far corner: nearest to itself
	if err != nil {
		t.Fatal(err)
	}
	outs, err := me.KNNBatch([]distperm.Point{distperm.Vector{2, 2, 2}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs[0]) != 1 || outs[0][0].ID != gid || outs[0][0].Distance != 0 {
		t.Fatalf("read-your-write failed: %v (want id %d)", outs[0], gid)
	}
	if err := me.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if me.BaseKind() != "sharded" || me.LiveN() != 91 {
		t.Fatalf("after fold: kind %s liveN %d", me.BaseKind(), me.LiveN())
	}
	outs, err = me.KNNBatch([]distperm.Point{distperm.Vector{2, 2, 2}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs[0]) != 1 || outs[0][0].ID != gid {
		t.Fatalf("id %d not stable across fold: %v", gid, outs[0])
	}
}

// TestMutableRebuildKeepsTableEncoding: the background fold rebuilds the
// distperm base with NewPermIndex, so over clustered data (the paper's
// distinct ≪ n regime) the folded base must carry a small
// distinct-permutation table, answers must stay equivalent to a
// from-scratch rebuild, and the table encoding must survive the snapshot
// container round trip.
func TestMutableRebuildKeepsTableEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	pts := dataset.ClusteredVectors(rng, 1_000, 3, 8, 0.03)
	db, err := distperm.NewDB(distperm.L2, pts)
	if err != nil {
		t.Fatal(err)
	}
	me, err := distperm.NewMutableEngine(db, distperm.MutableConfig{
		Spec: distperm.Spec{Index: "distperm", K: 6, Seed: 55},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer me.Close()
	model := newMutModel(pts)
	for _, p := range dataset.ClusteredVectors(rng, 64, 3, 8, 0.03) {
		gid, err := me.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		model.insert(gid, p)
	}
	if err := me.Rebuild(); err != nil {
		t.Fatal(err)
	}
	probes := dataset.UniformVectors(rng, 6, 3)
	checkEquivalence(t, "post-fold", me, model, probes, 4, 0.5)

	snap := me.Snapshot()
	base, ok := snap.Base().(*distperm.PermIndex)
	if !ok {
		t.Fatalf("folded base is %T, want *PermIndex", snap.Base())
	}
	if d := base.DistinctPermutations(); d >= snap.BaseN()/4 {
		t.Fatalf("clustered rebuild realised %d distinct permutations of %d base points; not the distinct ≪ n regime", d, snap.BaseN())
	}
	var buf bytes.Buffer
	if _, err := distperm.WriteIndex(&buf, snap); err != nil {
		t.Fatal(err)
	}
	back, err := distperm.ReadIndex(bytes.NewReader(buf.Bytes()), snap.DB())
	if err != nil {
		t.Fatal(err)
	}
	lbase := back.(*distperm.MutableIndex).Base().(*distperm.PermIndex)
	if lbase.DistinctPermutations() != base.DistinctPermutations() {
		t.Fatalf("distinct %d != %d after snapshot round trip",
			lbase.DistinctPermutations(), base.DistinctPermutations())
	}
}

// gateMetric wraps a metric so that the first Distance call after armed is
// set signals entered and parks until release is closed — a way to hold one
// query inside its walk, and so its view pinned, for exactly as long as a
// test wants.
type gateMetric struct {
	distperm.Metric
	armed   *atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g gateMetric) Distance(a, b distperm.Point) float64 {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return g.Metric.Distance(a, b)
}

// TestMutableEngineCountersMonotonicAcrossSwap pins that the engine
// counters never go backwards over a rebuild swap: while a reader still
// holds the superseded view, Stats must already include everything served
// over it; once everything has drained, the totals are old view + new view
// exactly — no gap, no double count.
func TestMutableEngineCountersMonotonicAcrossSwap(t *testing.T) {
	const n, sites, inserted = 400, 6, 5
	rng := rand.New(rand.NewSource(77))
	gate := gateMetric{
		Metric:  distperm.L2,
		armed:   new(atomic.Bool),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	db, err := distperm.NewDB(gate, dataset.UniformVectors(rng, n, 3))
	if err != nil {
		t.Fatal(err)
	}
	me, err := distperm.NewMutableEngine(db, distperm.MutableConfig{
		Spec: distperm.Spec{Index: "distperm", K: sites, Seed: 77},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer me.Close()
	for _, p := range dataset.UniformVectors(rng, inserted, 3) {
		if _, err := me.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := me.KNNBatch(dataset.UniformVectors(rng, 20, 3), 4); err != nil {
		t.Fatal(err)
	}
	before, beforeLat := me.Stats(), me.LatencySnapshot().Count
	if before.Queries != 20 || before.BatchedQueries != 20 || beforeLat != 20 {
		t.Fatalf("before the swap: %d queries, %d batched, %d latencies, want 20 each",
			before.Queries, before.BatchedQueries, beforeLat)
	}

	// Park one single-query reader in its walk, on the old view (and let
	// it go on any exit, or the deferred Close would wait for it forever).
	release := sync.OnceFunc(func() { close(gate.release) })
	defer release()
	gate.armed.Store(true)
	pinned := make(chan error, 1)
	go func() {
		_, err := me.KNNBatch(dataset.UniformVectors(rand.New(rand.NewSource(78)), 1, 3), 4)
		pinned <- err
	}()
	<-gate.entered
	if err := me.Rebuild(); err != nil {
		t.Fatal(err)
	}
	during, duringLat := me.Stats(), me.LatencySnapshot().Count
	if during.Queries < before.Queries || during.BatchedQueries < before.BatchedQueries ||
		during.DistanceEvals < before.DistanceEvals || duringLat < beforeLat {
		t.Errorf("counters went backwards across the swap with a reader still pinned:\nbefore %+v (%d latencies)\nduring %+v (%d latencies)",
			before, beforeLat, during, duringLat)
	}
	release()
	if err := <-pinned; err != nil {
		t.Fatal(err)
	}
	if _, err := me.KNNBatch(dataset.UniformVectors(rng, 10, 3), 4); err != nil {
		t.Fatal(err)
	}
	me.Close()

	// Old view: 21 queries over n base points plus the delta scan; new
	// view: 10 queries over the rebuilt base, nothing pending — the same
	// sites + n + inserted points measured or pruned either way. The single
	// pinned query is the only one that did not come in a multi-query batch.
	after, afterLat := me.Stats(), me.LatencySnapshot().Count
	wantEvals := int64(31 * (sites + n + inserted))
	if after.Queries != 31 || after.BatchedQueries != 30 || after.DistanceEvals+after.PrunedEvals != wantEvals || afterLat != 31 {
		t.Errorf("after Close: %d queries, %d batched, %d evals + %d pruned, %d latencies; want 31, 30, %d, 31",
			after.Queries, after.BatchedQueries, after.DistanceEvals, after.PrunedEvals, afterLat, wantEvals)
	}
}

// TestSavedStoreServedReadOnly: one snapshot of a 40-point, 2-shard store
// with 5 tombstones, served read-only by a plain Engine and live by the
// MutableEngine it came from, gives the same errors, the same answers and
// the same Shards() at k = LiveN and k = LiveN + 1 — the plain Engine fans
// out over the base's shards and checks k against the live points.
func TestSavedStoreServedReadOnly(t *testing.T) {
	db := mustDB(t, 71, 40)
	me, err := distperm.NewMutableEngine(db, distperm.MutableConfig{
		Spec: distperm.Spec{Index: "distperm", K: 4, Seed: 7}, Shards: 2, Partitioner: distperm.RoundRobin{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer me.Close()
	for _, gid := range []int{1, 8, 13, 30, 39} {
		if err := me.Delete(gid); err != nil {
			t.Fatal(err)
		}
	}
	snap := me.Snapshot()
	ro, err := distperm.NewEngine(snap.DB(), snap, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if ro.Shards() != me.Shards() || me.Shards() != 2 {
		t.Errorf("read-only Shards() = %d, live %d; want 2", ro.Shards(), me.Shards())
	}
	probes := db.Points[:4]
	for _, k := range []int{me.LiveN(), me.LiveN() + 1} {
		want, werr := me.KNNBatch(probes, k)
		got, gerr := ro.KNNBatch(probes, k)
		if (werr == nil) != (gerr == nil) || (werr != nil && !errors.Is(gerr, distperm.ErrOutOfRange)) {
			t.Fatalf("k=%d: read-only error %v, live %v", k, gerr, werr)
		}
		for i := range want {
			if !sameResultSlices(got[i], want[i]) {
				t.Fatalf("k=%d probe %d: read-only %v, live %v", k, i, got[i], want[i])
			}
		}
	}
}

// TestSnapshotIsOneState: Snapshot and MutationStats each read one published
// state. With one goroutine inserting and none deleting, every snapshot's
// next ID is one past its largest ID, and every MutationStats reports as many
// live points as IDs issued.
func TestSnapshotIsOneState(t *testing.T) {
	db := mustDB(t, 73, 50)
	me, err := distperm.NewMutableEngine(db, distperm.MutableConfig{Spec: distperm.Spec{Index: "linear"}})
	if err != nil {
		t.Fatal(err)
	}
	defer me.Close()
	stop, done := make(chan struct{}), make(chan struct{})
	defer func() { close(stop); <-done }() // before Close
	go func() {
		defer close(done)
		for i := 0; i < 4000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := me.Insert(db.Points[i%db.N()]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for checked := 0; ; checked++ {
		select {
		case <-done:
			t.Logf("%d snapshots and stats checked under inserts", checked)
			return
		default:
		}
		snap := me.Snapshot()
		if gids := snap.GIDs(); snap.NextGID() != gids[len(gids)-1]+1 {
			t.Fatalf("snapshot %d holds IDs up to %d but says the next is %d", checked, gids[len(gids)-1], snap.NextGID())
		}
		if ms := me.MutationStats(); ms.NextID != ms.LiveN {
			t.Fatalf("stats %d: %d live points, next ID %d", checked, ms.LiveN, ms.NextID)
		}
	}
}
