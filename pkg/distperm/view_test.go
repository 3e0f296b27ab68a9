package distperm_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distperm/internal/dataset"
	"distperm/pkg/distperm"
)

// TestMutableEngineShardsReportsServedView: Shards() is what is being
// served, not what rebuilds are configured to produce. A 4-shard index
// wrapped with Shards = 1 serves four shards until its first rebuild, which
// folds it into one.
func TestMutableEngineShardsReportsServedView(t *testing.T) {
	db := mustDB(t, 81, 120)
	sx, err := distperm.BuildSharded(db, distperm.Spec{Index: "distperm", K: 5, Seed: 81}, 4, distperm.RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	me, err := distperm.WrapMutable(db, sx, distperm.MutableConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer me.Close()
	procs := runtime.GOMAXPROCS(0)
	if me.Shards() != 4 || me.Workers() != procs {
		t.Fatalf("wrapped 4-shard index: Shards() = %d, Workers() = %d; want 4, %d", me.Shards(), me.Workers(), procs)
	}
	if _, err := me.Insert(distperm.Vector{0.5, 0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := me.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if me.Shards() != 1 || me.BaseKind() != "distperm" || me.Workers() != procs {
		t.Fatalf("after the fold: Shards() = %d, kind %s, Workers() = %d; want 1, distperm, %d",
			me.Shards(), me.BaseKind(), me.Workers(), procs)
	}
}

// TestMutableEngineViewGrows: a plain index wrapped with Shards = 4 starts
// as a one-segment view and rebuilds into a four-segment one on the same
// engine. Answers equal the from-scratch LinearScan on both sides of the
// swap, and the counters carry across it.
func TestMutableEngineViewGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	pts := dataset.UniformVectors(rng, 200, 3)
	db, err := distperm.NewDB(distperm.L2, pts)
	if err != nil {
		t.Fatal(err)
	}
	spec := distperm.Spec{Index: "distperm", K: 6, Seed: 82}
	idx, err := distperm.Build(db, spec)
	if err != nil {
		t.Fatal(err)
	}
	me, err := distperm.WrapMutable(db, idx, distperm.MutableConfig{
		Spec: spec, Shards: 4, Partitioner: distperm.RoundRobin{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer me.Close()
	model := newMutModel(pts)
	probes := dataset.UniformVectors(rng, 8, 3)
	procs := runtime.GOMAXPROCS(0)
	if me.Shards() != 1 || me.Workers() != procs {
		t.Fatalf("before the rebuild: Shards() = %d, Workers() = %d; want 1, %d", me.Shards(), me.Workers(), procs)
	}
	checkEquivalence(t, "one segment", me, model, probes, 5, 0.5)
	before := me.Stats()

	for _, p := range dataset.UniformVectors(rng, 10, 3) {
		gid, err := me.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		model.insert(gid, p)
	}
	if err := me.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if me.Shards() != 4 || me.BaseKind() != "sharded" || me.Workers() != procs {
		t.Fatalf("after the rebuild: Shards() = %d, kind %s, Workers() = %d; want 4, sharded, %d",
			me.Shards(), me.BaseKind(), me.Workers(), procs)
	}
	checkEquivalence(t, "four segments", me, model, probes, 5, 0.5)
	// Two 8-probe batches before the swap on one segment, two after on four.
	if after := me.Stats(); before.Queries != 16 || after.Queries != 16+4*16 {
		t.Fatalf("sub-queries: %d before the swap, %d after; want 16, 80", before.Queries, after.Queries)
	}
}

// swapStorm drives a 4-shard mutable store from every side at once until
// stop closes: searchers (kNN batches, ranges, single queries), writers and
// one goroutine forcing rebuilds. Whatever is inserted is deleted again, so
// the store stays the size it started (below the size at which an index
// build fans out across goroutines of its own). Every goroutine returns at
// the first error — which, once the engine has been closed under it, is the
// expected way out.
type swapStorm struct {
	stop chan struct{}
	wg   sync.WaitGroup
	// goroutines is how many the storm itself runs.
	goroutines int
	errs       atomic.Int64
}

func startSwapStorm(me *distperm.MutableEngine) *swapStorm {
	s := &swapStorm{stop: make(chan struct{})}
	loop := func(seed int64, step func(rng *rand.Rand) error) {
		s.goroutines++
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-s.stop:
					return
				default:
				}
				if err := step(rng); err != nil {
					s.errs.Add(1)
					return
				}
			}
		}()
	}
	for r := int64(0); r < 4; r++ {
		loop(100+r, func(rng *rand.Rand) error {
			qs := dataset.UniformVectors(rng, 1+rng.Intn(6), 3)
			if rng.Intn(3) == 0 {
				_, _, err := me.Search(qs, distperm.Query{Radius: 0.2})
				return err
			}
			_, err := me.KNNBatch(qs, 3)
			return err
		})
	}
	for w := int64(0); w < 2; w++ {
		loop(200+w, func(rng *rand.Rand) error {
			gid, err := me.Insert(dataset.UniformVectors(rng, 1, 3)[0])
			if err != nil {
				return err
			}
			return me.Delete(gid)
		})
	}
	loop(300, func(rng *rand.Rand) error {
		// Something to fold, so every call is a real swap.
		gid, err := me.Insert(dataset.UniformVectors(rng, 1, 3)[0])
		if err != nil {
			return err
		}
		if err := me.Rebuild(); err != nil {
			return err
		}
		return me.Delete(gid)
	})
	return s
}

// shardedMutable wraps a 4-shard distperm index over n gate-metric points.
func shardedMutable(t *testing.T, gate gateMetric, n int) *distperm.MutableEngine {
	t.Helper()
	db, err := distperm.NewDB(gate, dataset.UniformVectors(rand.New(rand.NewSource(83)), n, 3))
	if err != nil {
		t.Fatal(err)
	}
	spec := distperm.Spec{Index: "distperm", K: 6, Seed: 83}
	sx, err := distperm.BuildSharded(db, spec, 4, distperm.RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	me, err := distperm.WrapMutable(db, sx, distperm.MutableConfig{
		Spec: spec, Shards: 4, Partitioner: distperm.RoundRobin{},
	})
	if err != nil {
		t.Fatal(err)
	}
	return me
}

func newGate() gateMetric {
	return gateMetric{
		Metric:  distperm.L2,
		armed:   new(atomic.Bool),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
}

// TestMutableEngineSwapStorm: fifty and more forced rebuilds under
// concurrent searches and writes start no goroutine of their own beyond a
// batch search's fan-out — at most GOMAXPROCS − 1 each, all gone when it
// returns — the counters never go backwards across a swap, and a reader
// parked on the wrapped view since before the first swap still gets its
// answer, however many views have come and gone since.
func TestMutableEngineSwapStorm(t *testing.T) {
	const swaps = 50
	gate := newGate()
	me := shardedMutable(t, gate, 400)
	defer me.Close()
	idle := runtime.NumGoroutine() // the rebuilder is up

	// One reader parks inside its walk, holding the wrapped view.
	openGate := sync.OnceFunc(func() { close(gate.release) })
	defer openGate()
	gate.armed.Store(true)
	pinned := make(chan error, 1)
	go func() {
		_, err := me.KNNBatch(dataset.UniformVectors(rand.New(rand.NewSource(84)), 1, 3), 4)
		pinned <- err
	}()
	<-gate.entered

	storm := startSwapStorm(me)
	var maxGoroutines int
	var last distperm.EngineStats
	for me.MutationStats().Rebuilds < swaps {
		maxGoroutines = max(maxGoroutines, runtime.NumGoroutine())
		st := me.Stats()
		if st.Queries < last.Queries || st.DistanceEvals < last.DistanceEvals || st.BatchedQueries < last.BatchedQueries {
			t.Fatalf("counters went backwards across a swap:\nbefore %+v\nafter  %+v", last, st)
		}
		last = st
		time.Sleep(time.Millisecond)
	}
	close(storm.stop)
	storm.wg.Wait()
	if n := storm.errs.Load(); n != 0 {
		t.Fatalf("%d storm goroutines failed on an open engine", n)
	}
	// The storm's own goroutines, the parked reader and the fan-out of the
	// storm's 4 searchers are all there is.
	if limit := idle + storm.goroutines + 1 + 4*(runtime.GOMAXPROCS(0)-1); maxGoroutines > limit {
		t.Errorf("%d goroutines during the storm, want ≤ %d: a rebuild or a Search started more", maxGoroutines, limit)
	}

	openGate()
	if err := <-pinned; err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > idle && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > idle {
		t.Errorf("%d goroutines after the storm, %d before it", got, idle)
	}
}

// TestMutableEngineCloseDuringSwapStorm: Close in the middle of the storm
// leaves no caller blocked — searchers, writers and the forced rebuilder
// all return — and every call made after it gets the closed error.
func TestMutableEngineCloseDuringSwapStorm(t *testing.T) {
	me := shardedMutable(t, newGate(), 300)
	storm := startSwapStorm(me)
	for me.MutationStats().Rebuilds < 5 {
		time.Sleep(time.Millisecond)
	}
	me.Close()
	done := make(chan struct{})
	go func() { storm.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("storm goroutines still blocked 30 s after Close")
	}
	if n := storm.errs.Load(); n != int64(storm.goroutines) {
		t.Errorf("%d of %d storm goroutines saw the closed error", n, storm.goroutines)
	}
	probe := []distperm.Point{distperm.Vector{0.5, 0.5, 0.5}}
	if _, err := me.KNNBatch(probe, 1); err == nil {
		t.Error("KNNBatch after Close should fail")
	}
	if _, _, err := me.Search(probe, distperm.Query{Radius: 0.1}); err == nil {
		t.Error("Search after Close should fail")
	}
	if _, err := me.Insert(probe[0]); err == nil {
		t.Error("Insert after Close should fail")
	}
	if err := me.Delete(0); err == nil {
		t.Error("Delete after Close should fail")
	}
	if err := me.Rebuild(); err == nil {
		t.Error("Rebuild after Close should fail")
	}
}

// TestEngineCloseWaitsForSearch: Close refuses new searches at once but
// does not return while a search that got in before it is still walking;
// that search finishes with its correct answer.
func TestEngineCloseWaitsForSearch(t *testing.T) {
	gate := newGate()
	pts := dataset.UniformVectors(rand.New(rand.NewSource(85)), 300, 3)
	db, err := distperm.NewDB(gate, pts)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := distperm.Build(db, distperm.Spec{Index: "distperm", K: 6, Seed: 85})
	if err != nil {
		t.Fatal(err)
	}
	e, err := distperm.NewEngine(db, idx, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := distperm.Query{K: 5}
	probe := dataset.UniformVectors(rand.New(rand.NewSource(86)), 1, 3)
	truthDB, err := distperm.NewDB(distperm.L2, pts)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := distperm.Build(truthDB, distperm.Spec{Index: "linear"})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := truth.KNN(probe[0], q.K)

	openGate := sync.OnceFunc(func() { close(gate.release) })
	defer openGate()
	gate.armed.Store(true)
	type answer struct {
		rs  [][]distperm.Result
		err error
	}
	parked := make(chan answer, 1)
	go func() {
		rs, _, err := e.Search(probe, q)
		parked <- answer{rs, err}
	}()
	<-gate.entered

	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	// Close has begun once a new search is refused.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, _, err := e.Search(probe, q); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("searches still admitted 10 s after Close began")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a search was still walking")
	case <-time.After(20 * time.Millisecond):
	}

	openGate()
	a := <-parked
	if a.err != nil {
		t.Fatalf("the parked search failed: %v", a.err)
	}
	if !reflect.DeepEqual(a.rs[0], want) {
		t.Fatalf("the parked search answered %v, want %v", a.rs[0], want)
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return 10 s after the search finished")
	}
}
