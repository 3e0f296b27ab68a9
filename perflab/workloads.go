package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"distperm/internal/metric"
	"distperm/internal/sisap"
	"distperm/pkg/distperm"
	"distperm/pkg/dpserver"
	"distperm/pkg/dpserver/client"
)

// workloadDef names one workload: the store it serves, why it exists, and
// how to stand a server up for it.
type workloadDef struct {
	Name  string
	Store string
	Why   string
	// boot builds the workload's backend from what set-up may assume is
	// already there (points in memory; for approx-mmap the frozen file; for
	// mixed-rw-sharded an empty WAL directory) and wraps it in a Server.
	// release runs after the server has closed.
	boot func(env *bootEnv) (srv *dpserver.Server, release func(), err error)
}

// bootEnv is what a boot function may read: the seeded store, the index
// spec, and a scratch directory of its own.
type bootEnv struct {
	st   *store
	spec distperm.Spec
	dir  string // fresh, empty, private to this boot
	// frozen is the path of S1's frozen container (approx-mmap only); it is
	// written once per run, before any set-up is timed.
	frozen string
}

// servingConfig is distpermd's default serving configuration.
func servingConfig() dpserver.Config {
	return dpserver.Config{BatchMax: 64, BatchWait: 2 * time.Millisecond, CacheSize: 4096}
}

// workloadDefs is the benchmark's workload list, in the fixed order rounds
// run them. The names are the ones BENCHMARK.json carries.
var workloadDefs = []workloadDef{
	{
		Name: "exact-cold", Store: "S1",
		Why:  "n=200k clustered, distinct single exact 10-NN: PermIndex.KNN is ~85% of the request, the coalescer's 2 ms wait is paid every time, the result cache always misses (working set >> cache)",
		boot: bootHeap,
	},
	{
		Name: "approx-mmap", Store: "S1",
		Why:  "same index frozen and mmap-opened, approximate 10-NN at nprobe=4: bucket probing dominates, HTTP/JSON is ~25%, cache and coalescer are bypassed, recall is gated",
		boot: bootMmap,
	},
	{
		Name: "batch64-uniform", Store: "S2",
		Why:  "n=50k uniform (distinct rows ~ n), 64 exact queries per request: the only workload where the rank-table batch kernel and engine sub-batching are a large share",
		boot: bootHeap,
	},
	{
		Name: "cache-hot", Store: "S1",
		Why:  "2048 pre-warmed queries in a 4096-entry cache, hit ratio ~1: only wire, handler and instrumentation cost; the bypass workload for every engine optimisation",
		boot: bootHeap,
	},
	{
		Name: "mixed-rw-sharded", Store: "S3",
		Why:  "4-shard mutable engine with an interval-synced WAL, 90% distinct exact reads and 10% insert/delete: delta scans, invalidation, rebuilds and shard merge run beside reads",
		boot: bootMutable,
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].Name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

func bootHeap(env *bootEnv) (*dpserver.Server, func(), error) {
	idx, err := distperm.Build(env.st.db, env.spec)
	if err != nil {
		return nil, nil, err
	}
	srv, err := dpserver.NewFromIndex(env.st.db, idx, 0, servingConfig())
	return srv, func() {}, err
}

func bootMmap(env *bootEnv) (*dpserver.Server, func(), error) {
	st, err := distperm.Load(env.frozen, distperm.LoadOptions{Mmap: true})
	if err != nil {
		return nil, nil, err
	}
	srv, err := dpserver.NewFromIndex(st.DB, st.Index, 0, servingConfig())
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	return srv, func() { st.Close() }, nil
}

func bootMutable(env *bootEnv) (*dpserver.Server, func(), error) {
	wal, err := distperm.OpenWAL(env.dir, distperm.WALOptions{Sync: distperm.SyncInterval, SyncInterval: walInterval})
	if err != nil {
		return nil, nil, err
	}
	me, err := distperm.NewMutableEngine(env.st.db, distperm.MutableConfig{
		Spec:             env.spec,
		RebuildThreshold: rebuildAt,
		Shards:           shardCount,
		Partitioner:      distperm.RoundRobin{},
		WAL:              wal,
	})
	if err != nil {
		wal.Close()
		return nil, nil, err
	}
	srv, err := dpserver.NewFromMutable(me, servingConfig())
	if err != nil {
		me.Close()
		wal.Close()
		return nil, nil, err
	}
	return srv, func() { wal.Close() }, nil
}

// writeFrozen writes the index's frozen (mmap-ready) container to path.
func writeFrozen(px *distperm.PermIndex, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := distperm.WriteFrozenIndex(f, px); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// live is a booted server on a loopback listener.
type live struct {
	srv     *dpserver.Server
	base    string
	cancel  context.CancelFunc
	served  chan error
	release func()
}

// listen serves srv on a fresh 127.0.0.1 port.
func listen(srv *dpserver.Server, release func()) (*live, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		release()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	l := &live{srv: srv, base: "http://" + ln.Addr().String(), cancel: cancel, served: make(chan error, 1), release: release}
	go func() { l.served <- srv.Serve(ctx, ln) }()
	return l, nil
}

// close drains the server, closes its engine and releases what backed it.
func (l *live) close() error {
	l.cancel()
	err := <-l.served
	l.release()
	return err
}

// newClient returns a client holding exactly one connection to the server.
func (l *live) newClient() *client.Client {
	c := client.New(l.base)
	c.HTTPClient = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return c
}

func closeClient(c *client.Client) {
	c.HTTPClient.Transport.(*http.Transport).CloseIdleConnections()
}

// truth is a workload's verification set with the LinearScan oracle's
// answers.
type truth struct {
	qs   []metric.Point
	want [][]sisap.Result
}

// oracle answers qs by linear scan, on every core: the scan is read-only,
// and at n=200k the 512 answers cost over a second on one.
func oracle(st *store, qs []metric.Point) *truth {
	lin := sisap.NewLinearScan(st.db)
	t := &truth{qs: qs, want: make([][]sisap.Result, len(qs))}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(qs); i += workers {
				t.want[i], _ = lin.KNN(qs[i], knnK)
			}
		}()
	}
	wg.Wait()
	return t
}

// sameAnswer reports whether got equals want element for element, IDs and
// distances, which pins the (distance, ID) tie-break too.
func sameAnswer(got, want []sisap.Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// checkAnswer is the per-response check used where no oracle answer exists
// (distinct queries during the timed rounds, approximate answers): k
// results, ordered by (distance, ID), no ID twice, and every reported
// distance equal to the metric recomputed here. pts holds the points whose
// IDs are known to perflab; IDs past it (points inserted during the run)
// are only order-checked.
func checkAnswer(q metric.Point, got []sisap.Result, pts []metric.Point) error {
	if len(got) != knnK {
		return fmt.Errorf("%d results, want %d", len(got), knnK)
	}
	for i, r := range got {
		if r.ID < 0 {
			return fmt.Errorf("result %d has ID %d", i, r.ID)
		}
		if i > 0 {
			p := got[i-1]
			if r.Distance < p.Distance || (r.Distance == p.Distance && r.ID <= p.ID) {
				return fmt.Errorf("results %d and %d out of (distance, ID) order", i-1, i)
			}
		}
		if r.ID < len(pts) {
			if d := distperm.L2.Distance(q, pts[r.ID]); d != r.Distance {
				return fmt.Errorf("result %d: ID %d reported at %v, metric says %v", i, r.ID, r.Distance, d)
			}
		}
	}
	return nil
}

func recallOf(got, want []sisap.Result) float64 {
	in := make(map[int]bool, len(want))
	for _, r := range want {
		in[r.ID] = true
	}
	hit := 0
	for _, r := range got {
		if in[r.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// firstAnswer sends the workload's own request kind once and verifies it:
// the last step of a set-up, so lazily built state (query scratch, the
// prefix-bucket directory) is paid inside setup_s.
func firstAnswer(ctx context.Context, w *workloadDef, c *client.Client, t *truth, pts []metric.Point) error {
	switch w.Name {
	case "approx-mmap":
		got, _, err := c.KNNApprox(ctx, t.qs[0], knnK, nprobe)
		if err != nil {
			return err
		}
		return checkAnswer(t.qs[0], got, pts)
	case "batch64-uniform":
		n := min(batchSize, len(t.qs))
		got, err := c.KNNBatch(ctx, t.qs[:n], knnK)
		if err != nil {
			return err
		}
		if len(got) != n {
			return fmt.Errorf("%d answers for %d queries", len(got), n)
		}
		for i := range got {
			if !sameAnswer(got[i], t.want[i]) {
				return fmt.Errorf("batch answer %d differs from the oracle", i)
			}
		}
		return nil
	default:
		got, err := c.KNN(ctx, t.qs[0], knnK)
		if err != nil {
			return err
		}
		if !sameAnswer(got, t.want[0]) {
			return fmt.Errorf("first answer differs from the oracle")
		}
		return nil
	}
}

// setUp times one fresh set-up of w: boot, listen, first verified answer
// over the socket.
func setUp(ctx context.Context, w *workloadDef, env *bootEnv, t *truth) (*live, time.Duration, error) {
	start := time.Now()
	srv, release, err := w.boot(env)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: boot: %w", w.Name, err)
	}
	l, err := listen(srv, release)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: listen: %w", w.Name, err)
	}
	c := l.newClient()
	defer closeClient(c)
	if err := firstAnswer(ctx, w, c, t, env.st.points()); err != nil {
		l.close()
		return nil, 0, fmt.Errorf("%s: first answer: %w", w.Name, err)
	}
	return l, time.Since(start), nil
}
