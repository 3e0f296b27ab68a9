// Command distpermd is the network serving daemon over the distance-
// permutation index family: it loads a dataset (generated or from a file)
// plus an index — built on startup or read from a DPERMIDX container of any
// codec kind, including "sharded" — and serves JSON kNN/range traffic on a
// worker-pool engine behind a result cache and a micro-batching coalescer
// (pkg/dpserver). The listen socket binds before any loading starts;
// /healthz answers 200 (alive) from that moment, while /readyz and every
// other endpoint answer 503 {"status":"loading"} until the store is ready
// — the explicit not-ready → ready transition restart orchestration keys
// on. GET /metrics serves Prometheus text exposition, and -ops-addr adds a
// private listener with /metrics, the health probes, and net/http/pprof.
// Shutdown on SIGINT/SIGTERM is graceful:
// in-flight requests drain and pending coalescer batches flush before the
// engine closes and any mapped container is unmapped.
//
// With -freeze it writes the frozen container form of a distance-permutation
// index — position-independent, checksummed, mmap-ready sections — and
// exits. A daemon restarted with -mmap -load over such a container maps it
// read-only in O(1) instead of stream-decoding it; when the container
// embeds its points (named metric over plain vectors) the daemon needs no
// dataset flags at all.
//
// With -rebuild-threshold N the daemon serves the live write path too:
// POST /v1/insert and /v1/delete mutate the logical point set (delta buffer
// + tombstones, stable global IDs), and once N writes are pending a
// background rebuild folds them into a fresh index, swapped in atomically
// under traffic.
//
// Usage:
//
//	distpermd -gen uniform -n 20000 -d 6 -index distperm -k 12 -addr :7411
//	distpermd -gen uniform -n 20000 -d 6 -shards 4 -partition hash -addr :7411
//	distpermd -gen uniform -n 20000 -d 6 -rebuild-threshold 4096 -addr :7411
//	distpermd -file points.txt -load index.dpermidx -addr :7411
//	distpermd -gen uniform -n 20000 -d 6 -index distperm -k 12 -freeze index.frozen
//	distpermd -mmap -load index.frozen -addr :7411
//
//	curl -s localhost:7411/v1/knn -d '{"query": [0.5,0.5,0.5,0.5,0.5,0.5], "k": 3}'
//	curl -s localhost:7411/v1/knn -d '{"query": [0.5,0.5,0.5,0.5,0.5,0.5], "k": 3, "approx": true, "nprobe": 4}'
//	curl -s localhost:7411/v1/stats
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"distperm/internal/dataset"
	"distperm/internal/metric"
	"distperm/internal/sisap"
	"distperm/pkg/distperm"
	"distperm/pkg/dpserver"
)

func main() {
	// Every flag binds to the field that is read: dataset and listener flags
	// to locals of main, the rest straight into the daemon's configuration.
	var (
		cfg daemonConfig

		// Dataset: what the index is over.
		gen   = flag.String("gen", "uniform", "generator: "+strings.Join(dataset.GeneratorNames(), ", "))
		file  = flag.String("file", "", "read whitespace-separated vectors from a file instead of generating")
		n     = flag.Int("n", 20_000, "points to generate")
		d     = flag.Int("d", 6, "dimensions (vector generators)")
		mname = flag.String("metric", "", "override metric: L1, L2, Linf, edit, prefix, angular")
		seed  = flag.Int64("seed", 1, "random seed")

		freeze   = flag.String("freeze", "", "write the built/loaded distperm index as a frozen (mmap-ready) container to this path and exit")
		walSync  = flag.String("wal-sync", "always", "wal durability: always (fsync before every ack), interval (background fsync), never (OS page cache only — survives kill -9, not power loss)")
		addr     = flag.String("addr", ":7411", "HTTP listen address")
		opsAddr  = flag.String("ops-addr", "", "optional private ops listener: /metrics, /healthz, /readyz, and net/http/pprof under /debug/pprof/ (empty disables)")
		slowQLog = flag.String("slow-query-log", "", "slow-query log file (empty = stderr)")
	)
	// Index: built on startup or loaded from a container.
	flag.StringVar(&cfg.Index, "index", "distperm", "index kind to build: "+strings.Join(distperm.Kinds(), ", "))
	flag.IntVar(&cfg.K, "k", 8, "pivots/sites for the built index")
	flag.StringVar(&cfg.Load, "load", "", "read a DPERMIDX container (any codec kind, including sharded and mutable) instead of building")
	flag.BoolVar(&cfg.Mmap, "mmap", false, "map -load as a frozen container read-only (O(1) open) instead of stream-decoding; dataset flags are only consulted when the container embeds no points")
	flag.IntVar(&cfg.Shards, "shards", 1, "partition the database across this many scatter-gather shards")
	flag.StringVar(&cfg.Partition, "partition", "roundrobin", "shard placement strategy: "+strings.Join(distperm.Partitioners(), ", "))
	flag.IntVar(&cfg.Workers, "workers", 0, "worker goroutines per engine pool (0 = NumCPU)")
	flag.IntVar(&cfg.RebuildThreshold, "rebuild-threshold", 0, "enable the live write path (POST /v1/insert, /v1/delete): background-rebuild the index once this many writes are pending (0 serves read-only)")

	// Durability: crash-safe writes through a write-ahead log.
	flag.StringVar(&cfg.WALDir, "wal", "", "write-ahead log directory: log every write before acknowledging it, and recover on startup (newest checkpoint + log tail replay); implies the live write path. Restart with the same dataset/index flags — without a checkpoint, replay rebuilds the base from them")
	flag.DurationVar(&cfg.WAL.SyncInterval, "wal-sync-interval", 50*time.Millisecond, "background fsync period under -wal-sync interval")
	flag.Int64Var(&cfg.WAL.SegmentBytes, "wal-segment", 64<<20, "rotate wal segments at this many bytes")
	flag.Int64Var(&cfg.WALCheckpoint, "wal-checkpoint", 0, "also write a checkpoint once this many records accumulate past the last one (0 = checkpoint only when a rebuild folds the delta)")

	// Serving.
	flag.IntVar(&cfg.Serving.BatchMax, "batch-max", 64, "coalescer: flush a batch queued behind a busy engine at this many queries")
	flag.DurationVar(&cfg.Serving.BatchWait, "batch-wait", 2*time.Millisecond, "coalescer: longest a query may queue behind a busy engine (an idle engine never waits)")
	flag.IntVar(&cfg.Serving.CacheSize, "cache", 4096, "result cache entries (0 disables)")
	flag.DurationVar(&cfg.Serving.SlowQuery, "slow-query", 0, "log queries slower than this as one-line JSON records (0 disables)")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	// Dataset loading is deferred behind a memoised closure: the serve path
	// binds its socket before touching the dataset, and a -mmap restart over
	// a self-contained container never loads one at all.
	var (
		dsOnce sync.Once
		dsVal  *dataset.Dataset
		dsErr  error
	)
	loadDS := func() (*dataset.Dataset, error) {
		dsOnce.Do(func() {
			dsVal, dsErr = dataset.Load(rng, *gen, *file, *n, *d)
			if dsErr == nil && *mname != "" {
				var m metric.Metric
				if m, dsErr = metric.ByName(*mname); dsErr == nil {
					// e.g. -metric edit over a vector dataset: refuse at
					// startup, not as a panic in a query worker on the first
					// request.
					if dsErr = metric.Probe(m, dsVal.Points[0]); dsErr == nil {
						dsVal.Metric = m
					}
				}
			}
		})
		return dsVal, dsErr
	}

	if *slowQLog != "" {
		f, err := os.OpenFile(*slowQLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer f.Close()
		cfg.Serving.SlowQueryLog = f
	}
	var err error
	if cfg.WAL.Sync, err = distperm.ParseSyncPolicy(*walSync); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *freeze != "" {
		if err := runFreeze(os.Stdout, *freeze, loadDS, rng, cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}

	// Bind before loading anything: a restarting daemon exposes its socket
	// in O(1) and the gate answers 503 until the store is ready.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	gate := dpserver.NewGate()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- gate.Serve(ctx, ln) }()
	fmt.Printf("distpermd: listening on %s, loading store\n", ln.Addr())
	if *opsAddr != "" {
		opsLn, err := net.Listen("tcp", *opsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			stop()
			<-serveErr
			os.Exit(2)
		}
		go serveOps(ctx, opsLn, gate)
		fmt.Printf("distpermd: ops listener (metrics, pprof) on %s\n", opsLn.Addr())
	}

	srv, src, cleanup, err := buildServer(loadDS, rng, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		stop()
		<-serveErr
		os.Exit(2)
	}
	gate.SetReady(srv)
	info := srv.Info()
	fmt.Printf("distpermd: serving %s (n=%d metric=%s index=%s %d bits, %d shards × %d workers) on %s\n",
		src, info.N, info.Metric, info.Kind, info.Bits, info.Shards, info.Workers/info.Shards, ln.Addr())

	err = <-serveErr
	cleanup() // after the drain: no handler can still touch mapped memory
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("distpermd: drained and closed cleanly")
}

// serveOps answers the daemon's private operations surface on ln until ctx
// is cancelled: /metrics (the published Server's registry; 503 while the
// store loads), /healthz and /readyz (same liveness/readiness split as the
// serving port), and net/http/pprof under /debug/pprof/. Kept off the
// serving listener so profiling endpoints are never exposed to query
// traffic by accident.
func serveOps(ctx context.Context, ln net.Listener, gate *dpserver.Gate) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if s := gate.Server(); s != nil {
			s.Registry().ServeHTTP(w, r)
			return
		}
		dpserver.WriteStatus(w, http.StatusServiceUnavailable, "loading")
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		dpserver.WriteStatus(w, http.StatusOK, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if gate.Ready() {
			dpserver.WriteStatus(w, http.StatusOK, "ready")
			return
		}
		dpserver.WriteStatus(w, http.StatusServiceUnavailable, "loading")
	})
	return dpserver.Serve(ctx, ln, mux, 5*time.Second, nil)
}

// runFreeze writes the frozen container form of the configured index: build
// (or load) it, then emit the mmap-ready sectioned layout and exit.
func runFreeze(w io.Writer, out string, loadDS func() (*dataset.Dataset, error), rng *rand.Rand, cfg daemonConfig) error {
	ds, err := loadDS()
	if err != nil {
		return err
	}
	db, err := distperm.NewDB(ds.Metric, ds.Points)
	if err != nil {
		return err
	}
	var idx distperm.Index
	if cfg.Load != "" {
		st, err := distperm.Load(cfg.Load, distperm.LoadOptions{DB: db})
		if err != nil {
			return err
		}
		idx = st.Index
	} else if idx, err = distperm.Build(db,
		distperm.Spec{Index: cfg.Index, K: cfg.K, Seed: rng.Int63()}); err != nil {
		return err
	}
	px, ok := idx.(*distperm.PermIndex)
	if !ok {
		return fmt.Errorf("only the distance-permutation index has a frozen form; got %q", idx.Name())
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	nb, err := distperm.WriteFrozenIndex(f, px)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "distpermd: froze %s over %s (n=%d k=%d) to %s, %d bytes\n",
		idx.Name(), ds.Name, db.N(), px.K(), out, nb)
	return nil
}

// daemonConfig collects the index/serving parameters of one daemon run.
type daemonConfig struct {
	Index            string
	K                int
	Load             string
	Mmap             bool
	Shards           int
	Partition        string
	Workers          int
	RebuildThreshold int
	WALDir           string
	WAL              distperm.WALOptions
	WALCheckpoint    int64
	Serving          dpserver.Config
}

// buildServer assembles the serving stack: database from the dataset (or
// from the mapped container itself), index loaded from a container — mapped
// read-only under -mmap — or built through the registries, engine and HTTP
// layers from pkg/dpserver. A rebuild threshold turns the stack mutable:
// the index (built or loaded, including a saved mutable container) is
// wrapped in a MutableEngine and the write endpoints go live. A mapped
// container stays mapped for the daemon's lifetime — a self-contained one's
// point vectors are views into the mapping that every rebuild carries
// forward. The returned cleanup runs after the serve drain, when the engine
// has closed, and only then releases the mapping.
func buildServer(loadDS func() (*dataset.Dataset, error), rng *rand.Rand, cfg daemonConfig) (*dpserver.Server, string, func(), error) {
	cleanup := func() {}
	var (
		db    *distperm.DB
		idx   distperm.Index
		store *distperm.Store
		src   string

		wal        *distperm.WAL
		walFromSeq uint64
		fromCkpt   bool
	)
	if cfg.WALDir != "" {
		var err error
		wal, err = distperm.OpenWAL(cfg.WALDir, cfg.WAL)
		if err != nil {
			return nil, "", nil, err
		}
		ck, err := wal.LoadCheckpoint()
		if err != nil {
			wal.Close()
			return nil, "", nil, fmt.Errorf("wal recovery: %w", err)
		}
		if ck != nil {
			// The checkpoint is self-contained: its snapshot, which carries
			// its own points, replaces the dataset/-load boot entirely, and
			// replay resumes from the sequence it covers.
			idx = ck.Snapshot
			walFromSeq, fromCkpt = ck.Seq, true
			src = fmt.Sprintf("%s checkpoint (seq %d)", cfg.WALDir, ck.Seq)
		}
	}
	// On any failure below the open log must not stay held.
	walOK := false
	defer func() {
		if wal != nil && !walOK {
			wal.Close()
		}
	}()
	switch {
	case fromCkpt: // store recovered above
	case cfg.Mmap:
		if cfg.Load == "" {
			return nil, "", nil, fmt.Errorf("-mmap needs -load <container>")
		}
		var err error
		store, err = distperm.Load(cfg.Load, distperm.LoadOptions{Mmap: true})
		src = cfg.Load + " (mapped, self-contained)"
		if errors.Is(err, distperm.ErrNeedDB) {
			// The container embeds no points: map it against the dataset.
			ds, derr := loadDS()
			if derr != nil {
				return nil, "", nil, derr
			}
			if db, derr = distperm.NewDB(ds.Metric, ds.Points); derr != nil {
				return nil, "", nil, derr
			}
			store, err = distperm.Load(cfg.Load, distperm.LoadOptions{Mmap: true, DB: db})
			src = ds.Name + " (index mapped)"
		}
		if err != nil {
			return nil, "", nil, err
		}
		cleanup = func() { store.Close() }
		db, idx = store.DB, store.Index
	default:
		ds, err := loadDS()
		if err != nil {
			return nil, "", nil, err
		}
		src = ds.Name
		if db, err = distperm.NewDB(ds.Metric, ds.Points); err != nil {
			return nil, "", nil, err
		}
	}
	mutable := cfg.RebuildThreshold > 0 || wal != nil
	var p distperm.Partitioner
	if cfg.Shards > 1 || mutable {
		var err error
		if p, err = distperm.PartitionerByName(cfg.Partition); err != nil {
			return nil, "", nil, err
		}
	}
	var err error
	switch {
	case idx != nil: // mapped or checkpoint-recovered above
	case cfg.Load != "":
		st, err := distperm.Load(cfg.Load, distperm.LoadOptions{DB: db})
		if err != nil {
			return nil, "", nil, err
		}
		idx = st.Index
	case cfg.Shards > 1:
		if idx, err = distperm.BuildSharded(db,
			distperm.Spec{Index: cfg.Index, K: cfg.K, Seed: rng.Int63()}, cfg.Shards, p); err != nil {
			return nil, "", nil, err
		}
	default:
		if idx, err = distperm.Build(db,
			distperm.Spec{Index: cfg.Index, K: cfg.K, Seed: rng.Int63()}); err != nil {
			return nil, "", nil, err
		}
	}
	if !mutable {
		srv, err := dpserver.NewFromIndex(db, idx, cfg.Workers, cfg.Serving)
		if err != nil {
			cleanup()
			return nil, "", nil, err
		}
		return srv, src, cleanup, nil
	}
	mcfg := distperm.MutableConfig{
		Spec:             distperm.Spec{Index: cfg.Index, K: cfg.K, Seed: rng.Int63()},
		Workers:          cfg.Workers,
		RebuildThreshold: cfg.RebuildThreshold,
	}
	if cfg.Load != "" || fromCkpt {
		// Rebuilds of a loaded or checkpoint-recovered store keep the
		// loaded shape (kind and pivot/site count) rather than following
		// the possibly-defaulted -index/-k flags: resuming a store must not
		// silently rebuild it into a different index.
		mcfg.Spec = inferSpec(idx)
		mcfg.Spec.Seed = rng.Int63()
	}
	if cfg.Shards > 1 {
		mcfg.Shards = cfg.Shards
		mcfg.Partitioner = p
	} else if sx := shardedBase(idx); (cfg.Load != "" || fromCkpt) && sx != nil {
		// A loaded sharded store stays sharded across rebuilds even when
		// -shards was not repeated on the command line. The partition map
		// in the container carries no strategy name, so placement follows
		// -partition (default roundrobin).
		mcfg.Shards = sx.NumShards()
		mcfg.Partitioner = p
	}
	var me *distperm.MutableEngine
	if mi, ok := idx.(*distperm.MutableIndex); ok {
		// A saved mutable container resumes with its write history; the
		// loaded database must hold its base points then its delta points.
		me, err = distperm.NewMutableEngineFrom(mi, mcfg)
	} else {
		me, err = distperm.WrapMutable(db, idx, mcfg)
	}
	if err != nil {
		cleanup()
		return nil, "", nil, err
	}
	if wal != nil {
		// Recovery order matters: replay the log tail into the engine first
		// (the engine is not attached yet, so replayed records are not
		// re-appended), then attach so new writes log before acknowledging.
		applied, skipped, rerr := me.ReplayWAL(wal, walFromSeq)
		if rerr == nil {
			rerr = me.AttachWAL(wal)
		}
		if rerr != nil {
			me.Close()
			cleanup()
			return nil, "", nil, fmt.Errorf("wal recovery: %w", rerr)
		}
		src = fmt.Sprintf("%s, wal %s (replayed %d records, skipped %d, sync %s)",
			src, cfg.WALDir, applied, skipped, cfg.WAL.Sync)
	}
	srv, err := dpserver.NewFromMutable(me, cfg.Serving)
	if err != nil {
		me.Close()
		return nil, "", nil, err
	}
	if wal != nil {
		// The checkpointer folds the log behind durable snapshots; cleanup
		// (after the serve drain, when the engine is closed) stops it and
		// closes the log last.
		stopCkpt := make(chan struct{})
		go runCheckpoints(me, wal, cfg.WALCheckpoint, stopCkpt)
		prev := cleanup
		cleanup = func() {
			close(stopCkpt)
			prev()
			wal.Close()
		}
		walOK = true
	}
	return srv, src, cleanup, nil
}

// runCheckpoints folds the write-ahead log behind durable snapshots: after
// every background rebuild (the delta is freshly folded, so the snapshot
// is at its smallest) and, when recordEvery > 0, once that many records
// accumulate past the last checkpoint. Each checkpoint prunes the log
// segments and checkpoint files it supersedes.
func runCheckpoints(me *distperm.MutableEngine, wal *distperm.WAL, recordEvery int64, stop chan struct{}) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	var folded int64
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		folded = checkpointOnce(me, wal, recordEvery, folded)
	}
}

// checkpointOnce is one tick of runCheckpoints: it writes a checkpoint when
// a rebuild has happened since the one the log was last folded behind
// (folded counts rebuilds), or when recordEvery records have accumulated. It
// returns the new folded count, which moves only once the log is folded —
// the checkpoint was written, or there was nothing to write — so a failed
// checkpoint is retried on the next tick, not left until the next rebuild.
func checkpointOnce(me *distperm.MutableEngine, wal *distperm.WAL, recordEvery, folded int64) int64 {
	ms := me.MutationStats()
	ws := me.WALStats()
	if ms.Rebuilds <= folded && (recordEvery <= 0 || ws.Seq-ws.CheckpointSeq < uint64(recordEvery)) {
		return folded
	}
	snap, seq, err := me.CheckpointSnapshot()
	if err == nil && seq > ws.CheckpointSeq {
		err = wal.WriteCheckpoint(snap, seq)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "distpermd: wal checkpoint: %v\n", err)
		return folded
	}
	return ms.Rebuilds
}

// inferSpec derives a rebuild Spec from a loaded index: its kind and, for
// the parameterised kinds, its pivot/site count, so a resumed store folds
// back into the shape it was saved with. Containers defer to what they
// embed (a sharded container to its first shard, a mutable one to its
// base); kinds without a K leave it zero.
func inferSpec(idx distperm.Index) distperm.Spec {
	switch x := idx.(type) {
	case *distperm.ShardedIndex:
		return inferSpec(x.Shard(0))
	case *distperm.MutableIndex:
		return inferSpec(x.Base())
	case *distperm.PermIndex:
		return distperm.Spec{Index: "distperm", K: x.K()}
	case *sisap.LAESA:
		return distperm.Spec{Index: "laesa", K: len(x.Pivots())}
	default:
		return distperm.Spec{Index: idx.Name()}
	}
}

// shardedBase unwraps idx to the sharded container it serves from, if any:
// the index itself, or a mutable snapshot's base.
func shardedBase(idx distperm.Index) *distperm.ShardedIndex {
	if mi, ok := idx.(*distperm.MutableIndex); ok {
		idx = mi.Base()
	}
	sx, _ := idx.(*distperm.ShardedIndex)
	return sx
}
