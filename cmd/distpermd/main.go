// Command distpermd is the network serving daemon over the distance-
// permutation index family: it loads a dataset (generated or from a file)
// plus an index — built on startup or read from a DPERMIDX container of any
// codec kind, including "sharded" — and serves JSON kNN/range traffic on an
// engine behind a result cache and a FIFO admission gate (pkg/dpserver).
// The listen socket binds before any loading starts; /healthz answers 200
// (alive) from that moment, while /readyz and every other endpoint answer
// 503 {"status":"loading"} until the store is ready — the explicit
// not-ready → ready transition restart orchestration keys on. GET /metrics
// serves Prometheus text exposition, and -ops-addr adds a private listener
// with /metrics, the health probes, and net/http/pprof. Shutdown on
// SIGINT/SIGTERM is graceful: in-flight requests drain before the engine
// closes and any mapped container is unmapped.
//
// The daemon is flags around three calls: distperm.Open boots the engine
// (WAL, checkpoint, container or dataset, build, replay, checkpointer),
// dpserver.New serves it, and a dpserver.Gate fronts the socket while it
// loads.
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
	"syscall"
	"time"

	"distperm/internal/dataset"
	"distperm/internal/metric"
	"distperm/pkg/distperm"
	"distperm/pkg/dpserver"
)

func main() {
	// Every flag binds to the field that is read: dataset and listener flags
	// to locals of main, the rest straight into the boot and serving
	// configurations.
	var (
		cfg     distperm.OpenConfig
		serving dpserver.Config

		// Dataset: what the index is over.
		gen   = flag.String("gen", "uniform", "generator: "+strings.Join(dataset.GeneratorNames(), ", "))
		file  = flag.String("file", "", "read whitespace-separated vectors from a file instead of generating")
		n     = flag.Int("n", 20_000, "points to generate")
		d     = flag.Int("d", 6, "dimensions (vector generators)")
		mname = flag.String("metric", "", "override metric: L1, L2, Linf, edit, prefix, angular")

		freeze   = flag.String("freeze", "", "write the built/loaded distperm index as a frozen (mmap-ready) container to this path and exit")
		walSync  = flag.String("wal-sync", "always", "wal durability: always (fsync before every ack), interval (background fsync), never (OS page cache only — survives kill -9, not power loss)")
		addr     = flag.String("addr", ":7411", "HTTP listen address")
		opsAddr  = flag.String("ops-addr", "", "optional private ops listener: /metrics, /healthz, /readyz, and net/http/pprof under /debug/pprof/ (empty disables)")
		slowQLog = flag.String("slow-query-log", "", "slow-query log file (empty = stderr)")
	)
	flag.Int64Var(&cfg.Seed, "seed", 1, "random seed")
	// Index: built on startup or loaded from a container.
	flag.StringVar(&cfg.Index, "index", "distperm", "index kind to build: "+strings.Join(distperm.Kinds(), ", "))
	flag.IntVar(&cfg.K, "k", 8, "pivots/sites for the built index")
	flag.StringVar(&cfg.Load, "load", "", "read a DPERMIDX container (any codec kind, including sharded and mutable) instead of building")
	flag.BoolVar(&cfg.Mmap, "mmap", false, "map -load as a frozen container read-only (O(1) open) instead of stream-decoding; dataset flags are only consulted when the container embeds no points")
	flag.IntVar(&cfg.Shards, "shards", 1, "partition a freshly built database across this many shards (a loaded or recovered store keeps its own)")
	flag.StringVar(&cfg.Partition, "partition", "roundrobin", "shard placement strategy: "+strings.Join(distperm.Partitioners(), ", "))
	flag.IntVar(&cfg.RebuildThreshold, "rebuild-threshold", 0, "enable the live write path (POST /v1/insert, /v1/delete): background-rebuild the index once this many writes are pending (0 serves read-only)")

	// Durability: crash-safe writes through a write-ahead log.
	flag.StringVar(&cfg.WALDir, "wal", "", "write-ahead log directory: log every write before acknowledging it, and recover on startup (newest checkpoint + log tail replay); implies the live write path. Restart with the same dataset/index flags — without a checkpoint, replay rebuilds the base from them")
	flag.DurationVar(&cfg.WAL.SyncInterval, "wal-sync-interval", 50*time.Millisecond, "background fsync period under -wal-sync interval")
	flag.Int64Var(&cfg.WAL.SegmentBytes, "wal-segment", 64<<20, "rotate wal segments at this many bytes")
	flag.Int64Var(&cfg.WALCheckpoint, "wal-checkpoint", 0, "also write a checkpoint once this many records accumulate past the last one (0 = checkpoint only when a rebuild folds the delta)")

	// Serving.
	flag.IntVar(&serving.CacheSize, "cache", 4096, "result cache entries (0 disables)")
	flag.DurationVar(&serving.SlowQuery, "slow-query", 0, "log queries slower than this as one-line JSON records (0 disables)")
	flag.Parse()

	// Open loads the dataset only when it needs it: the serve path binds its
	// socket first, and a -mmap restart over a self-contained container or
	// from a checkpoint never loads one at all.
	cfg.Dataset = func(rng *rand.Rand) (*distperm.DB, string, error) {
		ds, err := dataset.Load(rng, *gen, *file, *n, *d)
		if err == nil && *mname != "" {
			var m metric.Metric
			if m, err = metric.ByName(*mname); err == nil {
				// e.g. -metric edit over a vector dataset: refuse at
				// startup, not as a panic in a query on the first
				// request.
				if err = metric.Probe(m, ds.Points[0]); err == nil {
					ds.Metric = m
				}
			}
		}
		if err != nil {
			return nil, "", err
		}
		db, err := distperm.NewDB(ds.Metric, ds.Points)
		return db, ds.Name, err
	}

	if *slowQLog != "" {
		f, err := os.OpenFile(*slowQLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer f.Close()
		serving.SlowQueryLog = f
	}
	var err error
	if cfg.WAL.Sync, err = distperm.ParseSyncPolicy(*walSync); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *freeze != "" {
		if err := runFreeze(os.Stdout, *freeze, cfg); err != nil {
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

	// The engine owns what Open opened; the gate's shutdown closes the
	// server, and so the engine, the mapping and the log, after the drain.
	e, err := distperm.Open(cfg)
	var srv *dpserver.Server
	if err == nil {
		if srv, err = dpserver.New(e, serving); err != nil {
			e.Close()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		stop()
		<-serveErr
		os.Exit(2)
	}
	gate.SetReady(srv)
	announce(os.Stdout, e, srv.Info(), ln.Addr())

	if err := <-serveErr; err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("distpermd: drained and closed cleanly")
}

// announce prints the serving line, with how many segments walk under bounds,
// and a warning naming those too small to bound: they measure every point.
func announce(w io.Writer, e *distperm.Engine, info dpserver.IndexInfo, addr net.Addr) {
	perm, scans := e.ScanSegments()
	fmt.Fprintf(w, "distpermd: serving %s (n=%d metric=%s index=%s %d bits, %d shards, %d bounded) on %s\n",
		e.Source(), info.N, info.Metric, info.Kind, info.Bits, info.Shards, perm-len(scans), addr)
	if len(scans) > 0 {
		fmt.Fprintf(w, "distpermd: warning: segments %v have too few points a bucket to bound: an exact query measures every point of each\n", scans)
	}
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

// runFreeze writes the frozen container form of the configured index: boot
// it (built, or loaded with -load) through Open, read-only and unsharded,
// then emit the mmap-ready sectioned layout and exit.
func runFreeze(w io.Writer, out string, cfg distperm.OpenConfig) error {
	e, err := distperm.Open(distperm.OpenConfig{
		Dataset: cfg.Dataset, Seed: cfg.Seed, Index: cfg.Index, K: cfg.K, Load: cfg.Load,
	})
	if err != nil {
		return err
	}
	defer e.Close()
	idx := e.Index()
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
		idx.Name(), e.Source(), e.LiveN(), px.K(), out, nb)
	return nil
}
