package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"distperm/internal/dataset"
	"distperm/internal/metric"
	"distperm/pkg/distperm"
	"distperm/pkg/dpserver"
	"distperm/pkg/dpserver/client"
)

// pointsOf is a Dataset for Open that serves ds as it is.
func pointsOf(ds *dataset.Dataset) func(*rand.Rand) (*distperm.DB, string, error) {
	return func(*rand.Rand) (*distperm.DB, string, error) {
		db, err := distperm.NewDB(ds.Metric, ds.Points)
		return db, ds.Name, err
	}
}

// noPoints is a Dataset for a boot that must not read one.
func noPoints(t *testing.T) func(*rand.Rand) (*distperm.DB, string, error) {
	return func(*rand.Rand) (*distperm.DB, string, error) {
		t.Error("the boot loaded the dataset")
		return nil, "", os.ErrNotExist
	}
}

// boot is main's boot sequence: Open, then dpserver.New over the engine. It
// returns the server and the engine's Source.
func boot(cfg distperm.OpenConfig, serving dpserver.Config) (*dpserver.Server, string, error) {
	e, err := distperm.Open(cfg)
	if err != nil {
		return nil, "", err
	}
	srv, err := dpserver.New(e, serving)
	if err != nil {
		e.Close()
		return nil, "", err
	}
	return srv, e.Source(), nil
}

// TestBuildServerModes covers the three index sources: built, built sharded
// through a named partitioner, and loaded from a DPERMIDX container.
func TestBuildServerModes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds, err := dataset.Load(rng, "uniform", "", 300, 3)
	if err != nil {
		t.Fatal(err)
	}

	dsf := pointsOf(ds)
	srv, _, err := boot(distperm.OpenConfig{Dataset: dsf, Index: "distperm", K: 6}, dpserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if info := srv.Info(); info.Kind != "distperm" || info.Shards != 1 {
		t.Errorf("built server info %+v", info)
	}
	srv.Close()

	srv, _, err = boot(distperm.OpenConfig{Dataset: dsf, Index: "distperm", K: 6, Shards: 3, Partition: "hash"}, dpserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if info := srv.Info(); info.Kind != "sharded" || info.Shards != 3 {
		t.Errorf("sharded server info %+v", info)
	}
	srv.Close()

	// Round-trip through a container file, the -load path.
	db, err := distperm.NewDB(ds.Metric, ds.Points)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := distperm.BuildSharded(db, distperm.Spec{Index: "vptree", Seed: 4}, 2, distperm.RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.dpermidx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := distperm.WriteIndex(f, idx); err != nil {
		t.Fatal(err)
	}
	f.Close()
	srv, _, err = boot(distperm.OpenConfig{Dataset: dsf, Load: path}, dpserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if info := srv.Info(); info.Kind != "sharded" || info.Shards != 2 {
		t.Errorf("loaded server info %+v", info)
	}
	srv.Close()

	// A rebuild threshold turns any of the sources mutable.
	srv, _, err = boot(distperm.OpenConfig{Dataset: dsf,
		Index: "distperm", K: 6, Shards: 2, Partition: "roundrobin", RebuildThreshold: 128,
	}, dpserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if info := srv.Info(); !info.Mutable || info.Kind != "mutable" || info.Base != "sharded" || info.Shards != 2 {
		t.Errorf("mutable sharded server info %+v", info)
	}
	srv.Close()
	srv, _, err = boot(distperm.OpenConfig{Dataset: dsf, Load: path, Partition: "roundrobin", RebuildThreshold: 64}, dpserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The loaded store keeps its sharding across rebuilds even though
	// -shards was not repeated on the command line.
	if info := srv.Info(); !info.Mutable || info.Base != "sharded" || info.Shards != 2 {
		t.Errorf("mutable loaded server info %+v", info)
	}
	srv.Close()

	// A saved mutable container resumes as a mutable server.
	me, err := distperm.NewMutableEngine(db, distperm.MutableConfig{
		Spec: distperm.Spec{Index: "distperm", K: 6, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := me.Insert(ds.Points[0]); err != nil {
		t.Fatal(err)
	}
	snap := me.Snapshot()
	me.Close()
	mpath := filepath.Join(t.TempDir(), "mutable.dpermidx")
	mf, err := os.Create(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := distperm.WriteIndex(mf, snap); err != nil {
		t.Fatal(err)
	}
	mf.Close()
	// The resumed database is base + delta: the snapshot's own point set.
	mds := &dataset.Dataset{Name: "resumed", Metric: snap.DB().Metric, Points: snap.DB().Points}
	srv, _, err = boot(distperm.OpenConfig{Dataset: pointsOf(mds), Load: mpath, Partition: "roundrobin", RebuildThreshold: 32}, dpserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if info := srv.Info(); !info.Mutable || info.N != 301 {
		t.Errorf("resumed mutable server info %+v", info)
	}
	srv.Close()

	// Failure modes are errors, not panics.
	for _, cfg := range []distperm.OpenConfig{
		{Index: "bogus"},
		{Index: "distperm", K: 6, Shards: 2, Partition: "modulo"},
		{Index: "distperm", K: 6, RebuildThreshold: 16, Partition: "modulo"},
		{Load: filepath.Join(t.TempDir(), "missing.dpermidx")},
		// A log over a store no checkpoint could hold (k > 20) is refused
		// at boot, not discovered one failed checkpoint at a time.
		{Index: "distperm", K: 24, Partition: "roundrobin", WALDir: t.TempDir()},
	} {
		cfg.Dataset = dsf
		if srv, _, err := boot(cfg, dpserver.Config{}); err == nil {
			srv.Close()
			t.Errorf("config %+v should error", cfg)
		}
	}
}

// TestMisshapedCheckpointRefusedAtBoot: a checkpoint whose checksum checks
// clean but one of whose points is shaped unlike the others — or whose point
// 0 is — is refused by LoadCheckpoint, which names the point, and so by
// Open: the daemon exits 2 instead of serving a store whose first
// query panics a worker. Beside an older intact checkpoint, recovery starts
// from that one instead.
func TestMisshapedCheckpointRefusedAtBoot(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ds, err := dataset.Load(rng, "uniform", "", 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	db, err := distperm.NewDB(ds.Metric, ds.Points)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wal, err := distperm.OpenWAL(dir, distperm.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	me, err := distperm.NewMutableEngine(db, distperm.MutableConfig{Spec: distperm.Spec{Index: "distperm", K: 6, Seed: 17}, WAL: wal})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range dataset.UniformVectors(rng, 5, 3) {
		if _, err := me.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	// checkpoint deletes gid, then writes a checkpoint (which removes the
	// one before it) and returns its path and bytes.
	checkpoint := func(gid int) (string, []byte) {
		if err := me.Delete(gid); err != nil {
			t.Fatal(err)
		}
		snap, seq, err := me.CheckpointSnapshot()
		if err == nil {
			err = wal.WriteCheckpoint(snap, seq)
		}
		path := filepath.Join(dir, fmt.Sprintf("ckpt-%016x.ckpt", seq))
		raw, rerr := os.ReadFile(path)
		if err != nil || rerr != nil {
			t.Fatal(err, rerr)
		}
		return path, raw
	}
	olderPath, older := checkpoint(3)
	path, raw := checkpoint(5)
	me.Close()
	wal.Close()
	// The points follow magic, version, flags, seq, the metric name and the
	// point count; each is a 3-d vector: kind, count, three float64s.
	first, size := 8+4+4+8+4+len(ds.Metric.Name())+8, 1+4+3*8
	half := binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.5))
	short := slices.Concat([]byte{0, 2, 0, 0, 0}, half, half) // a 2-d vector
	dsf := pointsOf(ds)
	for _, c := range []struct {
		name  string
		at    int
		point []byte
	}{
		{"short vector at point 7", 7, short},
		{"string at point 7", 7, append([]byte{1, 3, 0, 0, 0}, "abc"...)},
		{"short point 0", 0, short},
	} {
		body := slices.Concat(raw[:first+size*c.at], c.point, raw[first+size*(c.at+1):len(raw)-4])
		bad := binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		named := fmt.Sprintf("point %d", c.at)
		w, err := distperm.OpenWAL(dir, distperm.WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.LoadCheckpoint(); err == nil || !strings.Contains(err.Error(), named) {
			t.Errorf("%s: LoadCheckpoint returned %v, want an error naming %s", c.name, err, named)
		}
		w.Close()
		srv, _, err := boot(distperm.OpenConfig{Dataset: dsf, Index: "distperm", K: 6, Partition: "roundrobin", WALDir: dir}, dpserver.Config{})
		if err == nil {
			srv.Close()
		}
		if err == nil || !strings.Contains(err.Error(), named) {
			t.Errorf("%s: Open returned %v, want an error naming %s", c.name, err, named)
		}
	}
	if err := os.WriteFile(olderPath, older, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, src, err := boot(distperm.OpenConfig{Dataset: dsf, Index: "distperm", K: 6, Partition: "roundrobin", WALDir: dir}, dpserver.Config{})
	if err != nil {
		t.Fatalf("beside an older intact checkpoint: %v", err)
	}
	defer srv.Close()
	if info := srv.Info(); info.N != 203 || !strings.Contains(src, "checkpoint (seq 6)") {
		t.Errorf("recovered %d live points from %q, want 203 from the checkpoint at seq 6", info.N, src)
	}
}

// TestDaemonEndToEnd runs the serving stack the way main does — listener,
// Serve, graceful cancellation — and drives it with the client.
func TestDaemonEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds, err := dataset.Load(rng, "uniform", "", 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv, _, err := boot(distperm.OpenConfig{Dataset: pointsOf(ds), Index: "distperm", K: 6, Workers: 2},
		dpserver.Config{CacheSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	base := "http://" + ln.Addr().String()
	c := client.New(base)
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	rs, err := c.KNN(context.Background(), ds.Points[7], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 || rs[0].ID != 7 || rs[0].Distance != 0 {
		t.Errorf("self-query answer %v", rs)
	}

	if err := c.Ready(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A concurrent burst of single and 8-query batched requests: the batches
	// reach the engine's batch path, and no request fails.
	queries := ds.Points[:64]
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * 8; i+8 <= len(queries); i += 32 {
				if _, err := c.KNN(context.Background(), queries[i], 2); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.KNNBatch(context.Background(), queries[i:i+8], 2); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine.BatchedQueries == 0 || st.Server.Errors != 0 {
		t.Errorf("after the burst: batched_queries %d, errors %d", st.Engine.BatchedQueries, st.Server.Errors)
	}

	cancel()
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v, want clean shutdown", err)
	}
}

// TestFreezeThenMmapServe is the daemon-level restart story: freeze a built
// index to a container, then bring up a server over it with -mmap and no
// dataset at all — the self-contained O(1) open — and check it answers
// exactly like the original build. The mutable variant must come up too,
// the container staying mapped under every base its rebuilds produce.
func TestFreezeThenMmapServe(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds, err := dataset.Load(rng, "uniform", "", 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.frozen")
	var out strings.Builder
	if err := runFreeze(&out, path, distperm.OpenConfig{Dataset: pointsOf(ds), Seed: 9, Index: "distperm", K: 6}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "froze distperm") {
		t.Errorf("freeze report: %s", out.String())
	}

	// Reference answers from a heap build with the same seed.
	refSrv, _, err := boot(distperm.OpenConfig{Dataset: pointsOf(ds), Seed: 9, Index: "distperm", K: 6, Workers: 2}, dpserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer refSrv.Close()

	srv, src, err := boot(distperm.OpenConfig{Dataset: noPoints(t), Load: path, Mmap: true, Workers: 2}, dpserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "mapped") {
		t.Errorf("source label %q", src)
	}
	if info := srv.Info(); info.Kind != "distperm" || info.N != 500 {
		t.Errorf("mapped server info %+v", info)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	c := client.New("http://" + ln.Addr().String())
	for i := 0; i < 20; i++ {
		got, err := c.KNN(context.Background(), ds.Points[i*7], 4)
		if err != nil {
			t.Fatal(err)
		}
		if got[0].ID != i*7 || got[0].Distance != 0 {
			t.Fatalf("mapped self-query %d answered %v", i*7, got)
		}
	}
	cancel()
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	// The mutable wrap over the same mapped container. The container is
	// self-contained, so its point vectors are views into the mapping and
	// rebuilds carry those views forward into the new base: the mapping
	// must stay live across the fold. Insert past the threshold, wait for
	// the background rebuild, and re-query the original points — releasing
	// the mapping on rebuild would make these reads fault.
	msrv, _, err := boot(distperm.OpenConfig{Dataset: noPoints(t), Load: path, Mmap: true, Workers: 2, Partition: "roundrobin", RebuildThreshold: 64},
		dpserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if info := msrv.Info(); !info.Mutable || info.Base != "distperm" {
		t.Errorf("mutable mapped server info %+v", info)
	}
	mln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mctx, mcancel := context.WithCancel(context.Background())
	mserved := make(chan error, 1)
	go func() { mserved <- msrv.Serve(mctx, mln) }()
	mc := client.New("http://" + mln.Addr().String())
	extra := dataset.UniformVectors(rand.New(rand.NewSource(11)), 70, 3)
	if _, err := mc.InsertBatch(context.Background(), extra); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, err := mc.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Mutation != nil && st.Mutation.Rebuilds >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background rebuild did not fold the inserts")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		got, err := mc.KNN(context.Background(), ds.Points[i*7], 4)
		if err != nil {
			t.Fatal(err)
		}
		if got[0].ID != i*7 || got[0].Distance != 0 {
			t.Fatalf("post-rebuild mapped self-query %d answered %v", i*7, got)
		}
	}
	mcancel()
	if err := <-mserved; err != nil {
		t.Fatalf("mutable Serve: %v", err)
	}
}

// TestMmapExternalDatasetMutableServe is the twin of the mutable leg above
// for a container that embeds no points (LP 2.5 has no name a file could
// carry): -mmap -load maps the index against the dataset on the heap, the
// write path folds inserts into rebuilt bases under queries, and the mapping
// — which nothing hands back early — is released when the server closes the
// engine Open returned, after its pool has drained.
func TestMmapExternalDatasetMutableServe(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ds, err := dataset.Load(rng, "uniform", "", 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	ds.Metric = metric.NewLP(2.5)
	dsf := pointsOf(ds)
	path := filepath.Join(t.TempDir(), "pointless.frozen")
	if err := runFreeze(io.Discard, path, distperm.OpenConfig{Dataset: dsf, Seed: 12, Index: "distperm", K: 6}); err != nil {
		t.Fatal(err)
	}
	srv, src, err := boot(distperm.OpenConfig{Dataset: dsf, Load: path, Mmap: true, Workers: 2, Partition: "roundrobin", RebuildThreshold: 32},
		dpserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "index mapped") {
		t.Errorf("source label %q, want the external-dataset open", src)
	}
	mapped := distperm.ReadMmapStats().MappedBytes
	ts := httptest.NewServer(srv)
	c := client.New(ts.URL)
	for round := 0; round < 3; round++ {
		rebuilds := int64(round)
		if _, err := c.InsertBatch(context.Background(), dataset.UniformVectors(rng, 40, 3)); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			st, err := c.Stats(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if st.Mutation.Rebuilds > rebuilds {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: the background rebuild did not fold the inserts", round)
			}
			// Reads keep arriving while the base is being replaced.
			if _, err := c.KNN(context.Background(), ds.Points[round], 3); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			got, err := c.KNN(context.Background(), ds.Points[i*7], 4)
			if err != nil {
				t.Fatal(err)
			}
			if got[0].ID != i*7 || got[0].Distance != 0 {
				t.Fatalf("round %d: self-query %d answered %v", round, i*7, got)
			}
		}
	}
	if now := distperm.ReadMmapStats().MappedBytes; mapped > 0 && now < mapped {
		t.Errorf("mapped bytes fell %d → %d under a live engine", mapped, now)
	}
	ts.Close()
	srv.Close()
	if now := distperm.ReadMmapStats().MappedBytes; mapped > 0 && now >= mapped {
		t.Errorf("closing the server left %d bytes mapped (%d before it)", now, mapped)
	}
}

// TestServeOps covers the private ops listener: health/readiness mirror
// the gate's state, /metrics answers 503 while loading and valid
// exposition once the store is published, and the pprof index is mounted.
func TestServeOps(t *testing.T) {
	gate := dpserver.NewGate()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveOps(ctx, ln, gate) }()
	base := "http://" + ln.Addr().String()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Loading: alive, not ready, no metrics yet.
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("loading /healthz = %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("loading /readyz = %d, want 503", code)
	}
	if code, _ := get("/metrics"); code != http.StatusServiceUnavailable {
		t.Errorf("loading /metrics = %d, want 503", code)
	}

	// Publish a server: readiness flips and /metrics serves the registry.
	rng := rand.New(rand.NewSource(21))
	ds, err := dataset.Load(rng, "uniform", "", 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv, _, err := boot(distperm.OpenConfig{Dataset: pointsOf(ds), Index: "distperm", K: 6, Workers: 2}, dpserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	gate.SetReady(srv)
	defer srv.Close()
	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Errorf("ready /readyz = %d %q", code, body)
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("ready /metrics = %d", code)
	}
	if !strings.Contains(body, "\n# TYPE distperm_engine_workers gauge\n") {
		t.Error("ops /metrics missing distperm_engine_workers")
	}
	if code, body := get("/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Errorf("pprof cmdline = %d %q", code, body)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serveOps: %v", err)
	}
}
