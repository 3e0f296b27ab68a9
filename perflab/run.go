package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"distperm/internal/metric"
	"distperm/internal/sisap"
	"distperm/pkg/distperm"
	"distperm/pkg/dpserver"
	"distperm/pkg/dpserver/client"
)

// minTailSamples is the fewest samples a round needs before its own p95 is
// reported; with fewer, the percentile is taken over all rounds pooled.
const minTailSamples = 200

// session is one workload being measured: its live server, its two
// closed-loop clients with their request streams, and the running totals.
type session struct {
	def   *workloadDef
	sc    scale
	st    *store
	truth *truth
	live  *live
	work  string // scratch directory to remove at close

	setups []float64 // seconds, one per fresh set-up

	cl       []*loopClient
	poolWant [][]sisap.Result // cache-hot: expected answer per pool entry

	ops, failed int64
	firstErr    error
	recall      float64
	bitsPerPt   float64
	statsBefore dpserver.StatsResponse
	proc        procSnapshot // summed over the measured windows only
	rounds      []roundResult
}

// loopClient is one closed-loop caller: it sends its next request only
// after the previous answer arrived.
type loopClient struct {
	c   *client.Client
	gen *generator
	// read-your-writes state on mixed-rw-sharded
	insertedID int
	deleted    map[int]bool

	readMs, writeMs []float64
	queries         int64
	ops, failed     int64
	firstErr        error
}

// roundResult is one measured window.
type roundResult struct {
	seconds float64
	queries int64
	readMs  []float64 // sorted; one per read request
	writeMs []float64 // sorted; one per write request
}

func (s *session) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// openSession generates the workload's inputs and oracle, then sets it up
// sc.Setups times, keeping the last server for the measurement.
func openSession(ctx context.Context, def *workloadDef, seed int64, sc scale, st *store, work string) (*session, error) {
	s := &session{def: def, sc: sc, st: st, work: work}
	pts := st.points()
	var pool []metric.Point
	verify := queries(seed, "verify/"+def.Name, pts, sc.Verify)
	if def.Name == "cache-hot" {
		// The verification set is the head of the pool, so every answer to
		// it can be checked against the oracle during the rounds too.
		pool = queries(seed, "pool", pts, sc.Pool)
		verify = pool[:sc.Verify]
	}
	s.truth = oracle(st, verify)

	env := &bootEnv{st: st, spec: indexSpec()}
	if def.Name == "approx-mmap" {
		env.frozen = filepath.Join(work, "s1.frozen")
		idx, err := distperm.Build(st.db, env.spec)
		if err == nil {
			err = writeFrozen(idx.(*distperm.PermIndex), env.frozen)
		}
		if err != nil {
			return nil, fmt.Errorf("approx-mmap: freezing S1: %w", err)
		}
	}
	for i := 0; i < sc.Setups; i++ {
		if s.live != nil {
			if err := s.live.close(); err != nil {
				return nil, err
			}
			s.live = nil
		}
		dir, err := os.MkdirTemp(work, "boot-")
		if err != nil {
			return nil, err
		}
		env.dir = dir
		runtime.GC() // each set-up starts from the same heap state
		l, d, err := setUp(ctx, def, env, s.truth)
		if err != nil {
			return nil, err
		}
		s.live = l
		s.setups = append(s.setups, d.Seconds())
	}
	for c := 0; c < clients; c++ {
		s.cl = append(s.cl, &loopClient{
			c:       s.live.newClient(),
			gen:     newGenerator(seed, def.Name, c, pts, pool),
			deleted: map[int]bool{},
		})
	}
	return s, nil
}

func (s *session) close() error {
	for _, lc := range s.cl {
		closeClient(lc.c)
	}
	var err error
	if s.live != nil {
		err = s.live.close()
	}
	os.RemoveAll(s.work)
	return err
}

// eachClient runs f on every client concurrently and waits.
func (s *session) eachClient(f func(i int, lc *loopClient)) {
	var wg sync.WaitGroup
	for i, lc := range s.cl {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i, lc)
		}()
	}
	wg.Wait()
}

// gate is the correctness gate: the whole verification set over the socket
// against the oracle, before anything is timed.
func (s *session) gate(ctx context.Context) {
	t := s.truth
	n := len(t.qs)
	got := make([][]sisap.Result, n)
	errs := make([]error, n)
	totalBuckets := 0
	switch s.def.Name {
	case "batch64-uniform":
		s.eachClient(func(w int, lc *loopClient) {
			for lo := w * batchSize; lo < n; lo += clients * batchSize {
				hi := min(lo+batchSize, n)
				out, err := lc.c.KNNBatch(ctx, t.qs[lo:hi], knnK)
				if err == nil && len(out) != hi-lo {
					err = fmt.Errorf("%d answers for %d queries", len(out), hi-lo)
				}
				for i := lo; i < hi; i++ {
					if err != nil {
						errs[i] = err
					} else {
						got[i] = out[i-lo]
					}
				}
			}
		})
	case "approx-mmap":
		buckets := make([]int, clients)
		s.eachClient(func(w int, lc *loopClient) {
			for i := w; i < n; i += clients {
				var aw *dpserver.ApproxWire
				got[i], aw, errs[i] = lc.c.KNNApprox(ctx, t.qs[i], knnK, nprobe)
				if errs[i] == nil && aw == nil {
					errs[i] = fmt.Errorf("approximate answer carries no probe accounting")
				}
				if errs[i] == nil {
					errs[i] = checkAnswer(t.qs[i], got[i], s.st.points())
					buckets[w] = aw.TotalBuckets
				}
			}
		})
		totalBuckets = buckets[0]
	default:
		s.eachClient(func(w int, lc *loopClient) {
			for i := w; i < n; i += clients {
				got[i], errs[i] = lc.c.KNN(ctx, t.qs[i], knnK)
			}
		})
	}
	sum := 0.0
	for i := range got {
		s.ops++
		switch {
		case errs[i] != nil:
			s.fail(fmt.Errorf("%s: verification query %d: %w", s.def.Name, i, errs[i]))
		case s.def.Name == "approx-mmap":
			sum += recallOf(got[i], t.want[i])
		case !sameAnswer(got[i], t.want[i]):
			s.fail(fmt.Errorf("%s: verification query %d: answer differs from the LinearScan oracle", s.def.Name, i))
		default:
			sum++
		}
	}
	s.recall = sum / float64(n)

	if s.def.Name == "approx-mmap" {
		// Probing every bucket must degrade to the exact scan, byte for byte.
		c := s.cl[0].c
		for i := 0; i < min(s.sc.ExactProbe, n); i++ {
			s.ops++
			all, aw, err := c.KNNApprox(ctx, t.qs[i], knnK, totalBuckets)
			switch {
			case err != nil:
				s.fail(fmt.Errorf("approx-mmap: full-coverage query %d: %w", i, err))
			case !aw.Exact || !sameAnswer(all, t.want[i]):
				s.fail(fmt.Errorf("approx-mmap: nprobe=%d (all buckets) is not identical to exact on query %d", totalBuckets, i))
			}
		}
	}
	if s.def.Name == "cache-hot" {
		s.prewarm(ctx)
	}
	info, err := s.cl[0].c.IndexInfo(ctx)
	if err != nil || info.N == 0 {
		s.ops++
		s.fail(fmt.Errorf("%s: GET /v1/index: n=%d, %v", s.def.Name, info.N, err))
		return
	}
	s.bitsPerPt = float64(info.Bits) / float64(info.N)
}

// prewarm fetches the rest of the cache-hot pool once (the gate already
// fetched the head), remembering each answer so that every later hit can be
// checked against it.
func (s *session) prewarm(ctx context.Context) {
	pool := s.cl[0].gen.pool
	s.poolWant = make([][]sisap.Result, len(pool))
	copy(s.poolWant, s.truth.want)
	head := len(s.truth.want)
	errs := make([]error, len(pool))
	s.eachClient(func(w int, lc *loopClient) {
		for i := head + w; i < len(pool); i += clients {
			s.poolWant[i], errs[i] = lc.c.KNN(ctx, pool[i], knnK)
			if errs[i] == nil {
				errs[i] = checkAnswer(pool[i], s.poolWant[i], s.st.points())
			}
		}
	})
	for i := head; i < len(pool); i++ {
		s.ops++
		if errs[i] != nil {
			s.fail(fmt.Errorf("cache-hot: pre-warming pool entry %d: %w", i, errs[i]))
		}
	}
}

// do sends one generated op and verifies the answer. It returns the
// request's latency and how many queries it answered.
func (s *session) do(ctx context.Context, lc *loopClient, o op) (time.Duration, int, error) {
	pts := s.st.points()
	start := time.Now()
	switch o.kind {
	case opKNN, opReadback:
		got, err := lc.c.KNN(ctx, o.q, knnK)
		d := time.Since(start)
		if err != nil {
			return d, 0, err
		}
		if err := checkAnswer(o.q, got, pts); err != nil {
			return d, 0, err
		}
		if o.kind == opReadback && (got[0].ID != lc.insertedID || got[0].Distance != 0) {
			return d, 0, fmt.Errorf("read-your-writes: inserted point %d is not its own nearest neighbour (got ID %d at %v)", lc.insertedID, got[0].ID, got[0].Distance)
		}
		for _, r := range got {
			if lc.deleted[r.ID] {
				return d, 0, fmt.Errorf("read-your-writes: deleted ID %d reappeared", r.ID)
			}
		}
		return d, 1, nil
	case opPool:
		got, err := lc.c.KNN(ctx, o.q, knnK)
		d := time.Since(start)
		if err != nil {
			return d, 0, err
		}
		if !sameAnswer(got, s.poolWant[o.id]) {
			return d, 0, fmt.Errorf("pool entry %d: cached answer differs from the verified one", o.id)
		}
		return d, 1, nil
	case opApprox:
		got, _, err := lc.c.KNNApprox(ctx, o.q, knnK, nprobe)
		d := time.Since(start)
		if err != nil {
			return d, 0, err
		}
		return d, 1, checkAnswer(o.q, got, pts)
	case opBatch:
		got, err := lc.c.KNNBatch(ctx, o.qs, knnK)
		d := time.Since(start)
		if err != nil {
			return d, 0, err
		}
		if len(got) != len(o.qs) {
			return d, 0, fmt.Errorf("%d answers for %d queries", len(got), len(o.qs))
		}
		for i := range got {
			if err := checkAnswer(o.qs[i], got[i], pts); err != nil {
				return d, 0, fmt.Errorf("batch query %d: %w", i, err)
			}
		}
		return d, len(got), nil
	case opInsert:
		id, err := lc.c.Insert(ctx, o.q)
		d := time.Since(start)
		lc.insertedID = id
		return d, 0, err
	case opDelete:
		err := lc.c.Delete(ctx, o.id)
		d := time.Since(start)
		if err == nil {
			lc.deleted[o.id] = true
		}
		return d, 0, err
	}
	panic("perflab: unknown op kind")
}

// window drives both clients for d and returns what they completed.
// Requests in flight at the deadline finish and count; the round's length
// is the time until the last of them returned. With record false the
// samples are dropped (warm-up) but failures still count.
func (s *session) window(ctx context.Context, d time.Duration, record bool) roundResult {
	for _, lc := range s.cl {
		lc.readMs, lc.writeMs, lc.queries = lc.readMs[:0], lc.writeMs[:0], 0
	}
	start := time.Now()
	deadline := start.Add(d)
	s.eachClient(func(_ int, lc *loopClient) {
		for time.Now().Before(deadline) {
			o := lc.gen.next()
			lat, nq, err := s.do(ctx, lc, o)
			lc.ops++
			if err != nil {
				lc.failed++
				if lc.firstErr == nil {
					lc.firstErr = fmt.Errorf("%s: %w", s.def.Name, err)
				}
				continue // a failed request has no latency to report
			}
			ms := float64(lat) / float64(time.Millisecond)
			if o.isWrite() {
				lc.writeMs = append(lc.writeMs, ms)
			} else {
				lc.readMs = append(lc.readMs, ms)
				lc.queries += int64(nq)
			}
		}
	})
	r := roundResult{seconds: time.Since(start).Seconds()}
	for _, lc := range s.cl {
		s.ops += lc.ops
		s.failed += lc.failed
		if s.firstErr == nil {
			s.firstErr = lc.firstErr
		}
		lc.ops, lc.failed = 0, 0
		if record {
			r.queries += lc.queries
			r.readMs = append(r.readMs, lc.readMs...)
			r.writeMs = append(r.writeMs, lc.writeMs...)
		}
	}
	sort.Float64s(r.readMs)
	sort.Float64s(r.writeMs)
	return r
}

// warmup runs the discarded warm-up window and takes the "before" scrapes
// the per-layer counters are measured from.
func (s *session) warmup(ctx context.Context) {
	s.window(ctx, s.sc.Warmup, false)
	st, err := s.cl[0].c.Stats(ctx)
	if err != nil {
		s.ops++
		s.fail(fmt.Errorf("%s: GET /v1/stats: %w", s.def.Name, err))
	}
	s.statsBefore = st
}

// round runs one measured window, bracketed by process snapshots so that in
// an interleaved run another workload's work is not charged to this one.
func (s *session) round(ctx context.Context) {
	runtime.GC() // every window starts from a collected heap
	before := readProc()
	s.rounds = append(s.rounds, s.window(ctx, s.sc.Window, true))
	s.proc.addDelta(before, readProc())
}

// percentile is the nearest-rank q-quantile of sorted; 0 when empty.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
