package dpserver

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distperm/pkg/distperm"
)

// mockBackend is the whole surface the Coalescer consumes — the one Search
// method. It answers each query with its own encoded identity (ID = the
// query vector's first coordinate, Distance = K + Radius) and records every
// batch it receives, so tests can assert both correctness (every caller got
// its own answer back) and batching behaviour (how the calls were grouped).
//
// The coalescer batches only behind a busy backend, so the mock can be
// gated: with gate set, every Search first announces its batch size on
// entered and then blocks until the test sends the gate one token (or
// closes it).
type mockBackend struct {
	mu      sync.Mutex
	batches []batchRecord
	err     error
	gate    chan struct{}
	entered chan int
	delay   func() // optional work inside Search, after the gate
}

type batchRecord struct {
	q    distperm.Query
	size int
}

// gatedBackend's entered channel is buffered past the number of batches any
// gated test submits, so a Search the test never asks about cannot block
// announcing itself.
func gatedBackend() *mockBackend {
	return &mockBackend{gate: make(chan struct{}), entered: make(chan int, 1024)}
}

func (m *mockBackend) Search(qs []distperm.Point, q distperm.Query) ([][]distperm.Result, []distperm.ApproxStats, error) {
	m.mu.Lock()
	m.batches = append(m.batches, batchRecord{q: q, size: len(qs)})
	err := m.err
	m.mu.Unlock()
	if m.gate != nil {
		m.entered <- len(qs)
		<-m.gate
	}
	if m.delay != nil {
		m.delay()
	}
	if err != nil {
		return nil, nil, err
	}
	out := make([][]distperm.Result, len(qs))
	for i, p := range qs {
		out[i] = []distperm.Result{{ID: int(p.(distperm.Vector)[0]), Distance: float64(q.K) + q.Radius}}
	}
	return out, nil, nil
}

func (m *mockBackend) records() []batchRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]batchRecord(nil), m.batches...)
}

// waitFor polls cond for up to 10 s — the tests' only clock; nothing below
// asserts an upper bound tighter than "did not hang".
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// waitEntered returns the size of the next batch to reach the gated backend.
func (m *mockBackend) waitEntered(t *testing.T) int {
	t.Helper()
	select {
	case n := <-m.entered:
		return n
	case <-time.After(10 * time.Second):
		t.Fatal("no batch reached the backend")
		return 0
	}
}

// waitQueued blocks until n queries have been enqueued in co.
func waitQueued(t *testing.T, co *Coalescer, n int64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d enqueued queries", n), func() bool {
		_, queries := co.Counters()
		return queries >= n
	})
}

func inflight(co *Coalescer) int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.inflight
}

// holderID is the identity of the query busyCoalescer parks in the backend.
const holderID = 1000

// busyCoalescer returns a coalescer over a gated backend whose whole
// capacity (forced to 1, whatever GOMAXPROCS is here) is taken by one query
// held inside Search: every later arrival finds the engine busy and queues.
// The held call's outcome arrives on the returned channel once the test
// lets it through the gate.
func busyCoalescer(t *testing.T, max int, wait time.Duration) (*Coalescer, *mockBackend, <-chan error) {
	t.Helper()
	m := gatedBackend()
	co := NewCoalescer(m, max, wait)
	co.capacity = 1
	held := make(chan error, 1)
	go func() {
		rs, info, err := co.Search(distperm.Vector{holderID}, distperm.Query{K: 3}, "")
		if err == nil && (rs[0].ID != holderID || info.Reason != FlushIdle || info.Size != 1) {
			err = fmt.Errorf("held query got %v via %+v", rs, info)
		}
		held <- err
	}()
	if n := m.waitEntered(t); n != 1 {
		t.Fatalf("held query reached the backend in a batch of %d", n)
	}
	return co, m, held
}

// call is one identity query's outcome.
type call struct {
	id   int
	rs   []distperm.Result
	info FlushInfo
	err  error
}

// fire starts n concurrent Search calls for q with identities base..base+n-1
// and returns the channel their outcomes arrive on.
func fire(co *Coalescer, base, n int, q distperm.Query) <-chan call {
	out := make(chan call, n)
	for i := base; i < base+n; i++ {
		go func(i int) {
			rs, info, err := co.Search(distperm.Vector{float64(i)}, q, "")
			out <- call{id: i, rs: rs, info: info, err: err}
		}(i)
	}
	return out
}

// collect receives n outcomes and checks each caller got its own answer to
// q, flushed for wantReason ("" accepts any).
func collect(t *testing.T, out <-chan call, n int, q distperm.Query, wantReason string) []call {
	t.Helper()
	calls := make([]call, 0, n)
	for len(calls) < n {
		select {
		case c := <-out:
			calls = append(calls, c)
			want := float64(q.K) + q.Radius
			switch {
			case c.err != nil:
				t.Errorf("query %d: %v", c.id, c.err)
			case len(c.rs) != 1 || c.rs[0].ID != c.id ||
				(c.rs[0].Distance != want && !(math.IsNaN(want) && math.IsNaN(c.rs[0].Distance))):
				t.Errorf("query %d got %v", c.id, c.rs)
			case wantReason != "" && c.info.Reason != wantReason:
				t.Errorf("query %d flushed for %q, want %q", c.id, c.info.Reason, wantReason)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d callers answered", len(calls), n)
		}
	}
	return calls
}

// TestCoalescerIdle: an idle engine never waits for company. With a
// one-minute window, a lone query still flushes at once, alone, for reason
// "idle" — and so does the next one, since the first has left the backend.
func TestCoalescerIdle(t *testing.T) {
	m := &mockBackend{}
	co := NewCoalescer(m, 16, time.Minute)
	defer co.Close()
	q := distperm.Query{K: 3}
	for i := 0; i < 3; i++ {
		for _, c := range collect(t, fire(co, i, 1, q), 1, q, FlushIdle) {
			if c.info.Size != 1 {
				t.Errorf("idle flush carried %d queries", c.info.Size)
			}
		}
	}
	if recs := m.records(); len(recs) != 3 {
		t.Errorf("backend saw %+v, want three batches of one", recs)
	}
	if batches, queries := co.Counters(); batches != 3 || queries != 3 {
		t.Errorf("Counters() = (%d, %d), want (3, 3)", batches, queries)
	}
	if n := inflight(co); n != 0 {
		t.Errorf("in-flight count = %d after the last answer, want 0", n)
	}
}

// TestCoalescerDrain: arrivals behind a full engine reach the backend as
// ONE batch, submitted by the flush that frees the capacity — not by a
// timer (the window is a minute) — and each caller gets its own answer.
func TestCoalescerDrain(t *testing.T) {
	co, m, held := busyCoalescer(t, 16, time.Minute)
	defer co.Close()
	q := distperm.Query{K: 3}
	out := fire(co, 0, 5, q)
	waitQueued(t, co, 6)
	if recs := m.records(); len(recs) != 1 {
		t.Fatalf("queued queries reached a busy backend: %+v", recs)
	}
	m.gate <- struct{}{} // the held query finishes …
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if n := m.waitEntered(t); n != 5 { // … and its flush drains the queue
		t.Fatalf("drained batch carried %d queries, want 5", n)
	}
	m.gate <- struct{}{}
	for _, c := range collect(t, out, 5, q, FlushDrain) {
		if c.info.Size != 5 {
			t.Errorf("query %d: batch size %d, want 5", c.id, c.info.Size)
		}
	}
	if batches, queries := co.Counters(); batches != 2 || queries != 6 {
		t.Errorf("Counters() = (%d, %d), want (2, 6)", batches, queries)
	}
	if n := inflight(co); n != 0 {
		t.Errorf("in-flight count = %d, want 0", n)
	}
}

// TestCoalescerFill: while the engine is busy, a batch still flushes the
// moment it holds max queries: 64 arrivals at max=16 behind a held backend
// reach it as exactly 4 batches of 16, with no timer and no drain involved.
func TestCoalescerFill(t *testing.T) {
	co, m, held := busyCoalescer(t, 16, time.Minute)
	defer co.Close()
	q := distperm.Query{K: 3}
	out := fire(co, 0, 64, q)
	for i := 0; i < 4; i++ {
		if n := m.waitEntered(t); n != 16 {
			t.Fatalf("batch %d carried %d queries, want 16", i, n)
		}
	}
	close(m.gate)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	collect(t, out, 64, q, FlushFull)
	recs := m.records()
	if len(recs) != 5 {
		t.Fatalf("backend saw %d batches, want the held one + 4: %+v", len(recs), recs)
	}
	for _, rec := range recs[1:] {
		if rec.size != 16 || rec.q != q {
			t.Errorf("bad batch %+v", rec)
		}
	}
	if batches, queries := co.Counters(); batches != 5 || queries != 65 {
		t.Errorf("Counters() = (%d, %d), want (5, 65)", batches, queries)
	}
}

// TestCoalescerWindow: BatchWait is the backstop. A pending batch flushes
// when the window elapses even though the backend never frees capacity —
// a query's wait behind a stuck engine is bounded, not open-ended.
func TestCoalescerWindow(t *testing.T) {
	co, m, held := busyCoalescer(t, 1024, 2*time.Millisecond)
	defer co.Close()
	q := distperm.Query{K: 2}
	out := fire(co, 0, 3, q)
	for total := 0; total < 3; { // the arrivals may straddle two windows
		total += m.waitEntered(t)
	}
	select {
	case err := <-held:
		t.Fatalf("the held query left the backend (%v); the timer was not what flushed", err)
	default:
	}
	close(m.gate)
	collect(t, out, 3, q, FlushTimer)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
}

// TestCoalescerKeysDoNotMix: kNN calls with different k, and range calls,
// never share an engine batch, however long they queue together.
func TestCoalescerKeysDoNotMix(t *testing.T) {
	co, m, held := busyCoalescer(t, 8, time.Minute)
	defer co.Close()
	keys := []distperm.Query{{K: 1}, {K: 5}, {Radius: 0.25}}
	outs := make([]<-chan call, len(keys))
	for i, q := range keys {
		outs[i] = fire(co, 10*i, 4, q)
	}
	waitQueued(t, co, 13)
	close(m.gate)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	for i, q := range keys {
		collect(t, outs[i], 4, q, FlushDrain)
	}
	recs := m.records()[1:]
	if len(recs) != 3 {
		t.Fatalf("backend saw %+v, want one batch per key", recs)
	}
	seen := map[distperm.Query]bool{}
	for _, rec := range recs {
		if rec.size != 4 || seen[rec.q] {
			t.Errorf("mixed or split batch %+v", rec)
		}
		seen[rec.q] = true
	}
}

// TestCoalescerNoWindow: max=1 (and wait=0) degrade to per-call submission
// without deadlocking — the zero Config must serve — whether or not the
// engine is busy.
func TestCoalescerNoWindow(t *testing.T) {
	for _, co := range []*Coalescer{
		NewCoalescer(&mockBackend{}, 1, time.Minute),
		NewCoalescer(&mockBackend{}, 8, 0),
		NewCoalescer(&mockBackend{}, 0, -time.Second),
	} {
		co.capacity = 0 // always "busy": direct must not depend on capacity
		q := distperm.Query{K: 1}
		collect(t, fire(co, 0, 4, q), 4, q, FlushDirect)
		if batches, queries := co.Counters(); batches != 4 || queries != 4 {
			t.Errorf("Counters() = (%d, %d), want (4, 4)", batches, queries)
		}
		co.Close()
	}
}

// TestCoalescerClose: waiters in a still-pending batch are flushed through
// the backend by Close — real answers, no hang — and calls after Close fail
// with ErrCoalescerClosed.
func TestCoalescerClose(t *testing.T) {
	co, m, held := busyCoalescer(t, 1024, time.Minute)
	q := distperm.Query{K: 2}
	out := fire(co, 0, 5, q)
	waitQueued(t, co, 6)
	closed := make(chan struct{})
	go func() { co.Close(); close(closed) }()
	if n := m.waitEntered(t); n != 5 {
		t.Fatalf("Close flushed a batch of %d, want 5", n)
	}
	close(m.gate)
	collect(t, out, 5, q, FlushClose)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	<-closed
	co.Close() // idempotent
	if _, err := co.KNN(distperm.Vector{0}, 1); err != ErrCoalescerClosed {
		t.Errorf("KNN after Close = %v, want ErrCoalescerClosed", err)
	}
}

// TestCoalescerCloseWaitsForRunningFlush: Close must not return while a
// flush it does not own is still inside the backend, or Server.Close would
// close the engine under it and its waiters would be answered "engine is
// closed". The backend here holds its query until Close has been called.
func TestCoalescerCloseWaitsForRunningFlush(t *testing.T) {
	var engineClosed atomic.Bool
	m := gatedBackend()
	m.delay = func() {
		if engineClosed.Load() {
			t.Error("the engine was closed under a running flush")
		}
	}
	co := NewCoalescer(m, 16, time.Minute)
	q := distperm.Query{K: 2}
	out := fire(co, 7, 1, q) // an idle flush, run by its caller
	m.waitEntered(t)
	closed := make(chan struct{})
	go func() {
		co.Close()
		engineClosed.Store(true) // what Server.Close does next
		close(closed)
	}()
	waitFor(t, "Close to be called", func() bool {
		co.mu.Lock()
		defer co.mu.Unlock()
		return co.closed
	})
	select {
	case <-closed:
		t.Fatal("Close returned while a flush was inside the backend")
	case <-time.After(20 * time.Millisecond):
	}
	close(m.gate)
	collect(t, out, 1, q, FlushIdle)
	<-closed
}

// TestCoalescerNaNRadius: a NaN radius must batch and flush like any other
// — the batch key holds the radius's bit pattern, because a NaN-valued
// float key would never equal itself in the pending map: a second arrival
// would not find the first one's batch, and neither would the timer.
func TestCoalescerNaNRadius(t *testing.T) {
	q := distperm.Query{Radius: math.NaN()}
	co, m, held := busyCoalescer(t, 64, time.Minute)
	out := fire(co, 0, 2, q)
	waitQueued(t, co, 3)
	close(m.gate)
	collect(t, out, 2, q, FlushDrain)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	co.Close()
	if recs := m.records(); len(recs) != 2 || recs[1].size != 2 || !math.IsNaN(recs[1].q.Radius) {
		t.Errorf("backend saw %+v, want the held batch and one NaN-radius batch of 2", recs)
	}

	// And the timer backstop finds it too.
	co, m, held = busyCoalescer(t, 64, time.Millisecond)
	defer co.Close()
	out = fire(co, 0, 1, q)
	m.waitEntered(t)
	close(m.gate)
	collect(t, out, 1, q, FlushTimer)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
}

// TestCoalescerBackendError: a failing backend fails every waiter of a
// drained batch with the backend's error.
func TestCoalescerBackendError(t *testing.T) {
	co, m, held := busyCoalescer(t, 8, time.Minute)
	defer co.Close()
	down := errors.New("backend down")
	out := fire(co, 0, 4, distperm.Query{K: 2})
	waitQueued(t, co, 5)
	m.mu.Lock()
	m.err = down
	m.mu.Unlock()
	close(m.gate)
	if err := <-held; err != nil { // it entered the backend before the outage
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if c := <-out; c.err != down || c.info.Reason != FlushDrain || c.info.Size != 4 {
			t.Errorf("query %d: err %v via %+v, want the backend's error from a drained batch of 4", c.id, c.err, c.info)
		}
	}
}

// TestCoalescerStorm: 64 goroutines × 2000 calls over mixed keys against a
// backend of random latency, at this machine's real capacity. Every call is
// answered with its own answer, the in-flight count returns to 0, and the
// books balance: every enqueued query was flushed in exactly one batch.
func TestCoalescerStorm(t *testing.T) {
	const goroutines = 64
	calls := 2000
	if testing.Short() {
		calls = 200
	}
	m := &mockBackend{delay: func() {
		if r := rand.Intn(64); r < 8 {
			time.Sleep(time.Duration(r) * 10 * time.Microsecond)
		}
	}}
	co := NewCoalescer(m, 16, time.Millisecond)
	var flushed, flushes atomic.Int64
	co.OnFlush = func(size int, reason string) {
		flushed.Add(int64(size))
		flushes.Add(1)
		if !slices.Contains(FlushReasons, reason) {
			t.Errorf("flush reason %q is not in FlushReasons", reason)
		}
	}
	keys := []distperm.Query{{K: 1}, {K: 7}, {Radius: 0.5}, {Radius: math.NaN()}}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				id, q := g*calls+i, keys[(g+i)%len(keys)]
				rs, info, err := co.Search(distperm.Vector{float64(id)}, q, "")
				want := float64(q.K) + q.Radius
				if err != nil || len(rs) != 1 || rs[0].ID != id ||
					(rs[0].Distance != want && !math.IsNaN(want)) || info.Size < 1 || info.Size > 16 {
					t.Errorf("call %d (%+v): %v, %v via %+v", id, q, rs, err, info)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := inflight(co); n != 0 {
		t.Errorf("in-flight count = %d after every call returned, want 0", n)
	}
	co.Close()
	batches, queries := co.Counters()
	if want := int64(goroutines * calls); queries != want || flushed.Load() != want || batches != flushes.Load() {
		t.Errorf("queries = %d, Σ batch sizes = %d (want %d each); batches = %d, flushes observed = %d",
			queries, flushed.Load(), want, batches, flushes.Load())
	}
	total := 0
	for _, rec := range m.records() {
		total += rec.size
	}
	if total != goroutines*calls {
		t.Errorf("backend saw %d queries, want %d", total, goroutines*calls)
	}
}

// TestCoalescerCloseUnderTraffic: Close in the middle of a storm leaves no
// caller blocked: each one gets a real answer or ErrCoalescerClosed.
func TestCoalescerCloseUnderTraffic(t *testing.T) {
	m := &mockBackend{delay: func() { time.Sleep(50 * time.Microsecond) }}
	co := NewCoalescer(m, 8, time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				rs, err := co.KNN(distperm.Vector{float64(g)}, 1+i%2)
				if err == ErrCoalescerClosed {
					return
				}
				if err != nil || rs[0].ID != g {
					t.Errorf("goroutine %d: %v %v", g, rs, err)
					return
				}
			}
		}(g)
	}
	waitQueued(t, co, 500)
	co.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("callers still blocked after Close")
	}
	if n := inflight(co); n != 0 {
		t.Errorf("in-flight count = %d after Close, want 0", n)
	}
}
