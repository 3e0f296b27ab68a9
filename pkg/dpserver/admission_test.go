package dpserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distperm/internal/dataset"
	"distperm/pkg/distperm"
)

// mockBackend is the whole surface the admission gate consumes — the one
// Search method. It answers each query with its own encoded identity (ID =
// the query vector's first coordinate, Distance = K + Radius), records
// every search it receives, and tracks how many searches are inside it at
// once, so tests can assert correctness (every caller got its own answer),
// order (who was admitted when) and the gate's bound (peak).
type mockBackend struct {
	mu       sync.Mutex
	searches []searchRecord
	err      error
	delay    func() // optional work inside Search

	inside, peak atomic.Int64
}

type searchRecord struct {
	q  distperm.Query
	id int // the first query's identity
	n  int // queries in the search
}

func (m *mockBackend) Search(qs []distperm.Point, q distperm.Query) ([][]distperm.Result, []distperm.ApproxStats, error) {
	n := m.inside.Add(1)
	defer m.inside.Add(-1)
	for p := m.peak.Load(); n > p && !m.peak.CompareAndSwap(p, n); p = m.peak.Load() {
	}
	m.mu.Lock()
	m.searches = append(m.searches, searchRecord{q: q, id: identity(qs[0]), n: len(qs)})
	err := m.err
	m.mu.Unlock()
	if m.delay != nil {
		m.delay()
	}
	if err != nil {
		return nil, nil, err
	}
	out := make([][]distperm.Result, len(qs))
	for i, p := range qs {
		out[i] = []distperm.Result{{ID: identity(p), Distance: float64(q.K) + q.Radius}}
	}
	return out, nil, nil
}

func identity(p distperm.Point) int { return int(p.(distperm.Vector)[0]) }

func (m *mockBackend) records() []searchRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]searchRecord(nil), m.searches...)
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

// parked counts the goroutines blocked in admission.search — each one
// queued on the slot channel, which is what arrival means to the gate: the
// only operation there that blocks is the send of a slot.
func parked() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
		blocked := bytes.Contains(g, []byte(" [select")) || bytes.Contains(g, []byte(" [chan send"))
		if blocked && bytes.Contains(g, []byte("(*admission).search")) {
			n++
		}
	}
	return n
}

// waitParked waits until exactly n goroutines are queued at a gate.
func waitParked(t *testing.T, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d callers queued at the gate", n), func() bool { return parked() == n })
}

// fill takes every slot of a, as if GOMAXPROCS searches were inside the
// engine; each receive from a.slots frees one.
func fill(a *admission) {
	for i := 0; i < cap(a.slots); i++ {
		a.slots <- struct{}{}
	}
}

// knnCall is one identity kNN call's outcome through the shim.
type knnCall struct {
	id  int
	rs  []distperm.Result
	err error
}

// queue starts one KNN call per identity in ids, each only once the one
// before it is queued at co's (full) gate, and returns the channel their
// outcomes arrive on.
func queue(t *testing.T, co *Coalescer, k int, ids ...int) <-chan knnCall {
	t.Helper()
	out := make(chan knnCall, len(ids))
	base := parked()
	for i, id := range ids {
		go func() {
			rs, err := co.KNN(distperm.Vector{float64(id)}, k)
			out <- knnCall{id: id, rs: rs, err: err}
		}()
		waitParked(t, base+i+1)
	}
	return out
}

// collect receives n outcomes and checks each caller got its own answer
// for k.
func collect(t *testing.T, out <-chan knnCall, n, k int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case c := <-out:
			if c.err != nil || len(c.rs) != 1 || c.rs[0].ID != c.id || c.rs[0].Distance != float64(k) {
				t.Errorf("call %d: %v, %v", c.id, c.rs, c.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d callers answered", i, n)
		}
	}
}

// TestCoalescerIdle: an idle gate admits at once. Each lone call is one
// one-query Search of the backend with the caller's k.
func TestCoalescerIdle(t *testing.T) {
	m := &mockBackend{}
	co := NewCoalescer(m, 16, time.Minute)
	defer co.Close()
	for i := 0; i < 3; i++ {
		rs, err := co.KNN(distperm.Vector{float64(i)}, 3)
		if err != nil || len(rs) != 1 || rs[0].ID != i {
			t.Fatalf("call %d: %v, %v", i, rs, err)
		}
	}
	want := []searchRecord{{distperm.Query{K: 3}, 0, 1}, {distperm.Query{K: 3}, 1, 1}, {distperm.Query{K: 3}, 2, 1}}
	if got := m.records(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("backend saw %+v, want %+v", got, want)
	}
	if len(co.gate.slots) != 0 {
		t.Errorf("%d slots still taken after the last answer", len(co.gate.slots))
	}
}

// TestCoalescerNoWindow: NewCoalescer's batch size and window are ignored,
// degenerate values included; every gate admits per call.
func TestCoalescerNoWindow(t *testing.T) {
	for _, args := range []struct {
		max  int
		wait time.Duration
	}{{1, time.Minute}, {8, 0}, {0, -time.Second}} {
		m := &mockBackend{}
		co := NewCoalescer(m, args.max, args.wait)
		for i := 0; i < 4; i++ {
			if rs, err := co.KNN(distperm.Vector{float64(i)}, 1); err != nil || rs[0].ID != i {
				t.Errorf("%+v call %d: %v, %v", args, i, rs, err)
			}
		}
		if n := len(m.records()); n != 4 {
			t.Errorf("%+v: backend saw %d searches, want 4", args, n)
		}
	}
}

// TestCoalescerDrain: calls queued behind a full gate reach the backend
// one Search each, in the order they arrived, as slots free.
func TestCoalescerDrain(t *testing.T) {
	m := &mockBackend{}
	co := NewCoalescer(m, 16, time.Minute)
	fill(co.gate)
	out := queue(t, co, 3, 4, 0, 3, 1, 2)
	if n := len(m.records()); n != 0 {
		t.Fatalf("%d queued calls reached a full gate's backend", n)
	}
	<-co.gate.slots // one slot: the five pass through it one after another
	collect(t, out, 5, 3)
	var order []int
	for _, rec := range m.records() {
		order = append(order, rec.id)
	}
	if fmt.Sprint(order) != "[4 0 3 1 2]" {
		t.Errorf("admitted in order %v, want arrival order [4 0 3 1 2]", order)
	}
}

// TestCoalescerKeysDoNotMix: calls with different k queued together never
// share a Search: each reaches the backend alone, with its own k.
func TestCoalescerKeysDoNotMix(t *testing.T) {
	m := &mockBackend{}
	co := NewCoalescer(m, 8, time.Minute)
	fill(co.gate)
	outs := []<-chan knnCall{queue(t, co, 1, 10, 11)}
	outs = append(outs, queue(t, co, 5, 20, 21))
	for range cap(co.gate.slots) {
		<-co.gate.slots
	}
	collect(t, outs[0], 2, 1)
	collect(t, outs[1], 2, 5)
	recs := m.records()
	if len(recs) != 4 {
		t.Fatalf("backend saw %+v, want four searches", recs)
	}
	for _, rec := range recs {
		if rec.n != 1 || rec.q.K != 1+4*(rec.id/20) {
			t.Errorf("search %+v mixes or mislabels calls", rec)
		}
	}
}

// TestCoalescerClose: Close does nothing and may be repeated; a call after
// it is still answered by the backend, which Close never closes.
func TestCoalescerClose(t *testing.T) {
	co := NewCoalescer(&mockBackend{}, 8, time.Millisecond)
	co.Close()
	co.Close()
	if rs, err := co.KNN(distperm.Vector{7}, 2); err != nil || rs[0].ID != 7 {
		t.Errorf("KNN after Close = %v, %v", rs, err)
	}
}

// TestCoalescerCloseUnderTraffic: Close in the middle of a storm leaves no
// caller blocked or failed.
func TestCoalescerCloseUnderTraffic(t *testing.T) {
	co := NewCoalescer(&mockBackend{delay: func() { time.Sleep(50 * time.Microsecond) }}, 8, time.Millisecond)
	var calls atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if rs, err := co.KNN(distperm.Vector{float64(g)}, 1+i%2); err != nil || rs[0].ID != g {
					t.Errorf("goroutine %d: %v %v", g, rs, err)
					return
				}
				calls.Add(1)
			}
		}()
	}
	waitFor(t, "500 answered calls", func() bool { return calls.Load() >= 500 })
	co.Close()
	stop.Store(true)
	wg.Wait()
}

// TestCoalescerBackendError: the backend's error reaches the caller, and
// the slot comes back with it.
func TestCoalescerBackendError(t *testing.T) {
	down := errors.New("backend down")
	m := &mockBackend{err: down}
	co := NewCoalescer(m, 8, time.Minute)
	for range cap(co.gate.slots) + 1 {
		if _, err := co.KNN(distperm.Vector{0}, 2); !errors.Is(err, down) {
			t.Fatalf("KNN = %v, want the backend's error", err)
		}
	}
	m.mu.Lock()
	m.err = nil
	m.mu.Unlock()
	if rs, err := co.KNN(distperm.Vector{3}, 2); err != nil || rs[0].ID != 3 {
		t.Errorf("KNN after the outage = %v, %v", rs, err)
	}
}

// TestCoalescerStorm: 64 goroutines × 500 calls against a backend of
// random latency, at this machine's real GOMAXPROCS. Every call gets its
// own answer in a one-query Search, and at no moment are more searches
// inside the backend than the gate has slots.
func TestCoalescerStorm(t *testing.T) {
	const goroutines = 64
	calls := 500
	if testing.Short() {
		calls = 200
	}
	m := &mockBackend{delay: func() {
		if r := rand.Intn(64); r < 8 {
			time.Sleep(time.Duration(r) * 10 * time.Microsecond)
		}
	}}
	co := NewCoalescer(m, 16, time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				id, k := g*calls+i, 1+i%7
				if rs, err := co.KNN(distperm.Vector{float64(id)}, k); err != nil || len(rs) != 1 || rs[0].ID != id || rs[0].Distance != float64(k) {
					t.Errorf("call %d: %v, %v", id, rs, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if peak, slots := m.peak.Load(), int64(runtime.GOMAXPROCS(0)); peak > slots || peak < 1 {
		t.Errorf("%d searches inside the backend at once, gate has %d slots", peak, slots)
	}
	recs := m.records()
	if len(recs) != goroutines*calls {
		t.Errorf("backend saw %d searches, want %d", len(recs), goroutines*calls)
	}
	for _, rec := range recs {
		if rec.n != 1 {
			t.Fatalf("a search carried %d queries", rec.n)
		}
	}
}

// gatedServer is a Server over a real 200-point engine whose gate talks to
// m instead (nil keeps the engine), with the result cache off, so every
// query request reaches the gate.
func gatedServer(t *testing.T, m *mockBackend) *Server {
	t.Helper()
	rng := rand.New(rand.NewSource(47))
	db, err := distperm.NewDB(distperm.L2, dataset.UniformVectors(rng, 200, 3))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := distperm.Build(db, distperm.Spec{Index: "distperm", K: 6, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	e, err := distperm.NewEngine(db, idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(e, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if m != nil {
		s.admit.backend = m
	}
	return s
}

// post serves one request body on path through s and returns the recorder.
func post(ctx context.Context, s *Server, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequestWithContext(ctx, "POST", path, strings.NewReader(body)))
	return rec
}

// TestAdmissionOrder: with the server's gate full, queued requests — of
// every form — are admitted in arrival order.
func TestAdmissionOrder(t *testing.T) {
	m := &mockBackend{}
	s := gatedServer(t, m)
	fill(s.admit)
	bodies := []struct{ path, body string }{
		{"/v1/knn", `{"query":[3,0,0],"k":2}`},
		{"/v1/range", `{"query":[1,0,0],"r":0.5}`},
		{"/v1/knn", `{"queries":[[4,0,0],[9,0,0]],"k":1}`},
		{"/v1/knn", `{"query":[0,0,0],"k":2,"approx":true}`},
		{"/v1/knn", `{"query":[2,0,0],"k":3}`},
	}
	codes := make(chan int, len(bodies))
	for i, b := range bodies {
		go func() { codes <- post(context.Background(), s, b.path, b.body).Code }()
		waitParked(t, i+1)
	}
	<-s.admit.slots
	for range bodies {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("a queued request answered %d", code)
		}
	}
	var order []int
	for _, rec := range m.records() {
		order = append(order, rec.id)
	}
	if fmt.Sprint(order) != "[3 1 4 0 2]" {
		t.Errorf("admitted in order %v, want arrival order [3 1 4 0 2]", order)
	}
}

// TestAdmissionStorm: 64 concurrent HTTP callers mixing every query form
// never have more requests inside the engine than GOMAXPROCS, and each gets
// its own answer.
func TestAdmissionStorm(t *testing.T) {
	const callers = 64
	calls := 40
	if testing.Short() {
		calls = 10
	}
	m := &mockBackend{delay: func() { time.Sleep(time.Duration(rand.Intn(50)) * time.Microsecond) }}
	s := gatedServer(t, m)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				id := g*calls + i
				path, body := "/v1/knn", fmt.Sprintf(`{"query":[%d,0,0],"k":1}`, id)
				switch i % 4 {
				case 1:
					body = fmt.Sprintf(`{"queries":[[%d,0,0]],"k":1}`, id)
				case 2:
					body = fmt.Sprintf(`{"query":[%d,0,0],"k":1,"approx":true}`, id)
				case 3:
					path, body = "/v1/range", fmt.Sprintf(`{"query":[%d,0,0],"r":1}`, id)
				}
				rec := post(context.Background(), s, path, body)
				var resp QueryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
					t.Errorf("%s %s: %d %s", path, body, rec.Code, rec.Body)
					return
				}
				rs := resp.Results
				if len(resp.Batches) == 1 {
					rs = resp.Batches[0]
				}
				if len(rs) != 1 || rs[0].ID != id {
					t.Errorf("%s %s: answered %s", path, body, rec.Body)
					return
				}
			}
		}()
	}
	wg.Wait()
	if peak, slots := m.peak.Load(), int64(runtime.GOMAXPROCS(0)); peak > slots || peak < 1 {
		t.Errorf("%d requests inside the engine at once, gate has %d slots", peak, slots)
	}
	if n := len(m.records()); n != callers*calls {
		t.Errorf("engine saw %d searches, want %d", n, callers*calls)
	}
}

// TestAdmissionCancelled: a request whose client leaves while it is queued
// returns at once and never reaches the engine; the next one is served.
func TestAdmissionCancelled(t *testing.T) {
	s := gatedServer(t, nil)
	before := s.engine.Stats().Queries
	fill(s.admit)
	ctx, cancel := context.WithCancel(context.Background())
	codes := make(chan int, 1)
	go func() { codes <- post(ctx, s, "/v1/knn", `{"query":[0.5,0.5,0.5],"k":3}`).Code }()
	waitParked(t, 1)
	cancel()
	select {
	case code := <-codes:
		if code != http.StatusServiceUnavailable {
			t.Errorf("cancelled request answered %d, want 503", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled request still queued")
	}
	for range cap(s.admit.slots) {
		<-s.admit.slots
	}
	if after := s.engine.Stats().Queries; after != before {
		t.Errorf("engine answered %d queries for a request cancelled in the queue", after-before)
	}
	if rec := post(context.Background(), s, "/v1/knn", `{"query":[0.5,0.5,0.5],"k":3}`); rec.Code != http.StatusOK {
		t.Errorf("request after the cancellation answered %d: %s", rec.Code, rec.Body)
	}
	if after := s.engine.Stats().Queries; after != before+1 {
		t.Errorf("engine queries %d → %d, want one more", before, after)
	}
}
