package dpserver

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"distperm/pkg/distperm"
)

// mockBackend is the whole surface the Coalescer consumes — the one Search
// method. It answers each query with its own encoded identity (ID = the
// query vector's first coordinate, Distance = K + Radius) and records every
// batch it receives, so tests can assert both correctness (every caller got
// its own answer back) and batching behaviour (how the calls were grouped).
type mockBackend struct {
	mu      sync.Mutex
	batches []batchRecord
	err     error
}

type batchRecord struct {
	q    distperm.Query
	size int
}

func (m *mockBackend) Search(qs []distperm.Point, q distperm.Query) ([][]distperm.Result, []distperm.ApproxStats, error) {
	m.mu.Lock()
	m.batches = append(m.batches, batchRecord{q: q, size: len(qs)})
	err := m.err
	m.mu.Unlock()
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

// fireKNN runs n concurrent KNN calls with distinct identity queries and
// checks every caller got its own answer.
func fireKNN(t *testing.T, co *Coalescer, n, k int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs, err := co.KNN(distperm.Vector{float64(i)}, k)
			if err != nil {
				errs <- err
				return
			}
			if len(rs) != 1 || rs[0].ID != i {
				errs <- fmt.Errorf("query %d got %v", i, rs)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCoalescerFill: with a long wait window, flushes happen on fill only,
// so 64 concurrent queries at max=16 reach the backend as exactly 4
// batches of 16 — and every caller still gets its own answer.
func TestCoalescerFill(t *testing.T) {
	m := &mockBackend{}
	co := NewCoalescer(m, 16, time.Minute)
	defer co.Close()
	fireKNN(t, co, 64, 3)
	recs := m.records()
	if len(recs) != 4 {
		t.Fatalf("backend saw %d batches, want 4: %+v", len(recs), recs)
	}
	for _, rec := range recs {
		if rec.size != 16 || rec.q != (distperm.Query{K: 3}) {
			t.Errorf("bad batch %+v", rec)
		}
	}
	if batches, queries := co.Counters(); batches != 4 || queries != 64 {
		t.Errorf("Counters() = (%d, %d), want (4, 64)", batches, queries)
	}
}

// TestCoalescerWindow: a partial batch flushes when the wait window
// elapses, not never.
func TestCoalescerWindow(t *testing.T) {
	m := &mockBackend{}
	co := NewCoalescer(m, 1024, 2*time.Millisecond)
	defer co.Close()
	start := time.Now()
	fireKNN(t, co, 3, 2)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("window flush took %v", elapsed)
	}
	total := 0
	for _, rec := range m.records() {
		total += rec.size
	}
	if total != 3 {
		t.Errorf("backend saw %d queries, want 3", total)
	}
}

// TestCoalescerKeysDoNotMix: kNN calls with different k, and range calls,
// never share an engine batch.
func TestCoalescerKeysDoNotMix(t *testing.T) {
	m := &mockBackend{}
	co := NewCoalescer(m, 8, time.Millisecond)
	defer co.Close()
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				rs, err := co.KNN(distperm.Vector{float64(i)}, 1)
				if err != nil || rs[0].Distance != 1 {
					t.Errorf("k=1 call: %v %v", rs, err)
				}
			case 1:
				rs, err := co.KNN(distperm.Vector{float64(i)}, 5)
				if err != nil || rs[0].Distance != 5 {
					t.Errorf("k=5 call: %v %v", rs, err)
				}
			case 2:
				rs, _, err := co.Search(distperm.Vector{float64(i)}, distperm.Query{Radius: 0.25}, "")
				if err != nil || rs[0].Distance != 0.25 {
					t.Errorf("range call: %v %v", rs, err)
				}
			}
		}(i)
	}
	wg.Wait()
	for _, rec := range m.records() {
		switch rec.q {
		case distperm.Query{K: 1}, distperm.Query{K: 5}, distperm.Query{Radius: 0.25}:
		default:
			t.Errorf("mixed-parameter batch %+v", rec)
		}
	}
}

// TestCoalescerNoWindow: max=1 (and wait=0) degrade to per-call submission
// without deadlocking — the zero Config must serve.
func TestCoalescerNoWindow(t *testing.T) {
	for _, co := range []*Coalescer{
		NewCoalescer(&mockBackend{}, 1, time.Minute),
		NewCoalescer(&mockBackend{}, 8, 0),
		NewCoalescer(&mockBackend{}, 0, -time.Second),
	} {
		fireKNN(t, co, 4, 1)
		if _, queries := co.Counters(); queries != 4 {
			t.Errorf("queries = %d, want 4", queries)
		}
		co.Close()
	}
}

// TestCoalescerClose: waiters blocked in an un-full batch are flushed
// through the backend by Close — real answers, no hang — and calls after
// Close fail with ErrCoalescerClosed.
func TestCoalescerClose(t *testing.T) {
	m := &mockBackend{}
	co := NewCoalescer(m, 1024, time.Minute)
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs, err := co.KNN(distperm.Vector{float64(i)}, 2)
			if err != nil {
				t.Errorf("query %d during Close: %v", i, err)
				return
			}
			if rs[0].ID != i {
				t.Errorf("query %d got %v", i, rs)
			}
		}(i)
	}
	// Give the five goroutines time to enqueue, then close over them.
	time.Sleep(10 * time.Millisecond)
	co.Close()
	wg.Wait()
	co.Close() // idempotent
	if _, err := co.KNN(distperm.Vector{0}, 1); err != ErrCoalescerClosed {
		t.Errorf("KNN after Close = %v, want ErrCoalescerClosed", err)
	}
}

// TestCoalescerNaNRadius: a NaN radius must flush like any other — the
// batch key holds the radius's bit pattern, because a NaN-valued float key
// would never equal itself in the pending map and its waiters would hang
// past the flush window forever.
func TestCoalescerNaNRadius(t *testing.T) {
	m := &mockBackend{}
	co := NewCoalescer(m, 64, time.Millisecond)
	defer co.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, _, err := co.Search(distperm.Vector{1}, distperm.Query{Radius: math.NaN()}, ""); err != nil {
			t.Errorf("NaN-radius query: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("NaN-radius query hung past the flush window")
	}
	recs := m.records()
	if len(recs) != 1 || !math.IsNaN(recs[0].q.Radius) {
		t.Errorf("backend saw %+v, want one NaN-radius batch", recs)
	}
}

// TestCoalescerBackendError: a failing backend fails every waiter in the
// batch with the backend's error.
func TestCoalescerBackendError(t *testing.T) {
	m := &mockBackend{err: fmt.Errorf("backend down")}
	co := NewCoalescer(m, 4, time.Millisecond)
	defer co.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := co.KNN(distperm.Vector{1}, 2); err == nil {
				t.Error("backend error not surfaced")
			}
		}()
	}
	wg.Wait()
}
