package dpserver_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"distperm/internal/dataset"
	"distperm/pkg/distperm"
	"distperm/pkg/dpserver"
)

// gateServer builds a small Server for publishing through a Gate.
func gateServer(t *testing.T) *dpserver.Server {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	db, err := distperm.NewDB(distperm.L2, dataset.UniformVectors(rng, 200, 3))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := distperm.Build(db, distperm.Spec{Index: "distperm", K: 6, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	return newServer(t, db, idx, 2, dpserver.Config{})
}

// TestGateNotReadyThenReady pins the daemon's liveness/readiness contract:
// the bound socket answers from the start, /healthz reports alive (200)
// throughout, and every other endpoint — /readyz included — says 503
// {"status":"loading"} until the store is published, flipping to real
// answers the moment it is.
func TestGateNotReadyThenReady(t *testing.T) {
	gate := dpserver.NewGate()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- gate.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, strings.TrimSpace(string(body))
	}

	// Socket is up, store is not: alive but not ready. /healthz says 200,
	// /readyz and the API say 503 loading.
	if gate.Ready() {
		t.Fatal("gate ready before SetReady")
	}
	if code, body := get("/healthz"); code != http.StatusOK || body != `{"status":"ok"}` {
		t.Fatalf("not-ready GET /healthz = %d %q, want 200 ok", code, body)
	}
	for _, path := range []string{"/readyz", "/v1/index"} {
		code, body := get(path)
		if code != http.StatusServiceUnavailable || body != `{"status":"loading"}` {
			t.Fatalf("not-ready GET %s = %d %q, want 503 loading", path, code, body)
		}
	}
	resp, err := http.Post(base+"/v1/knn", "application/json",
		strings.NewReader(`{"query":[0.5,0.5,0.5],"k":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("not-ready kNN = %d, want 503", resp.StatusCode)
	}

	srv := gateServer(t)
	gate.SetReady(srv)
	if !gate.Ready() || gate.Server() != srv {
		t.Fatal("gate did not publish the server")
	}
	if code, body := get("/healthz"); code != http.StatusOK || body != `{"status":"ok"}` {
		t.Fatalf("ready /healthz = %d %q, want 200 ok", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusOK || body != `{"status":"ready"}` {
		t.Fatalf("ready /readyz = %d %q, want 200 ready", code, body)
	}
	resp, err = http.Post(base+"/v1/knn", "application/json",
		strings.NewReader(`{"query":[0.5,0.5,0.5],"k":2}`))
	if err != nil {
		t.Fatal(err)
	}
	var qr struct {
		Results []json.RawMessage `json:"results"`
	}
	err = json.NewDecoder(resp.Body).Decode(&qr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(qr.Results) != 2 {
		t.Fatalf("ready kNN = %d (%v), %d results, want 200 with 2", resp.StatusCode, err, len(qr.Results))
	}

	// Graceful drain closes the published server.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Serve did not drain")
	}
}

// TestGateSetReadyAfterShutdown: a store load that finishes after the
// daemon has drained must not leak a running Server. SetReady on a
// shut-down gate closes the Server instead of publishing it, so the
// caller's post-Serve cleanup (e.g. unmapping the store) never races
// live engine workers.
func TestGateSetReadyAfterShutdown(t *testing.T) {
	gate := dpserver.NewGate()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- gate.Serve(ctx, ln) }()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Serve did not return")
	}

	srv := gateServer(t)
	gate.SetReady(srv)
	if gate.Ready() || gate.Server() != nil {
		t.Fatal("shut-down gate published a server")
	}
	// The gate closed the Server on publish: its engine rejects work, so a
	// request served directly against it fails instead of reaching live
	// workers.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/knn",
		strings.NewReader(`{"query":[0.5,0.5,0.5],"k":2}`))
	srv.ServeHTTP(rec, req)
	if rec.Code == http.StatusOK {
		t.Fatalf("closed server still answered kNN with %d", rec.Code)
	}
}

// TestGateServeClosesWithoutReady: a daemon killed while still loading must
// drain cleanly even though no server was ever published.
func TestGateServeClosesWithoutReady(t *testing.T) {
	gate := dpserver.NewGate()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- gate.Serve(ctx, ln) }()
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", ln.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Serve did not return")
	}
}

// TestServeDrainsBeforeAfter pins the one serve loop's order, the safety of
// every listener that runs on it: cancelling the context stops accepting but
// a handler still in flight finishes first, and only then does after run —
// what after closes (an engine, a mapping) is out of every handler's reach.
// A listener that fails runs after at once and returns the failure.
func TestServeDrainsBeforeAfter(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var afterRan, handlerDone atomic.Bool
	h := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		if afterRan.Load() {
			t.Error("after ran while a handler was still in flight")
		}
		handlerDone.Store(true)
		dpserver.WriteStatus(w, http.StatusOK, "ok")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- dpserver.Serve(ctx, ln, h, 10*time.Second, func() {
			if !handlerDone.Load() {
				t.Error("after ran before the in-flight handler finished")
			}
			afterRan.Store(true)
		})
	}()
	body := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			body <- err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		body <- string(b)
	}()
	<-entered
	cancel()
	select {
	case err := <-served:
		t.Fatalf("Serve returned %v with a handler in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v, want a clean shutdown", err)
	}
	if got := <-body; got != "{\"status\":\"ok\"}\n" {
		t.Errorf("the drained request answered %q", got)
	}
	if !afterRan.Load() {
		t.Error("after never ran")
	}

	// A dead listener: no drain, after runs, the error comes back.
	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	afterRan.Store(false)
	if err := dpserver.Serve(context.Background(), ln, h, time.Second, func() { afterRan.Store(true) }); err == nil || !afterRan.Load() {
		t.Errorf("Serve on a closed listener: err=%v afterRan=%v, want an error and after run", err, afterRan.Load())
	}
}
