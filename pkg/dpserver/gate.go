package dpserver

import (
	"context"
	"net"
	"net/http"
	"sync/atomic"
)

// Gate is the bind-first front of a daemon: it owns the listening socket
// from before the index exists, so a restarting process exposes its port
// immediately — orchestrators see a live socket, not connection refused —
// and answers requests 503 Service Unavailable until SetReady hands it a
// Server. The split between the probes is deliberate: /healthz is liveness
// and answers 200 {"status":"ok"} the moment the socket is bound (the
// process is alive and loading, don't restart it), while /readyz — and
// every other path — reports {"status":"loading"} with a 503 until the
// index is served, the explicit not-ready → ready transition load
// balancers key on. Once ready the Gate is a transparent proxy to the
// Server, readiness checked with one atomic load per request.
type Gate struct {
	srv atomic.Pointer[Server]
}

// gateClosed marks a Gate whose Serve has already shut down: a sentinel
// distinct from both nil (loading) and any published Server, so the
// SetReady/shutdown handoff has no window in which a Server is published
// but never closed.
var gateClosed = new(Server)

// NewGate returns a Gate with no Server: every request answers 503 until
// SetReady.
func NewGate() *Gate { return &Gate{} }

// SetReady publishes s: requests from this point on reach the Server.
// Requests already in flight finish with the loading answer. SetReady after
// the Gate's Serve has shut down is harmless — the Gate closes the Server
// immediately instead of publishing it, so a load racing a shutdown never
// leaks engine workers past Serve's return.
func (g *Gate) SetReady(s *Server) {
	for {
		old := g.srv.Load()
		if old == gateClosed {
			s.Close()
			return
		}
		if g.srv.CompareAndSwap(old, s) {
			return
		}
	}
}

// Ready reports whether a Server has been published.
func (g *Gate) Ready() bool { return g.server() != nil }

// Server returns the published Server, nil before SetReady.
func (g *Gate) Server() *Server { return g.server() }

// server returns the published Server, folding the closed sentinel to nil.
func (g *Gate) server() *Server {
	if s := g.srv.Load(); s != gateClosed {
		return s
	}
	return nil
}

// ServeHTTP implements http.Handler: before SetReady, /healthz answers 200
// (liveness) and everything else 503 {"status":"loading"}; afterwards the
// Server handles the request.
func (g *Gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s := g.server(); s != nil {
		s.ServeHTTP(w, r)
		return
	}
	if r.URL.Path == "/healthz" {
		WriteStatus(w, http.StatusOK, "ok")
		return
	}
	w.Header().Set("Retry-After", "1")
	WriteStatus(w, http.StatusServiceUnavailable, "loading")
}

// Serve answers HTTP on ln until ctx is cancelled, then shuts down like
// Server.Serve: stop accepting, drain in-flight handlers, and close the
// published Server (close the engine) if one was set.
// Storage released by the caller after Serve returns — e.g. unmapping a
// frozen container — is therefore unreachable by any handler.
func (g *Gate) Serve(ctx context.Context, ln net.Listener) error {
	// Swapping in the closed sentinel (rather than loading once) makes the
	// shutdown race-free against a concurrent SetReady: whichever side's
	// atomic wins, exactly one of them closes the Server.
	return Serve(ctx, ln, g, drainTimeout, func() {
		if s := g.srv.Swap(gateClosed); s != nil && s != gateClosed {
			s.Close()
		}
	})
}
