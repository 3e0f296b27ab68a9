package dpserver

import (
	"context"
	"runtime"
	"time"

	"distperm/pkg/distperm"
	"distperm/pkg/obs"
)

// Searcher is the one query method the admission gate asks of an engine;
// *distperm.Engine provides it.
type Searcher interface {
	Search(qs []distperm.Point, q distperm.Query) ([][]distperm.Result, []distperm.ApproxStats, error)
}

// admission is the gate in front of the engine: at most GOMAXPROCS
// searches are inside the backend at once (the number that can make
// progress together), and the rest wait for a slot in arrival order — Go
// hands a freed channel slot to its longest-blocked sender, select or not —
// so under load a request waits behind the ones that came before it
// instead of racing every caller for the CPUs. It is the only queue: the
// engine runs a Search on its caller's goroutine. An idle gate admits at
// once. A request is one Search, single or batch, exact or approximate:
// nothing is batched across requests.
type admission struct {
	backend Searcher
	slots   chan struct{}
	// wait observes every admission's wait for its slot.
	wait *obs.Histogram
}

func newAdmission(backend Searcher, wait *obs.Histogram) *admission {
	return &admission{backend: backend, slots: make(chan struct{}, runtime.GOMAXPROCS(0)), wait: wait}
}

// search waits for a slot, runs backend.Search(qs, q) and frees the slot.
// It reports how long the slot took. A caller whose ctx ends while it
// waits leaves the queue with ctx's error and never reaches the backend.
func (a *admission) search(ctx context.Context, qs []distperm.Point, q distperm.Query) ([][]distperm.Result, []distperm.ApproxStats, time.Duration, error) {
	var waited time.Duration
	select {
	case a.slots <- struct{}{}:
	default:
		start := time.Now()
		select {
		case a.slots <- struct{}{}:
			// Both cases may have been ready: the client's leaving wins.
			if err := ctx.Err(); err != nil {
				<-a.slots
				return nil, nil, time.Since(start), err
			}
		case <-ctx.Done():
			return nil, nil, time.Since(start), ctx.Err()
		}
		waited = time.Since(start)
	}
	defer func() { <-a.slots }()
	a.wait.Observe(waited.Seconds())
	outs, sts, err := a.backend.Search(qs, q)
	return outs, sts, waited, err
}

// Coalescer is the admission gate under the name of the micro-batcher it
// replaced, kept for perflab's coalescer.knn1_us rung, which then times
// the path the server runs. It batches nothing.
type Coalescer struct{ gate *admission }

// NewCoalescer returns a gate of its own over backend; max and wait are
// ignored.
func NewCoalescer(backend Searcher, max int, wait time.Duration) *Coalescer {
	return &Coalescer{gate: newAdmission(backend, obs.NewHistogram(obs.DefLatencyBuckets))}
}

// KNN answers one kNN query through the gate: backend.Search([]Point{p},
// Query{K: k}) once a slot is free.
func (c *Coalescer) KNN(p distperm.Point, k int) ([]distperm.Result, error) {
	outs, _, _, err := c.gate.search(context.TODO(), []distperm.Point{p}, distperm.Query{K: k})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// Close does nothing: the gate holds no goroutines and no queued work of
// its own. It does not close the backend.
func (c *Coalescer) Close() {}
