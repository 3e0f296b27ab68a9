package dpserver

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"distperm/pkg/obs"
)

// slowQueryRecord is one line of the slow-query log: everything needed to
// reconstruct why a single query was slow — what was asked, how the
// coalescer batched it, and what the engine spent on it. Emitted as
// single-line JSON so any log pipeline can parse it.
type slowQueryRecord struct {
	TS           string   `json:"ts"`
	RequestID    string   `json:"request_id"`
	Endpoint     string   `json:"endpoint"`
	K            int      `json:"k,omitempty"`
	Radius       float64  `json:"radius,omitempty"`
	Queries      int      `json:"queries,omitempty"` // client batch size (batch requests)
	BatchSize    int      `json:"batch_size,omitempty"`
	FlushReason  string   `json:"flush_reason,omitempty"` // one of FlushReasons
	CoalescedIDs []string `json:"coalesced_ids,omitempty"`
	Shards       int      `json:"shards,omitempty"`
	Evals        int64    `json:"evals,omitempty"`
	DurationMS   float64  `json:"duration_ms"`
}

// slowLogger emits slow-query records as one JSON object per line. A nil
// logger (threshold unset) is a no-op; the enabled path still costs only a
// clock read per query until the threshold trips.
type slowLogger struct {
	threshold time.Duration
	mu        sync.Mutex
	w         io.Writer
	count     *obs.Counter
}

func newSlowLogger(threshold time.Duration, w io.Writer, count *obs.Counter) *slowLogger {
	if threshold <= 0 || w == nil {
		return nil
	}
	return &slowLogger{threshold: threshold, w: w, count: count}
}

// enabled reports whether the caller should collect trace detail at all.
func (l *slowLogger) enabled() bool { return l != nil }

// emit writes rec if d crossed the threshold.
func (l *slowLogger) emit(rec slowQueryRecord, d time.Duration) {
	if l == nil || d < l.threshold {
		return
	}
	rec.TS = time.Now().UTC().Format(time.RFC3339Nano)
	rec.DurationMS = float64(d) / float64(time.Millisecond)
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	l.count.Inc()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.Write(append(line, '\n'))
}
