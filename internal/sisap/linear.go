package sisap

import "distperm/internal/metric"

// LinearScan is the baseline index: every query measures the distance to
// every database point. It defines the correct answers the other indexes are
// tested against, and the n-evaluation cost ceiling they must beat.
type LinearScan struct {
	db *DB
}

// NewLinearScan returns a linear-scan "index" over db.
func NewLinearScan(db *DB) *LinearScan { return &LinearScan{db: db} }

// Name implements Index.
func (s *LinearScan) Name() string { return "linear" }

// IndexBits implements Index: a linear scan stores nothing.
func (s *LinearScan) IndexBits() int64 { return 0 }

// KNN implements Index.
func (s *LinearScan) KNN(q metric.Point, k int) ([]Result, Stats) {
	return searchKNN(s, s.db.N(), q, k)
}

// Range implements Index.
func (s *LinearScan) Range(q metric.Point, r float64) ([]Result, Stats) {
	return searchRange(s, q, r)
}

// search measures every point by Metric.Distance (measure's generic loop:
// no rows, so the oracle shares no kernel with what it checks).
func (s *LinearScan) search(q metric.Point, c *collector) Stats {
	s.db.measure(q, nil, nil, 0, s.db.N(), c)
	return Stats{DistanceEvals: s.db.N()}
}
