package distperm

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"distperm/internal/metric"
	"distperm/internal/sisap"
)

// ErrOutOfRange tags request-parameter errors (k or radius outside the
// servable range) so serving layers can tell a bad request from an engine
// failure. It is wrapped by Engine.Search; match with errors.Is.
var ErrOutOfRange = errors.New("out of range")

// ErrUnknownID is wrapped by Engine.Delete when the ID names no live point:
// never issued, already deleted, or dropped by an earlier delete and
// rebuild. Match with errors.Is.
var ErrUnknownID = errors.New("no live point with this id")

// ErrReadOnly is returned by every write method of a read-only engine
// (NewEngine, NewShardedEngine). Match with errors.Is.
var ErrReadOnly = errors.New("distperm: engine is read-only")

// MutableConfig tunes a writable engine.
type MutableConfig struct {
	// Spec describes the index kind rebuilds construct (and NewMutableEngine
	// builds initially). For WrapMutable an empty Spec.Index means "rebuild
	// what was wrapped": its kind, K (sites or pivots) and permutation
	// distance, and its shard count unless Shards is set; Seed is kept.
	Spec Spec
	// RebuildThreshold triggers a background rebuild once the pending write
	// count (delta points + tombstones) reaches it. ≤ 0 disables automatic
	// rebuilds; Rebuild still folds on demand.
	RebuildThreshold int
	// Shards > 1 makes rebuilds produce a sharded index, partitioned by
	// Partitioner over the points' gids — the same seam BuildSharded uses.
	// Inserts are routed through the Partitioner at write time, so per-shard
	// pending-write counts are observable before the rebuild folds the
	// points in. 0 under an empty Spec.Index keeps the wrapped shard count.
	Shards int
	// Partitioner places points when Shards > 1 (required then).
	Partitioner Partitioner
	// WAL, if set, receives an append for every mutation before it is
	// acknowledged, making the write path crash-safe (see OpenWAL). It is
	// the only way to attach a log; a store resumed from the log's
	// checkpoint catches up on it with ReplayWAL.
	WAL *WAL
}

// MutationStats is a snapshot of the write path, reported alongside
// EngineStats by serving layers.
type MutationStats struct {
	// Inserts and Deletes count accepted mutations.
	Inserts, Deletes int64
	// LiveN is the logical point count; NextID the ID the next insert takes.
	LiveN, NextID int
	// DeltaSize and Tombstones describe the pending write set; their sum is
	// PendingWrites, compared against RebuildThreshold.
	DeltaSize, Tombstones int
	PendingWrites         int
	RebuildThreshold      int
	// DeltaPerShard is the Partitioner's routing of the pending inserts
	// (nil when unsharded).
	DeltaPerShard []int
	// Rebuilds and RebuildFailures count background folds; LastRebuild is
	// the duration of the most recent successful one and LastRebuildError
	// the message of the most recent failed one.
	Rebuilds, RebuildFailures int64
	LastRebuild               time.Duration
	LastRebuildError          string
}

// NewMutableEngine builds cfg.Spec over db (sharded when cfg.Shards > 1)
// and wraps it writable. The db points take global IDs 0..N-1.
func NewMutableEngine(db *DB, cfg MutableConfig) (*Engine, error) {
	if db == nil || db.N() == 0 {
		return nil, errors.New("distperm: NewMutableEngine requires a non-empty database")
	}
	idx, err := buildForConfig(db, cfg)
	if err != nil {
		return nil, err
	}
	return WrapMutable(db, idx, cfg)
}

// buildForConfig is the rebuild constructor: cfg.Spec over db, through
// BuildSharded when sharding is configured.
func buildForConfig(db *DB, cfg MutableConfig) (Index, error) {
	if cfg.Shards > 1 {
		return BuildSharded(db, cfg.Spec, cfg.Shards, cfg.Partitioner)
	}
	return Build(db, cfg.Spec)
}

// WrapMutable gives any built, loaded or resumed index the write path:
// inserts land in a linear-scanned delta buffer whose results merge into
// every kNN/range answer, deletes are tombstones every walk skips, and a
// background rebuilder folds delta and tombstones into a freshly built index
// whose view is swapped in atomically — a reader holds one snapshot per
// batch and never sees a torn index; a superseded view is garbage once its
// last reader returns. A wrapped base that is a mapped container must stay
// mapped until Close has returned (see Store.Close).
//
// The published state is an immutable *MutableIndex, copy-on-write on every
// insert and delete and paired with its base's view; Snapshot returns it.
// Every point carries a stable global ID, which query results report, so
// answers are comparable across mutations, rebuilds, and save/load
// (WriteIndex serialises a snapshot in the DPERMIDX "mutable" container
// kind). After any sequence of writes, answers equal a from-scratch rebuild
// over the logical point set — the delta scan is exact, so mutation costs
// distance evaluations (visible in Stats), never recall. Writers serialise
// against each other; readers never wait for writers, rebuilds, or each
// other.
//
// A *MutableIndex — a saved "mutable" container read back, or a WAL
// checkpoint's snapshot — resumes with its gids, tombstones and pending
// delta, and db is not consulted (nil will do), since the snapshot carries
// its own points; any other idx must have been built on db, whose points
// take global IDs 0..N-1. An empty cfg.Spec.Index rebuilds in the wrapped shape (see
// MutableConfig). idx must be one this package built or read: a deleted
// point is left out inside its walk.
func WrapMutable(db *DB, idx Index, cfg MutableConfig) (*Engine, error) {
	if mi, ok := idx.(*MutableIndex); ok && mi != nil {
		// A tombstoned delta point never re-enters the delta: the engine's
		// delta holds live points only.
		return newMutable(mi.Rebase(mi.BaseDB(), mi.Base(), mi.GIDs()[:mi.BaseN()]), cfg)
	}
	if db == nil || db.N() == 0 || !sisap.Walks(idx) {
		return nil, errors.New("distperm: WrapMutable requires a database and an index of this package")
	}
	gids := make([]int, db.N())
	for i := range gids {
		gids[i] = i
	}
	mi, err := sisap.NewMutableIndex(db, db.N(), idx, gids, nil, db.N())
	if err != nil {
		return nil, err
	}
	return newMutable(mi, cfg)
}

func newMutable(mi *MutableIndex, cfg MutableConfig) (*Engine, error) {
	baseIdx := mi.Base()
	if cfg.Spec.Index == "" {
		// Rebuild what was wrapped: a sharded base's shape is its first
		// member's (the container kind "sharded" is not buildable).
		one := baseIdx
		if sx, ok := baseIdx.(*ShardedIndex); ok {
			one = sx.Shard(0)
			if cfg.Shards == 0 {
				cfg.Shards = sx.NumShards()
			}
		}
		cfg.Spec.Index = one.Name()
		switch x := one.(type) {
		case *PermIndex:
			cfg.Spec.K, cfg.Spec.PermDist = x.K(), x.PermDist()
		case *sisap.LAESA:
			cfg.Spec.K = len(x.Pivots())
		}
	}
	if cfg.Shards > 1 && cfg.Partitioner == nil {
		return nil, fmt.Errorf("distperm: %d shards need a Partitioner", cfg.Shards)
	}
	if !slices.Contains(Kinds(), cfg.Spec.Index) {
		return nil, fmt.Errorf("distperm: rebuild spec names unknown index kind %q", cfg.Spec.Index)
	}
	if cfg.WAL != nil {
		if err := checkpointable(baseIdx, cfg.Spec); err != nil {
			return nil, err
		}
	}
	s := &state{view: newView(mi.BaseDB(), baseIdx), mi: mi}
	// The counter slots are sized once, for the widest view a rebuild can
	// publish.
	e := newEngine(s, max(len(s.segs), cfg.Shards))
	e.cfg, e.wal, e.kick = cfg, cfg.WAL, make(chan struct{}, 1)
	e.rebuilder.Add(1)
	go e.rebuildLoop()
	e.maybeKick(mi)
	return e, nil
}

// checkPoint validates an insert against the store's point shape, so a
// malformed write is an error here, not a metric panic in a later query, and
// refuses a NaN coordinate, which no distance orders.
func (e *Engine) checkPoint(p Point) error {
	if p == nil {
		return errors.New("distperm: nil point")
	}
	if err := metric.Probe(e.Metric(), p); err != nil {
		return fmt.Errorf("distperm: %w", err)
	}
	if hasNaN(p) {
		return fmt.Errorf("distperm: an insert with a NaN coordinate is %w", ErrOutOfRange)
	}
	if proto, ok := e.Proto().(Vector); ok {
		if v, ok := p.(Vector); !ok || len(v) != len(proto) {
			return fmt.Errorf("distperm: insert must be a %d-dimensional vector", len(proto))
		}
	}
	return nil
}

// Insert adds p to the logical point set and returns its stable global ID.
// The point is immediately visible to every query submitted after Insert
// returns (read-your-writes), served from the delta buffer until a rebuild
// folds it into the base index.
func (e *Engine) Insert(p Point) (int, error) {
	return e.write(WALRecord{Op: WALInsert, Point: p})
}

// Delete removes the live point with the given global ID: a base point is
// tombstoned (left out of every subsequent answer, physically dropped by
// the next rebuild), a delta point leaves the buffer directly. Unknown and
// already-deleted IDs fail with ErrUnknownID.
func (e *Engine) Delete(gid int) error {
	_, err := e.write(WALRecord{Op: WALDelete, GID: gid})
	return err
}

// write applies rec under the write lock, logged to the attached WAL.
func (e *Engine) write(rec WALRecord) (int, error) {
	e.writeMu.Lock()
	gid, err := e.apply(rec, e.wal)
	e.writeMu.Unlock()
	if err != nil {
		return 0, err
	}
	e.maybeKick(e.cur.Load().mi)
	return gid, nil
}

// apply publishes one mutation (an insert takes the next gid, which it
// returns) and must be called under writeMu. Durability before
// acknowledgement: with log non-nil the record is on the log before the
// mutation becomes visible or the gid is consumed. On append failure nothing
// changed — but the WAL itself has poisoned, so the gid cannot be
// double-logged by a retry.
func (e *Engine) apply(rec WALRecord, log *WAL) (int, error) {
	switch {
	case e.kick == nil:
		return 0, ErrReadOnly
	case e.closed.Load():
		return 0, errors.New("distperm: mutable engine is closed")
	}
	s := e.cur.Load()
	var next *MutableIndex
	switch rec.Op {
	case WALInsert:
		if err := e.checkPoint(rec.Point); err != nil {
			return 0, err
		}
		rec.GID = s.mi.NextGID()
		next = s.mi.Insert(rec.Point)
	case WALDelete:
		var ok bool
		if next, ok = s.mi.Delete(rec.GID); !ok {
			return 0, fmt.Errorf("distperm: id %d: %w", rec.GID, ErrUnknownID)
		}
	default:
		return 0, fmt.Errorf("distperm: unknown write op %d", rec.Op)
	}
	if log != nil {
		if err := log.Append(rec); err != nil {
			return 0, err
		}
	}
	e.cur.Store(&state{s.view, next})
	if rec.Op == WALInsert {
		e.inserts.Add(1)
	} else {
		e.deletes.Add(1)
	}
	return rec.GID, nil
}

// pending returns the write count a rebuild of mi would fold: its delta
// points and its tombstones, the points of base and delta not live.
func pending(mi *MutableIndex) int {
	gids, _ := mi.Delta()
	tombs := mi.BaseN() + len(gids) - mi.LiveN()
	return len(gids) + tombs
}

// maybeKick wakes the background rebuilder when the pending write set has
// reached the threshold.
func (e *Engine) maybeKick(mi *MutableIndex) {
	if e.cfg.RebuildThreshold > 0 && pending(mi) >= e.cfg.RebuildThreshold && mi.LiveN() > 0 {
		select {
		case e.kick <- struct{}{}:
		default:
		}
	}
}

func (e *Engine) rebuildLoop() {
	defer e.rebuilder.Done()
	for {
		select {
		case <-e.done:
			return
		case <-e.kick:
		}
		if err := e.rebuildOnce(false); err != nil {
			e.rebuildFailures.Add(1)
			msg := err.Error()
			e.lastRebuildErr.Store(&msg)
		}
	}
}

// Rebuild folds the pending delta and tombstones into a freshly built base
// index immediately, regardless of the threshold — the synchronous form of
// what the background rebuilder does. It is safe to call concurrently with
// queries and writes; writes landing during the build carry over into the
// new snapshot's delta and tombstones.
func (e *Engine) Rebuild() error {
	if e.kick == nil {
		return ErrReadOnly
	}
	return e.rebuildOnce(true)
}

func (e *Engine) rebuildOnce(force bool) error {
	e.rebuildMu.Lock()
	defer e.rebuildMu.Unlock()
	// Entered like a reader: the build reads mi's points, and Close waits
	// for a rebuild that got in.
	if e.enter() != nil {
		return errors.New("distperm: mutable engine is closed")
	}
	defer e.inflight.Done()
	mi := e.cur.Load().mi
	if !force && (pending(mi) < e.cfg.RebuildThreshold || mi.LiveN() == 0) {
		return nil
	}
	if mi.LiveN() == 0 {
		return errors.New("distperm: cannot rebuild an empty store")
	}
	if pending(mi) == 0 {
		return nil // nothing to fold
	}
	start := time.Now()

	// The new base: mi's logical point set in gid order.
	newGids, newPts := mi.Live()
	newDB := sisap.NewDB(e.Metric(), newPts)

	cfg := e.cfg
	cfg.Spec.Seed += e.rebuilds.Load() // decorrelate successive rebuilds, reproducibly
	if cfg.Spec.K > newDB.N() {
		cfg.Spec.K = newDB.N()
	}
	if cfg.Shards > newDB.N() {
		cfg.Shards = newDB.N()
	}
	cfg.Partitioner = byGID{cfg.Partitioner, newGids}
	idx, err := buildForConfig(newDB, cfg)
	if err != nil {
		return fmt.Errorf("distperm: rebuild: %w", err)
	}
	// Warm the view off the read and write paths: one throwaway query per
	// segment builds what its index builds lazily (distperm's directory,
	// bounds and the bucket-major coordinates its walk reads) — asked
	// directly, not through Search: no engine counter moves.
	nv := newView(newDB, idx)
	for _, seg := range nv.segs {
		seg.idx.KNN(seg.db.Points[0], 1)
	}

	e.writeMu.Lock()
	if e.closed.Load() {
		e.writeMu.Unlock()
		return errors.New("distperm: mutable engine is closed")
	}
	// Writes landed since mi was captured, over its base (only this
	// rebuilder replaces bases): the current snapshot rebased on the new
	// index tombstones the points they deleted and keeps the points they
	// inserted as its delta.
	next := e.cur.Load().mi.Rebase(newDB, idx, newGids)
	e.cur.Store(&state{nv, next})
	e.rebuilds.Add(1)
	e.lastRebuildNanos.Store(int64(time.Since(start)))
	e.writeMu.Unlock()
	e.maybeKick(next)
	return nil
}

// MutationStats snapshots the write path; the store's counts are read from
// one published snapshot.
func (e *Engine) MutationStats() MutationStats {
	s := e.cur.Load()
	mi := s.mi
	if mi == nil {
		return MutationStats{LiveN: s.liveN()}
	}
	gids, delta := mi.Delta()
	ms := MutationStats{
		Inserts:          e.inserts.Load(),
		Deletes:          e.deletes.Load(),
		LiveN:            mi.LiveN(),
		NextID:           mi.NextGID(),
		DeltaSize:        len(delta),
		Tombstones:       pending(mi) - len(delta),
		PendingWrites:    pending(mi),
		RebuildThreshold: e.cfg.RebuildThreshold,
		Rebuilds:         e.rebuilds.Load(),
		RebuildFailures:  e.rebuildFailures.Load(),
		LastRebuild:      time.Duration(e.lastRebuildNanos.Load()),
	}
	if msg := e.lastRebuildErr.Load(); msg != nil {
		ms.LastRebuildError = *msg
	}
	if e.cfg.Shards > 1 {
		// The Partitioner is deterministic: where it routes a pending insert
		// now is where it routed it at write time.
		ms.DeltaPerShard = make([]int, e.cfg.Shards)
		for i, p := range delta {
			if s := e.cfg.Partitioner.Shard(gids[i], p, e.cfg.Shards); s >= 0 && s < len(ms.DeltaPerShard) {
				ms.DeltaPerShard[s]++
			}
		}
	}
	return ms
}

// Snapshot returns the store as a serialisable *MutableIndex — one atomic
// load of the published state (nil on a read-only engine over a plain
// index). Write it with WriteIndex (the DPERMIDX "mutable" container kind)
// and resume it with ReadIndex + WrapMutable; its DB is the base points
// followed by the delta points. It shares the built base index with the
// engine, which both only read.
func (e *Engine) Snapshot() *MutableIndex { return e.cur.Load().mi }

// ReplayWAL applies every record of w with sequence > fromSeq to the
// engine, in order; run it before the engine takes writes, which wait for it
// once it has begun. When w is the
// attached log (MutableConfig.WAL) the records are already in it and are not
// appended again; a log other than the attached one is refused. Replay is
// idempotent against a conservative fromSeq: an insert whose gid the engine
// already issued is skipped, as is a delete of an unknown gid; an insert that
// would skip a gid is a gap — evidence of log loss — and errors. Returns
// applied and skipped counts.
func (e *Engine) ReplayWAL(w *WAL, fromSeq uint64) (applied, skipped uint64, err error) {
	switch {
	case e.kick == nil:
		return 0, 0, ErrReadOnly
	case e.wal != nil && e.wal != w:
		return 0, 0, errors.New("distperm: ReplayWAL of a log other than the attached one")
	}
	e.writeMu.Lock()
	_, err = w.Replay(fromSeq, func(seq uint64, rec WALRecord) error {
		if rec.Op == WALInsert {
			next := e.cur.Load().mi.NextGID()
			if rec.GID < next {
				skipped++
				return nil
			}
			if rec.GID > next {
				return fmt.Errorf("distperm: wal seq %d inserts gid %d but engine expects %d — records are missing", seq, rec.GID, next)
			}
		}
		if _, err := e.apply(rec, nil); err != nil {
			if rec.Op == WALDelete && errors.Is(err, ErrUnknownID) {
				skipped++
				return nil
			}
			return fmt.Errorf("distperm: replaying wal seq %d: %w", seq, err)
		}
		applied++
		return nil
	})
	e.writeMu.Unlock()
	e.maybeKick(e.cur.Load().mi)
	return applied, skipped, err
}

// CheckpointSnapshot captures the store and the WAL sequence it covers as
// one exact cut (both read under the write lock, which every append and
// publish holds): replaying the log from the returned sequence onto the
// returned snapshot reproduces the live store. Feed the pair to
// WAL.WriteCheckpoint.
func (e *Engine) CheckpointSnapshot() (*MutableIndex, uint64, error) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	switch {
	case e.kick == nil:
		return nil, 0, ErrReadOnly
	case e.closed.Load():
		return nil, 0, errors.New("distperm: mutable engine is closed")
	case e.wal == nil:
		return nil, 0, errors.New("distperm: no WAL attached")
	}
	return e.cur.Load().mi, e.wal.Seq(), nil
}

// WALStats snapshots the attached log's counters; the zero value (Enabled
// false) when no WAL is attached.
func (e *Engine) WALStats() WALStats {
	if e.wal == nil {
		return WALStats{}
	}
	return e.wal.Stats()
}

// Close refuses new searches and writes, then waits for in-flight searches
// and rebuilds and stops the rebuilder; when it returns nothing reads the
// wrapped base any more. An engine Open returned then releases what Open
// opened: the checkpointer, then the mapping, then the log. Idempotent;
// queries and writes after Close return an error.
func (e *Engine) Close() {
	// Under writeMu no rebuild swap is mid-publish, and every later one sees
	// closed and gives up; under mu no search is between its check of closed
	// and its entry into inflight.
	e.writeMu.Lock()
	e.mu.Lock()
	already := e.closed.Swap(true)
	e.mu.Unlock()
	e.writeMu.Unlock()
	if !already {
		close(e.done)
	}
	e.inflight.Wait()
	e.rebuilder.Wait()
	if e.boot != nil {
		e.boot.release()
	}
}
