package distperm

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"
)

// OpenConfig says where Open finds a store and how it serves it. Every field
// is one of distpermd's flags; the zero value of each is the flag's "off".
type OpenConfig struct {
	// Dataset returns the points a store is built over, or that a container
	// without points of its own is read against, and a name for them. It
	// draws its randomness from rng, before any build does; Open calls it
	// at most once, and only when it needs the points.
	Dataset func(rng *rand.Rand) (*DB, string, error)
	// Seed seeds the one generator Dataset, the build and the rebuilds draw
	// from, in that order.
	Seed int64

	// Index and K name what a fresh build constructs; Shards > 1 partitions
	// it, placing points by the Partitioner named Partition — which also
	// places a writable store's rebuilds.
	Index     string
	K         int
	Shards    int
	Partition string
	// Load reads a DPERMIDX container instead of building; with Mmap it is
	// mapped read-only as a frozen container.
	Load string
	Mmap bool

	// RebuildThreshold > 0 makes the engine writable (see
	// MutableConfig.RebuildThreshold).
	RebuildThreshold int

	// WALDir, when set, logs every write there and makes the engine
	// writable: Open resumes from the newest checkpoint (or, without one,
	// from what the fields above name) and replays the log past it, and a
	// checkpointer folds the log behind a fresh checkpoint after every
	// rebuild and, when WALCheckpoint > 0, once that many records have
	// accumulated past the last one.
	WALDir        string
	WAL           WALOptions
	WALCheckpoint int64
}

// boot is what Open opened for an engine, which the engine's Close releases.
type boot struct {
	src   string
	store *Store // a mapped container, nil otherwise
	wal   *WAL
	stop  chan struct{} // stops the checkpointer
	ckpt  sync.WaitGroup
	once  sync.Once
}

// release stops the checkpointer, then unmaps the container, then closes the
// log. Idempotent.
func (b *boot) release() {
	b.once.Do(func() {
		close(b.stop)
		b.ckpt.Wait()
		if b.store != nil {
			b.store.Close()
		}
		if b.wal != nil {
			b.wal.Close()
		}
	})
}

// Open boots a serving engine from durable state, the one sequence there is:
// OpenWAL → LoadCheckpoint → the checkpoint's snapshot, or else the mapped
// container, or else the dataset → the loaded, built or sharded-built index →
// NewEngine, or WrapMutable with the log attached → ReplayWAL of the log's
// tail → the checkpointer. A writable store rebuilds in the shape of what it
// wraps. The engine owns what Open opened — the mapping, the log and the
// checkpointer — and its Close releases them once its searches have drained; a
// mapped container stays mapped until then, since a self-contained one's
// points are views into the mapping that every rebuild carries forward.
func Open(cfg OpenConfig) (*Engine, error) {
	b := &boot{stop: make(chan struct{})}
	e, err := open(cfg, b)
	if err != nil {
		b.release()
		return nil, err
	}
	return e, nil
}

// open is Open's sequence; b records what it opened, for Open to release
// should the sequence fail.
func open(cfg OpenConfig, b *boot) (*Engine, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var (
		db      *DB
		idx     Index
		fromSeq uint64
		err     error
	)
	points := func() (err error) {
		if cfg.Dataset == nil {
			return errors.New("distperm: Open needs a Dataset to build or map this store")
		}
		db, b.src, err = cfg.Dataset(rng)
		return err
	}
	if cfg.WALDir != "" {
		if b.wal, err = OpenWAL(cfg.WALDir, cfg.WAL); err != nil {
			return nil, err
		}
		ck, err := b.wal.LoadCheckpoint()
		if err != nil {
			return nil, fmt.Errorf("wal recovery: %w", err)
		}
		if ck != nil {
			// The checkpoint is self-contained: its snapshot, which carries
			// its own points, replaces the dataset or container entirely,
			// and replay resumes from the sequence it covers.
			idx, fromSeq = ck.Snapshot, ck.Seq
			b.src = fmt.Sprintf("%s checkpoint (seq %d)", cfg.WALDir, ck.Seq)
		}
	}
	switch {
	case idx != nil: // recovered from the checkpoint above
	case cfg.Mmap:
		if cfg.Load == "" {
			return nil, errors.New("-mmap needs -load <container>")
		}
		b.store, err = Load(cfg.Load, LoadOptions{Mmap: true})
		b.src = cfg.Load + " (mapped, self-contained)"
		if errors.Is(err, ErrNeedDB) {
			// The container embeds no points: map it against the dataset.
			if err := points(); err != nil {
				return nil, err
			}
			b.store, err = Load(cfg.Load, LoadOptions{Mmap: true, DB: db})
			b.src += " (index mapped)"
		}
		if err != nil {
			return nil, err
		}
		db, idx = b.store.DB, b.store.Index
	default:
		if err := points(); err != nil {
			return nil, err
		}
	}
	mutable := cfg.RebuildThreshold > 0 || b.wal != nil
	var p Partitioner
	if cfg.Shards > 1 || mutable {
		if p, err = PartitionerByName(cfg.Partition); err != nil {
			return nil, err
		}
	}
	switch spec := (Spec{Index: cfg.Index, K: cfg.K}); {
	case idx != nil: // mapped or recovered above
	case cfg.Load != "":
		st, err := Load(cfg.Load, LoadOptions{DB: db})
		if err != nil {
			return nil, err
		}
		idx = st.Index
	case cfg.Shards > 1:
		spec.Seed = rng.Int63()
		idx, err = BuildSharded(db, spec, cfg.Shards, p)
	default:
		spec.Seed = rng.Int63()
		idx, err = Build(db, spec)
	}
	if err != nil {
		return nil, err
	}
	var e *Engine
	if mutable {
		// Rebuilds keep the shape of what was built, loaded or recovered; a
		// sharded store's placement follows Partition, since the partition
		// map a container carries names no strategy.
		e, err = WrapMutable(db, idx, MutableConfig{
			Spec:             Spec{Seed: rng.Int63()},
			RebuildThreshold: cfg.RebuildThreshold,
			Partitioner:      p,
			WAL:              b.wal,
		})
	} else {
		e, err = NewEngine(db, idx, 0)
	}
	if err != nil {
		return nil, err
	}
	e.boot = b
	if b.wal != nil {
		applied, skipped, err := e.ReplayWAL(b.wal, fromSeq)
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("wal recovery: %w", err)
		}
		b.src = fmt.Sprintf("%s, wal %s (replayed %d records, skipped %d, sync %s)",
			b.src, cfg.WALDir, applied, skipped, cfg.WAL.Sync)
		b.ckpt.Add(1)
		go e.checkpoints(cfg.WALCheckpoint)
	}
	return e, nil
}

// Source describes what Open booted the engine from ("" for an engine Open
// did not make): the dataset's name, the mapped container, or the
// checkpoint, and with a log how much of it was replayed.
func (e *Engine) Source() string {
	if e.boot == nil {
		return ""
	}
	return e.boot.src
}

// checkpoints folds the write-ahead log behind durable snapshots until the
// engine closes: after every rebuild (the delta is freshly folded, so the
// snapshot is at its smallest) and, when recordEvery > 0, once that many
// records accumulate past the last checkpoint. Each checkpoint prunes the
// log segments and checkpoint files it supersedes.
func (e *Engine) checkpoints(recordEvery int64) {
	defer e.boot.ckpt.Done()
	t := time.NewTicker(time.Second)
	defer t.Stop()
	var folded int64
	for {
		select {
		case <-e.boot.stop:
			return
		case <-t.C:
		}
		folded = e.checkpointOnce(recordEvery, folded)
	}
}

// checkpointOnce is one tick of checkpoints: it writes a checkpoint when a
// rebuild has happened since the one the log was last folded behind (folded
// counts rebuilds), or when recordEvery records have accumulated. It returns
// the new folded count, which moves only once the log is folded — the
// checkpoint was written, or there was nothing to write — so a failed
// checkpoint is retried on the next tick, not left until the next rebuild.
func (e *Engine) checkpointOnce(recordEvery, folded int64) int64 {
	ms, ws := e.MutationStats(), e.WALStats()
	if ms.Rebuilds <= folded && (recordEvery <= 0 || ws.Seq-ws.CheckpointSeq < uint64(recordEvery)) {
		return folded
	}
	snap, seq, err := e.CheckpointSnapshot()
	if err == nil && seq > ws.CheckpointSeq {
		err = e.wal.WriteCheckpoint(snap, seq)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "distpermd: wal checkpoint: %v\n", err)
		return folded
	}
	return ms.Rebuilds
}
