package distperm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"distperm/internal/sisap"
	"distperm/pkg/obs"
)

// This file is the durability layer of the write path: an append-only
// write-ahead log that a writable Engine appends to before acknowledging a
// mutation, so a kill -9 between an acknowledged insert and the next
// snapshot rebuild loses nothing. The log is a directory of segment files
// (rotated at a size threshold, named by the sequence number of their first
// record) plus optional checkpoint files (a self-contained snapshot of the
// whole store that lets replay start from its covered sequence instead of
// zero, and lets the segments behind it be deleted).
//
// This file handles the log's files; the bytes of a record frame and of a
// checkpoint are internal/sisap's (walrec.go), read through its bounds-checked
// cursor. Every record is length-prefixed and CRC-32C-checksummed, so the
// write a crash interrupted fails its checksum and OpenWAL physically
// truncates the log at the last intact record. A frame that fails anywhere
// other than the tail of the final segment is corruption, not a crash
// artifact, and opening refuses rather than silently dropping records.
//
// Segment file layout (little-endian):
//
//	magic    [8]byte  "DPWALSEG"
//	version  uint32   walVersion
//	flags    uint32   reserved, 0
//	firstSeq uint64   sequence number of the first record in this file
//	records  …        sisap WAL record frames, back to back
//
// With no checkpoint, recovery rebuilds the base the same way the daemon
// built it the first time (the dataset flags are deterministic) and replays
// the log from sequence zero.

// Aliases re-exporting the record codec at the public boundary, so WAL
// callers and tests never import internal/sisap.
type (
	// WALRecord is one logged mutation.
	WALRecord = sisap.WALRecord
	// WALOp discriminates WAL record kinds.
	WALOp = sisap.WALOp
)

const (
	// WALInsert records an accepted insert: gid plus the point.
	WALInsert = sisap.WALInsert
	// WALDelete records an accepted delete: the gid alone.
	WALDelete = sisap.WALDelete
)

// ErrWALTorn reports an incomplete or checksum-mismatched frame — the shape
// a crash mid-append leaves behind.
var ErrWALTorn = sisap.ErrWALTorn

const (
	walSegMagic  = "DPWALSEG"
	walVersion   = 1
	segHeaderLen = 8 + 4 + 4 + 8

	defaultSegmentBytes = 64 << 20
	minSegmentBytes     = 4 << 10
	defaultSyncInterval = 50 * time.Millisecond
)

// SyncPolicy decides when an Append becomes durable.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append before it returns: an
	// acknowledged write survives power loss. The default, and the slowest.
	SyncAlways SyncPolicy = iota
	// SyncInterval leaves appends in the OS page cache and fsyncs from a
	// background ticker: an acknowledged write survives a process crash
	// (kill -9) immediately, and power loss after at most SyncInterval.
	SyncInterval
	// SyncNever never fsyncs during appends: acknowledged writes survive a
	// process crash (the kernel owns the pages) but not power loss.
	SyncNever
)

// String renders the policy the way the -wal-sync flag spells it.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy maps a -wal-sync flag value to its policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("distperm: unknown wal sync policy %q (have always, interval, never)", s)
	}
}

// WALOptions tunes a WAL. The zero value is the safe default: fsync on
// every append, 64 MiB segments.
type WALOptions struct {
	// Sync is the durability policy for appends.
	Sync SyncPolicy
	// SyncInterval is the background fsync period under SyncInterval
	// (default 50ms; ignored otherwise).
	SyncInterval time.Duration
	// SegmentBytes rotates the append segment once it reaches this size
	// (default 64 MiB, minimum 4 KiB).
	SegmentBytes int64
}

// walSegment is one on-disk segment: its path, the sequence of its first
// record, and how many valid records it holds.
type walSegment struct {
	path  string
	first uint64
	count uint64
}

// WAL is an append-only, crash-recoverable log of mutations. Appends are
// serialized by an internal mutex; the durability of a returned Append is
// the configured SyncPolicy's. All methods are safe for concurrent use.
type WAL struct {
	dir  string
	opts WALOptions

	mu       sync.Mutex
	f        *os.File // active append segment
	size     int64    // bytes written to f (including header)
	seq      uint64   // last assigned record sequence (0 = none)
	segments []walSegment
	dirty    bool  // unsynced appends pending (SyncInterval)
	failed   error // sticky: a write/fsync error poisons the log until restart
	closed   bool

	done chan struct{}
	wg   sync.WaitGroup

	appended    atomic.Int64
	appendedB   atomic.Int64
	syncs       atomic.Int64
	replayed    atomic.Int64
	recoveries  atomic.Int64
	tornB       atomic.Int64
	checkpoints atomic.Int64
	ckptSeq     atomic.Uint64
	fsyncHist   *obs.Histogram
}

// WALStats is a point-in-time snapshot of the log's counters, the surface
// /v1/stats and /metrics export.
type WALStats struct {
	Enabled            bool
	Dir                string
	Sync               string
	Seq                uint64
	Segments           int
	AppendedRecords    int64
	AppendedBytes      int64
	Syncs              int64
	ReplayedRecords    int64
	Recoveries         int64
	TornBytesTruncated int64
	Checkpoints        int64
	CheckpointSeq      uint64
	Fsync              obs.HistogramSnapshot
}

// WALCheckpoint is a loaded checkpoint: the snapshot it froze and the WAL
// sequence it covers (replay resumes at Seq+1).
type WALCheckpoint struct {
	Snapshot *MutableIndex
	Seq      uint64
}

// checkpointable reports why a store serving idx, and rebuilding to spec,
// could never write a checkpoint: WriteCheckpoint serialises the store in
// the compact DPERMIDX form, which caps a distperm index's sites. Checked
// from structure alone where a log is attached, so such a store is refused
// at boot instead of failing every checkpoint while its log grows for ever.
func checkpointable(idx Index, spec Spec) error {
	err := sisap.Serialisable(idx)
	if err == nil && spec.Index == "distperm" {
		err = sisap.CheckPackedSites(spec.K)
	}
	if err != nil {
		return fmt.Errorf("distperm: a WAL needs a store its checkpoints can hold: %w", err)
	}
	return nil
}

// OpenWAL opens (creating if needed) the log at dir, scanning existing
// segments, truncating a torn tail left by a crash, and resuming appends
// after the last intact record. Corruption anywhere but the tail of the
// final segment is an error.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.SegmentBytes < minSegmentBytes {
		opts.SegmentBytes = minSegmentBytes
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = defaultSyncInterval
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("distperm: creating wal dir: %w", err)
	}
	w := &WAL{
		dir:       dir,
		opts:      opts,
		done:      make(chan struct{}),
		fsyncHist: obs.NewHistogram(obs.DefLatencyBuckets),
	}
	if err := w.scan(); err != nil {
		return nil, err
	}
	if w.seq > 0 || w.tornB.Load() > 0 {
		w.recoveries.Add(1)
	}
	if err := w.openAppendSegment(); err != nil {
		return nil, err
	}
	if opts.Sync == SyncInterval {
		w.wg.Add(1)
		go w.syncLoop()
	}
	return w, nil
}

// scan reads every segment in sequence order, validates headers and record
// continuity, truncates the torn tail of the final segment, and fills in
// w.segments and w.seq.
func (w *WAL) scan() error {
	names, err := filepath.Glob(filepath.Join(w.dir, "wal-*.seg"))
	if err != nil {
		return err
	}
	sort.Strings(names) // wal-%016x sorts numerically
	for i, path := range names {
		last := i == len(names)-1
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("distperm: reading wal segment: %w", err)
		}
		if len(data) < segHeaderLen {
			if !last {
				return fmt.Errorf("distperm: wal segment %s truncated to %d bytes mid-log", filepath.Base(path), len(data))
			}
			// A crash tore the rotation itself: the header never finished.
			// Nothing in the file is a record; drop it.
			w.tornB.Add(int64(len(data)))
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("distperm: removing torn wal segment: %w", err)
			}
			continue
		}
		if string(data[:8]) != walSegMagic {
			return fmt.Errorf("distperm: %s is not a wal segment", filepath.Base(path))
		}
		if v := binary.LittleEndian.Uint32(data[8:]); v != walVersion {
			return fmt.Errorf("distperm: wal segment %s has version %d, this build speaks %d", filepath.Base(path), v, walVersion)
		}
		first := binary.LittleEndian.Uint64(data[16:])
		if first != w.seq+1 {
			return fmt.Errorf("distperm: wal segment %s starts at seq %d, want %d (missing segment?)", filepath.Base(path), first, w.seq+1)
		}
		seg := walSegment{path: path, first: first}
		off := segHeaderLen
		for off < len(data) {
			_, n, err := sisap.DecodeWALRecord(data[off:])
			if err != nil {
				if errors.Is(err, ErrWALTorn) && last {
					// The write the crash interrupted. Truncate so future
					// appends start on a clean frame boundary.
					w.tornB.Add(int64(len(data) - off))
					if terr := os.Truncate(path, int64(off)); terr != nil {
						return fmt.Errorf("distperm: truncating torn wal tail: %w", terr)
					}
					data = data[:off]
					break
				}
				return fmt.Errorf("distperm: wal segment %s corrupt at offset %d: %w", filepath.Base(path), off, err)
			}
			off += n
			seg.count++
		}
		w.seq += seg.count
		w.segments = append(w.segments, seg)
	}
	return nil
}

// openAppendSegment resumes appending to the final scanned segment if it
// has room, or starts a fresh one.
func (w *WAL) openAppendSegment() error {
	if n := len(w.segments); n > 0 {
		seg := w.segments[n-1]
		info, err := os.Stat(seg.path)
		if err != nil {
			return err
		}
		if info.Size() < w.opts.SegmentBytes {
			f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("distperm: reopening wal segment: %w", err)
			}
			w.f, w.size = f, info.Size()
			return nil
		}
	}
	return w.createSegmentLocked(w.seq + 1)
}

// createSegmentLocked starts the segment whose first record will be seq
// `first`, making both the header and the directory entry durable before
// any record lands in it.
func (w *WAL) createSegmentLocked(first uint64) error {
	path := filepath.Join(w.dir, fmt.Sprintf("wal-%016x.seg", first))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("distperm: creating wal segment: %w", err)
	}
	hdr := make([]byte, 0, segHeaderLen)
	hdr = append(hdr, walSegMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, walVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)
	hdr = binary.LittleEndian.AppendUint64(hdr, first)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("distperm: writing wal segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("distperm: syncing wal segment header: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return fmt.Errorf("distperm: syncing wal dir: %w", err)
	}
	w.f, w.size = f, segHeaderLen
	w.segments = append(w.segments, walSegment{path: path, first: first})
	return nil
}

// Append logs the records, in order, as one write. When it returns nil the
// records are on the log with the durability the SyncPolicy promises
// (SyncAlways: fsynced). A write or fsync error poisons the WAL — every
// later Append fails with the same error — because a partially-persisted
// record must not share the log with a reused sequence.
func (w *WAL) Append(recs ...WALRecord) error {
	if len(recs) == 0 {
		return nil
	}
	var buf []byte
	for _, rec := range recs {
		var err error
		if buf, err = sisap.AppendWALRecord(buf, rec); err != nil {
			return err
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case w.closed:
		return errors.New("distperm: wal is closed")
	case w.failed != nil:
		return fmt.Errorf("distperm: wal failed earlier: %w", w.failed)
	}
	if w.size >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			w.failed = err
			return err
		}
	}
	n, err := w.f.Write(buf)
	if err != nil {
		w.failed = err
		return fmt.Errorf("distperm: wal append: %w", err)
	}
	w.size += int64(n)
	w.seq += uint64(len(recs))
	w.segments[len(w.segments)-1].count += uint64(len(recs))
	w.appended.Add(int64(len(recs)))
	w.appendedB.Add(int64(n))
	switch w.opts.Sync {
	case SyncAlways:
		return w.fsyncLocked()
	case SyncInterval:
		w.dirty = true
	}
	return nil
}

func (w *WAL) rotateLocked() error {
	if w.opts.Sync != SyncNever && w.dirty {
		if err := w.fsyncLocked(); err != nil {
			return err
		}
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	return w.createSegmentLocked(w.seq + 1)
}

func (w *WAL) fsyncLocked() error {
	start := time.Now()
	err := w.f.Sync()
	w.fsyncHist.Observe(time.Since(start).Seconds())
	w.syncs.Add(1)
	if err != nil {
		w.failed = err
		return fmt.Errorf("distperm: wal fsync: %w", err)
	}
	w.dirty = false
	return nil
}

func (w *WAL) syncLoop() {
	defer w.wg.Done()
	t := time.NewTicker(w.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.done:
			return
		case <-t.C:
			w.mu.Lock()
			if !w.closed && w.failed == nil && w.dirty {
				w.fsyncLocked() //nolint:errcheck // sticky w.failed carries it
			}
			w.mu.Unlock()
		}
	}
}

// Seq returns the sequence number of the last appended record (0 when the
// log is empty).
func (w *WAL) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Replay streams every record with sequence > fromSeq, in order, to fn
// (which must not call back into this WAL). A missing prefix — fromSeq
// predates the oldest retained segment — is an error: recovery from that
// point is impossible, not merely empty. Call before serving traffic; the
// log is locked for the duration.
func (w *WAL) Replay(fromSeq uint64, fn func(seq uint64, rec WALRecord) error) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, errors.New("distperm: wal is closed")
	}
	w.recoveries.Add(1)
	var replayed uint64
	for _, seg := range w.segments {
		if seg.count == 0 || seg.first+seg.count-1 <= fromSeq {
			continue
		}
		if replayed == 0 && seg.first > fromSeq+1 {
			return 0, fmt.Errorf("distperm: wal replay from seq %d impossible: oldest retained record is %d", fromSeq, seg.first)
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return replayed, fmt.Errorf("distperm: reading wal segment: %w", err)
		}
		off := segHeaderLen
		for i := uint64(0); i < seg.count; i++ {
			rec, n, err := sisap.DecodeWALRecord(data[off:])
			if err != nil {
				return replayed, fmt.Errorf("distperm: wal segment %s corrupt at offset %d: %w", filepath.Base(seg.path), off, err)
			}
			off += n
			if seq := seg.first + i; seq > fromSeq {
				if err := fn(seq, rec); err != nil {
					return replayed, err
				}
				replayed++
				w.replayed.Add(1)
			}
		}
	}
	return replayed, nil
}

// TruncateThrough deletes whole segments every record of which has
// sequence ≤ seq. The active append segment is never deleted. Only call
// once a checkpoint (or an equivalent durable snapshot) covers seq —
// replay afterwards starts at seq+1.
func (w *WAL) TruncateThrough(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.truncateThroughLocked(seq)
}

func (w *WAL) truncateThroughLocked(seq uint64) error {
	for len(w.segments) > 1 {
		seg := w.segments[0]
		if seg.count == 0 || seg.first+seg.count-1 > seq {
			break
		}
		if err := os.Remove(seg.path); err != nil {
			return fmt.Errorf("distperm: removing covered wal segment: %w", err)
		}
		w.segments = w.segments[1:]
	}
	return nil
}

// WriteCheckpoint durably writes a self-contained checkpoint of snap
// covering WAL sequence seq (tmp + fsync + rename), then deletes older
// checkpoints and the segments the new one covers. The snapshot/seq pair
// must be an exact cut — Engine.CheckpointSnapshot produces one.
func (w *WAL) WriteCheckpoint(snap *MutableIndex, seq uint64) error {
	body, err := sisap.AppendCheckpoint(make([]byte, 0, 1<<20), seq, snap)
	if err != nil {
		return fmt.Errorf("distperm: encoding checkpoint: %w", err)
	}
	final := filepath.Join(w.dir, fmt.Sprintf("ckpt-%016x.ckpt", seq))
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, body); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("distperm: publishing checkpoint: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		return err
	}
	w.checkpoints.Add(1)
	w.ckptSeq.Store(seq)

	// The new checkpoint supersedes everything before it.
	olds, _ := filepath.Glob(filepath.Join(w.dir, "ckpt-*.ckpt"))
	for _, old := range olds {
		if old != final {
			os.Remove(old) //nolint:errcheck // best-effort cleanup
		}
	}
	return w.TruncateThrough(seq)
}

// LoadCheckpoint loads the newest intact checkpoint, or (nil, nil) when
// none exists. A checkpoint that fails its checksum, or holds points no query
// could run over, is skipped in favour of an older one; if every candidate is
// refused the first failure is the error (recovery may still be possible by
// deleting the bad files and replaying the full log, but that is the
// operator's call, not ours).
func (w *WAL) LoadCheckpoint() (*WALCheckpoint, error) {
	names, err := filepath.Glob(filepath.Join(w.dir, "ckpt-*.ckpt"))
	if err != nil {
		return nil, err
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names))) // newest (highest seq) first
	var firstErr error
	for _, path := range names {
		var ck WALCheckpoint
		data, err := os.ReadFile(path)
		if err == nil {
			ck.Seq, ck.Snapshot, err = sisap.DecodeCheckpoint(data)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("distperm: checkpoint %s: %w", filepath.Base(path), err)
			}
			continue
		}
		w.ckptSeq.Store(ck.Seq)
		return &ck, nil
	}
	return nil, firstErr
}

// Stats snapshots the log's counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	seq, segs := w.seq, len(w.segments)
	w.mu.Unlock()
	return WALStats{
		Enabled:            true,
		Dir:                w.dir,
		Sync:               w.opts.Sync.String(),
		Seq:                seq,
		Segments:           segs,
		AppendedRecords:    w.appended.Load(),
		AppendedBytes:      w.appendedB.Load(),
		Syncs:              w.syncs.Load(),
		ReplayedRecords:    w.replayed.Load(),
		Recoveries:         w.recoveries.Load(),
		TornBytesTruncated: w.tornB.Load(),
		Checkpoints:        w.checkpoints.Load(),
		CheckpointSeq:      w.ckptSeq.Load(),
		Fsync:              w.fsyncHist.Snapshot(),
	}
}

// Close stops the background syncer, fsyncs any unsynced tail, and closes
// the append segment. Idempotent.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	close(w.done)
	w.wg.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	var err error
	if w.failed == nil && w.f != nil {
		start := time.Now()
		err = w.f.Sync()
		w.fsyncHist.Observe(time.Since(start).Seconds())
		w.syncs.Add(1)
	}
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
	}
	if w.failed != nil && err == nil {
		err = w.failed
	}
	return err
}

// writeFileSync writes data to path and fsyncs it before returning.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("distperm: writing %s: %w", filepath.Base(path), err)
	}
	return nil
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil && !errors.Is(err, os.ErrInvalid) && !strings.Contains(err.Error(), "invalid argument") {
		return fmt.Errorf("distperm: syncing dir %s: %w", dir, err)
	}
	return nil
}
