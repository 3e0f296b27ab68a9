package distperm

import (
	"errors"
	"fmt"
	"io"
	"os"

	"distperm/internal/sisap"
)

// ErrNeedDB reports that a frozen container embeds no point vectors, so it
// can only be opened against an explicitly supplied database. Callers that
// attempted a database-less Load can match it with errors.Is, load the
// dataset, and retry.
var ErrNeedDB = sisap.ErrNeedDB

// WriteFrozenIndex writes the frozen container form (PFR4) of a
// distance-permutation index: position-independent sections (sites, raw rank
// matrix, row IDs, bucket directory, the walk's cells and bounds and — when
// the metric is named and the points are plain vectors — the point data
// itself, in cell order) that a later Load with Mmap can map read-only in
// O(1) and walk without copying a coordinate or sweeping a bound. It is the
// one frozen revision Load reads: a PFR3 or PFR2 file is refused by name.
func WriteFrozenIndex(w io.Writer, x *PermIndex) (int64, error) {
	return sisap.WriteFrozen(w, x)
}

// LoadOptions configures Load.
type LoadOptions struct {
	// Mmap maps the container read-only instead of decoding it onto the
	// heap. Opening is O(1) in the index size: the header and section
	// checksums are verified, then the kernels run directly over the mapped
	// bytes. Requires a frozen container (WriteFrozenIndex); on platforms
	// without mmap support, or on big-endian hosts, the same file is
	// transparently decoded onto the heap instead.
	Mmap bool
	// DB is the database the index was built on. It may be nil only for
	// mapped opens of containers that embed their points (Load then serves
	// the embedded database); otherwise Load fails — with ErrNeedDB when a
	// point-less frozen container was opened without one.
	DB *DB
}

// Store is an opened index container: the index, the database it answers
// against, and — for mapped opens — the mapping that backs them. The caller
// owns the Store and must Close it only after every Engine over it has
// closed: a mapped base stays mapped until then, also after a rebuild has
// replaced it (a self-contained container's points are views into the
// mapping and every rebuilt base still reads them). An Engine from Open owns
// the Store it opened and closes it itself.
type Store struct {
	DB    *DB
	Index Index

	mapped *sisap.Mapped
}

// Mapped reports whether the store serves zero-copy from a mapped container
// (false after a heap decode, including the big-endian/no-mmap fallbacks).
func (s *Store) Mapped() bool { return s.mapped != nil && s.mapped.Zero() }

// Close releases the mapping, if any. The index must no longer be queried
// afterwards. Closing twice is safe; a heap-backed store's Close is a no-op.
func (s *Store) Close() error {
	if s.mapped == nil {
		return nil
	}
	return s.mapped.Close()
}

// Load opens an index container written by WriteIndex or WriteFrozenIndex.
// The default path decodes the file onto the heap against opts.DB; with Mmap it maps a frozen container zero-copy, sharing
// one read-only rank table across every query and every process serving the
// same file.
func Load(path string, opts LoadOptions) (*Store, error) {
	if opts.Mmap {
		m, err := sisap.OpenMapped(path, opts.DB)
		if err != nil {
			return nil, fmt.Errorf("distperm: load %s: %w", path, err)
		}
		return &Store{DB: m.DB(), Index: m.Index(), mapped: m}, nil
	}
	if opts.DB == nil {
		return nil, errors.New("distperm: Load without Mmap requires LoadOptions.DB")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("distperm: load: %w", err)
	}
	idx, err := sisap.DecodeIndex(data, opts.DB)
	if err != nil {
		return nil, fmt.Errorf("distperm: load %s: %w", path, err)
	}
	return &Store{DB: opts.DB, Index: idx}, nil
}

// MmapStats is a snapshot of the process-wide frozen-container open path:
// opens (and how many were true zero-copy mappings), open latency, bytes
// currently mapped, and rejected section-checksum verifications. The
// serving layer exports these on /metrics.
type MmapStats = sisap.MmapStats

// ReadMmapStats snapshots the process-wide mmap/open counters.
func ReadMmapStats() MmapStats { return sisap.ReadMmapStats() }
