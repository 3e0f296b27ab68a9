package dpserver

import (
	"container/list"
	"encoding/binary"
	"math"
	"sync"

	"distperm/pkg/distperm"
)

// Cache is a bounded LRU over query results, keyed by a canonical binary
// encoding of (query point, k | radius). It sits in front of the admission
// gate: a hit skips the engine entirely, a miss pays one gated query and
// populates the entry. Safe for concurrent use.
//
// The cache is generation-stamped for mutation safety: Put only stores a
// result computed at the current generation, and Invalidate (called after
// every insert/delete) clears the entries and advances the generation. The
// stamp closes the stale-fill race — a query that read the pre-mutation
// store but finishes after the invalidation carries the old generation, so
// its Put is dropped instead of re-poisoning the cache.
//
// Cached result slices are shared between the cache and its callers; they
// are treated as immutable (the server only marshals them).
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recent
	items    map[string]*list.Element
	gen      uint64
	stats    CacheStats // Entries is filled in by Stats
}

// CacheStats is a snapshot of a Cache's counters: Hits and Misses of Get,
// Entries resident, Evictions by capacity pressure and Invalidations (each
// of which emptied the cache; its entries are not counted as evictions).
type CacheStats struct {
	Hits, Misses, Evictions, Invalidations int64
	Entries                                int
}

type cacheEntry struct {
	key     string
	results []distperm.Result
}

// NewCache returns a cache holding at most capacity entries; capacity < 1
// returns nil, and a nil *Cache is a valid always-miss cache (Get misses
// without counting, Put is a no-op), so callers can thread "cache disabled"
// through without branching.
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		return nil
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// Get returns the cached results for key, marking the entry most recent.
func (c *Cache) Get(key string) ([]distperm.Result, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).results, true
}

// Generation returns the stamp a caller must capture before computing a
// result it intends to Put. A nil cache is always at generation 0.
func (c *Cache) Generation() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// Invalidate empties the cache and advances the generation, so in-flight
// results computed before the mutation can no longer be stored.
func (c *Cache) Invalidate() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
	c.gen++
	c.stats.Invalidations++
}

// Put stores results under key, evicting the least-recently-used entry when
// the cache is full. Re-putting an existing key refreshes it. The entry is
// dropped when gen is not the current generation: the result was computed
// before a mutation invalidated the cache.
func (c *Cache) Put(key string, gen uint64, results []distperm.Result) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).results = results
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.stats.Evictions++
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, results: results})
}

// Stats snapshots the counters under one lock; all zero on a nil cache.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.ll.Len()
	return st
}

// cacheKey canonically encodes an exact single query for the cache — the
// query kind and its parameter (k, or the exact bit pattern of the radius),
// then the point. The bool reports whether the point type is encodable;
// unencodable points simply bypass the cache. Approximate queries never
// reach the cache, so Approx/NProbe are not part of the key.
func cacheKey(p distperm.Point, q distperm.Query) (string, bool) {
	var buf [9]byte
	if q.K != 0 {
		buf[0] = 'k'
		binary.LittleEndian.PutUint64(buf[1:], uint64(q.K))
	} else {
		buf[0] = 'r'
		binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(q.Radius))
	}
	return pointKey(buf[:], p)
}

func pointKey(prefix []byte, q distperm.Point) (string, bool) {
	switch v := q.(type) {
	case distperm.Vector:
		key := make([]byte, len(prefix)+1+8*len(v))
		n := copy(key, prefix)
		key[n] = 'v'
		n++
		for _, x := range v {
			binary.LittleEndian.PutUint64(key[n:], math.Float64bits(x))
			n += 8
		}
		return string(key), true
	case distperm.String:
		return string(prefix) + "s" + string(v), true
	default:
		return "", false
	}
}
