package dpserver

import (
	"testing"

	"distperm/pkg/distperm"
)

func TestCacheLRU(t *testing.T) {
	c := NewCache(2)
	rs := func(id int) []distperm.Result { return []distperm.Result{{ID: id}} }
	c.Put("a", 0, rs(1))
	c.Put("b", 0, rs(2))
	if got, ok := c.Get("a"); !ok || got[0].ID != 1 {
		t.Fatalf("Get(a) = %v, %v", got, ok)
	}
	// "a" is now most recent; inserting "c" must evict "b".
	c.Put("c", 0, rs(3))
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if got, ok := c.Get("a"); !ok || got[0].ID != 1 {
		t.Errorf("a evicted instead of b: %v, %v", got, ok)
	}
	if got, ok := c.Get("c"); !ok || got[0].ID != 3 {
		t.Errorf("Get(c) = %v, %v", got, ok)
	}
	// Refreshing an existing key replaces its value without growing.
	c.Put("c", 0, rs(4))
	if got, _ := c.Get("c"); got[0].ID != 4 {
		t.Errorf("refresh did not replace: %v", got)
	}
	st := c.Stats()
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
	if st.Hits != 4 || st.Misses != 1 {
		t.Errorf("hits, misses = %d, %d, want 4, 1", st.Hits, st.Misses)
	}
}

// TestCacheDisabled: capacity < 1 returns a nil cache that misses silently
// — the "cache off" configuration needs no branching at call sites.
func TestCacheDisabled(t *testing.T) {
	c := NewCache(0)
	if c != nil {
		t.Fatal("NewCache(0) should return nil")
	}
	c.Put("a", 0, nil)
	if _, ok := c.Get("a"); ok {
		t.Error("nil cache hit")
	}
	if c.Stats() != (CacheStats{}) {
		t.Error("nil cache counted")
	}
}

// TestCacheInvalidation: Invalidate empties the cache and advances the
// generation, and Put drops results stamped with an older generation — the
// rule that keeps a mutation from being masked by a racing query's fill.
func TestCacheInvalidation(t *testing.T) {
	c := NewCache(4)
	rs := func(id int) []distperm.Result { return []distperm.Result{{ID: id}} }
	gen := c.Generation()
	c.Put("a", gen, rs(1))
	c.Put("b", gen, rs(2))
	c.Invalidate()
	if _, ok := c.Get("a"); ok {
		t.Error("a survived invalidation")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b survived invalidation")
	}
	// The stale-fill race: a result computed before the invalidation (old
	// generation stamp) must not enter the cache afterwards.
	c.Put("a", gen, rs(1))
	if _, ok := c.Get("a"); ok {
		t.Error("stale-generation Put was stored")
	}
	// A result computed at the new generation stores normally.
	c.Put("a", c.Generation(), rs(9))
	if got, ok := c.Get("a"); !ok || got[0].ID != 9 {
		t.Errorf("current-generation Put lost: %v, %v", got, ok)
	}
	if got := c.Stats().Invalidations; got != 1 {
		t.Errorf("Invalidations = %d, want 1", got)
	}
	// The nil (disabled) cache accepts the whole protocol as no-ops.
	var nc *Cache
	if nc.Generation() != 0 || nc.Stats().Invalidations != 0 {
		t.Error("nil cache has state")
	}
	nc.Invalidate()
}

// TestCacheInvalidateAllocs: emptying the cache, which every insert and
// delete does, allocates nothing.
func TestCacheInvalidateAllocs(t *testing.T) {
	c := NewCache(4096)
	for i := 0; i < 4096; i++ {
		c.Put(string(rune(i)), c.Generation(), []distperm.Result{{ID: i}})
	}
	if n := testing.AllocsPerRun(100, c.Invalidate); n != 0 {
		t.Errorf("Invalidate allocates %v times, want 0", n)
	}
}

// TestCacheKeys: the canonical encoding separates operations, parameters,
// and point types, and rejects unencodable points.
func TestCacheKeys(t *testing.T) {
	v := distperm.Vector{0.5, 0.25}
	keys := map[string]string{}
	add := func(label, key string, ok bool) {
		if !ok {
			t.Fatalf("%s not cacheable", label)
		}
		if prev, dup := keys[key]; dup {
			t.Errorf("%s collides with %s", label, prev)
		}
		keys[key] = label
	}
	k1, ok := cacheKey(v, distperm.Query{K: 1})
	add("knn k=1", k1, ok)
	k2, ok := cacheKey(v, distperm.Query{K: 2})
	add("knn k=2", k2, ok)
	r1, ok := cacheKey(v, distperm.Query{Radius: 1.0})
	add("range r=1", r1, ok)
	r2, ok := cacheKey(v, distperm.Query{Radius: 0.5})
	add("range r=0.5", r2, ok)
	s1, ok := cacheKey(distperm.String("ab"), distperm.Query{K: 1})
	add("knn string", s1, ok)
	// Same inputs must re-derive the same key.
	again, _ := cacheKey(distperm.Vector{0.5, 0.25}, distperm.Query{K: 1})
	if again != k1 {
		t.Error("cacheKey not canonical")
	}
	type opaque struct{}
	if _, ok := cacheKey(opaque{}, distperm.Query{K: 1}); ok {
		t.Error("opaque point should not be cacheable")
	}
}
