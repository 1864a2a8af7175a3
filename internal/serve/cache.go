package serve

import (
	"bytes"
	"container/list"
	"sync"

	"repro/internal/obs"
)

// lruCache is a mutex-guarded LRU cache from canonicalized query keys
// to serialized JSON responses. The database behind the server is
// immutable, so entries never expire; capacity eviction is the only
// invalidation. Hit/miss/eviction counts are recorded straight into
// the server's obs registry (rememberr_cache_*_total), so /metrics and
// /v1/metrics.json read from the same instruments.
type lruCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List
	items map[string]*list.Element

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
}

type cacheEntry struct {
	key string
	val []byte
}

// newLRUCache returns a cache holding up to max entries; max <= 0
// disables caching (every lookup misses, nothing is stored). The
// counters may be nil (no-op) when instrumentation is off.
func newLRUCache(max int, hits, misses, evictions *obs.Counter) *lruCache {
	return &lruCache{
		max:       max,
		ll:        list.New(),
		items:     make(map[string]*list.Element),
		hits:      hits,
		misses:    misses,
		evictions: evictions,
	}
}

func (c *lruCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Inc()
		return el.Value.(*cacheEntry).val, true
	}
	c.misses.Inc()
	return nil, false
}

// put stores a copy of val under key, so the caller may reuse val's
// buffer.
func (c *lruCache) put(key string, val []byte) {
	if c.max <= 0 {
		return
	}
	val = bytes.Clone(val)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*cacheEntry).key)
		c.evictions.Inc()
	}
}

// entries returns the current cache size; it backs the
// rememberr_cache_entries gauge.
func (c *lruCache) entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// stats returns a snapshot of the counters and size.
func (c *lruCache) stats() (hits, misses, evictions int64, entries int) {
	return c.hits.Value(), c.misses.Value(), c.evictions.Value(), c.entries()
}
