package sqldb

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Statement/plan cache. The annotation workload re-executes a small set of
// statement shapes thousands of times (per-table id scans, sign resets,
// request queries), and parsing dominated those round trips. The cache maps
// SQL text to its parsed statement under an LRU bound; executors never
// mutate parsed statements, so cached ASTs are shared safely across
// executions and across concurrent readers.
//
// One-shot statement classes are deliberately not cached: bulk-load INSERT
// streams and DDL would only thrash the LRU (see cacheable).

// DefaultPlanCacheSize is the LRU capacity a fresh database starts with.
const DefaultPlanCacheSize = 512

// planCache is an LRU of parsed statements keyed by SQL text.
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	lru     *list.List // front = most recently used

	hits   atomic.Int64
	misses atomic.Int64
}

type planEntry struct {
	key string
	st  Statement
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:     capacity,
		entries: map[string]*list.Element{},
		lru:     list.New(),
	}
}

// get returns the cached statement for src, promoting it to most recently
// used. Hits are counted here; misses are counted by put, so the hit ratio
// measures cache efficacy over the cacheable statement classes only (a
// bulk-load INSERT stream does not drown the ratio).
func (c *planCache) get(src string) (Statement, bool) {
	if c == nil || c.cap <= 0 {
		return nil, false
	}
	var st Statement
	c.mu.Lock()
	el, ok := c.entries[src]
	if ok {
		c.lru.MoveToFront(el)
		// put may replace the statement under the lock; read it there too.
		st = el.Value.(*planEntry).st
	}
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	c.hits.Add(1)
	return st, true
}

// put caches a parsed statement (a cacheable miss), evicting the least
// recently used entry when over capacity.
func (c *planCache) put(src string, st Statement) {
	if c == nil || c.cap <= 0 {
		return
	}
	c.misses.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[src]; ok {
		c.lru.MoveToFront(el)
		el.Value.(*planEntry).st = st
		return
	}
	c.entries[src] = c.lru.PushFront(&planEntry{key: src, st: st})
	for c.lru.Len() > c.cap {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.entries, last.Value.(*planEntry).key)
	}
}

// len returns the number of cached statements.
func (c *planCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// cacheable reports whether a statement class benefits from caching:
// queries and single-table DML repeat across annotation runs; INSERT
// streams and DDL are one-shot and would only evict useful entries.
func cacheable(st Statement) bool {
	switch st.(type) {
	case *Query, *UpdateStmt, *DeleteStmt:
		return true
	default:
		return false
	}
}

// PlanCacheStats reports the statement cache's cumulative behavior.
type PlanCacheStats struct {
	Hits, Misses int64
	// Size is the current number of cached statements; Capacity the LRU
	// bound (0 when the cache is disabled).
	Size, Capacity int
}

// PlanCacheStats returns the cache's hit/miss counters and occupancy.
func (db *Database) PlanCacheStats() PlanCacheStats {
	db.mu.RLock()
	c := db.cache
	db.mu.RUnlock()
	if c == nil {
		return PlanCacheStats{}
	}
	return PlanCacheStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Size:     c.len(),
		Capacity: c.cap,
	}
}

// SetPlanCacheSize replaces the statement cache with a fresh one of the
// given capacity (dropping cached statements and counters); 0 or below
// disables caching.
func (db *Database) SetPlanCacheSize(capacity int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if capacity <= 0 {
		db.cache = nil
		return
	}
	db.cache = newPlanCache(capacity)
}
