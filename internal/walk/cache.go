package walk

import (
	"sync"
	"sync/atomic"

	"kgexplore/internal/rdf"
)

// maxIfaceVals is the capacity of a suffix cache key: the boundary's
// interface values (query.Plan.Iface) plus the bound α and β. A boundary
// whose values do not fit is computed uncached — the one overflow rule of
// every suffix cache; it never panics.
const maxIfaceVals = 8

// aggKey identifies a cached suffix aggregation: the boundary step plus the
// values of its interface variables and the already-bound α/β.
type aggKey struct {
	step int8
	vals [maxIfaceVals]rdf.ID
}

// suffixEntry is one (α, β) group of an exactly enumerated suffix: a and b
// are the bound values (NoID when unbound by the suffix) and n the number
// of suffix paths carrying them.
type suffixEntry struct {
	a, b rdf.ID
	n    int64
}

// rootEntry memoizes a root-only policy's per-value result (see
// Options.Owned): the groups a root value reaches and its root count.
type rootEntry struct {
	groups []rdf.ID
	n      int
}

// Cache is the suffix cache of the walker: exact suffix aggregations keyed
// by boundary interface, plus the per-root-value memo of a root-only
// policy. Entries depend on the plan and on the walk's root population, so
// a Cache serves the walkers of one plan and one stratum; any number of them
// may share it concurrently, and it may survive across runs for warm
// starts. Lookups take a read lock; fills happen outside any lock and are
// published first-write-wins, so racing walkers may duplicate a computation
// but never see a torn entry.
type Cache struct {
	mu    sync.RWMutex
	agg   map[aggKey][]suffixEntry
	roots map[rdf.ID]rootEntry

	hits, misses atomic.Int64
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{
		agg:   make(map[aggKey][]suffixEntry),
		roots: make(map[rdf.ID]rootEntry),
	}
}

// CacheStats counts cache traffic.
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

func (c *Cache) count(hit bool) {
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

func (c *Cache) getAgg(k aggKey) ([]suffixEntry, bool) {
	c.mu.RLock()
	v, ok := c.agg[k]
	c.mu.RUnlock()
	c.count(ok)
	return v, ok
}

// putAgg publishes a computed aggregation; if another walker won the race,
// the incumbent is returned so all callers agree on one slice.
func (c *Cache) putAgg(k aggKey, v []suffixEntry) []suffixEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.agg[k]; ok {
		return cur
	}
	c.agg[k] = v
	return v
}

// Root returns the memoized root-only result for root value v.
func (c *Cache) Root(v rdf.ID) (groups []rdf.ID, n int, ok bool) {
	c.mu.RLock()
	e, ok := c.roots[v]
	c.mu.RUnlock()
	c.count(ok)
	return e.groups, e.n, ok
}

// PutRoot publishes a root-only result for v first-write-wins and returns
// the entry that won.
func (c *Cache) PutRoot(v rdf.ID, groups []rdf.ID, n int) ([]rdf.ID, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.roots[v]; ok {
		return cur.groups, cur.n
	}
	c.roots[v] = rootEntry{groups: groups, n: n}
	return groups, n
}
