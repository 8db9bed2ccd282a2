package engine

import (
	"container/list"
	"sync"

	"deptree/internal/attrset"
	"deptree/internal/obs"
	"deptree/internal/partition"
	"deptree/internal/relation"
)

// PartitionCache memoizes stripped partitions π_X of one relation, keyed
// by attribute set. It is safe for concurrent use and bounded both by
// entry count (LRU) and, optionally, by resident bytes (Budget
// MaxCacheBytes).
//
// Multi-attribute partitions are constructed TANE-style as a product of
// two cached lattice parents, π_X = π_{X\{a}} · π_{X\{b}} (see
// operands), so a lattice walk that requests π_X after its level below
// pays one partition product over the smallest operands at hand instead
// of a full rebuild from row values. Every route yields the same
// canonical partition (classes sorted by first row, rows ascending), so
// neither the route nor a cache hit ever changes discovery output.
//
// Concurrent requests for the same key are deduplicated: one goroutine
// builds, the rest block on the entry's sync.Once and share the result.
// An entry evicted while still referenced stays valid — eviction only
// forgets the memo, it never mutates a partition.
type PartitionCache struct {
	r        *relation.Relation
	cap      int
	maxBytes int64

	mu        sync.Mutex
	entries   map[attrset.Set]*list.Element
	lru       *list.List // front = most recently used
	bytes     int64
	hits      uint64
	misses    uint64
	evictions uint64
	// upgrades and upgradeEvicts count per-entry outcomes of Upgrade
	// calls.
	upgrades      uint64
	upgradeEvicts uint64

	// Optional live mirrors of the stats above in an obs registry
	// (SetObserver); nil handles are no-ops.
	cHits, cMisses, cEvictions *obs.Counter
	cUpgrades, cUpgradeEvicts  *obs.Counter
	gBytes, gEntries           *obs.Gauge
	cProducts                  *obs.Counter
	hProduct                   *obs.Histogram
}

type cacheEntry struct {
	key  attrset.Set
	once sync.Once
	part *partition.Partition
	// bytes is the partition's estimated footprint, credited after the
	// build completes; resident tracks whether the entry still sits in
	// the LRU, so a build finishing after its eviction never leaks into
	// the byte total.
	bytes    int64
	resident bool
}

// CacheStats is a point-in-time snapshot of cache effectiveness, used for
// budget tuning (deptool profile -v prints it).
type CacheStats struct {
	Hits, Misses, Evictions uint64
	// Bytes is the estimated resident footprint of the memoized
	// partitions; Entries the count of memoized partitions.
	Bytes   int64
	Entries int
	// Upgrades counts entries carried across an Upgrade in place;
	// UpgradeEvictions counts entries an Upgrade dropped instead (the
	// refine callback declined them, or their build was still in flight).
	Upgrades         uint64
	UpgradeEvictions uint64
}

// maxCacheEntries bounds every PartitionCache's entry count. It
// comfortably holds the live frontier (two lattice levels) of the widest
// benchmark relations.
const maxCacheEntries = 4096

// NewPartitionCache creates a cache over r with a bound on resident bytes
// (<= 0 = unlimited): once the exact footprint of the memoized partitions
// exceeds maxBytes, least-recently-used entries are forgotten. The most
// recently inserted entry is never evicted by the byte bound, so a single
// oversized partition degrades to cache-of-one rather than thrashing to
// zero.
func NewPartitionCache(r *relation.Relation, maxBytes int64) *PartitionCache {
	return &PartitionCache{
		r:        r,
		cap:      maxCacheEntries,
		maxBytes: max(maxBytes, 0),
		entries:  make(map[attrset.Set]*list.Element),
		lru:      list.New(),
	}
}

// Relation returns the relation the cache is built over.
func (c *PartitionCache) Relation() *relation.Relation { return c.r }

// SetObserver mirrors the cache's statistics into reg as live metrics:
// counters cache.hits / cache.misses / cache.evictions and gauges
// cache.bytes / cache.entries, plus the partition product hot path as
// counter partition.products_total and histogram partition.product.seconds.
// A nil reg detaches. Call before the first Get; the mirror counts events
// from attachment onward, while Stats() always covers the cache's whole
// lifetime.
func (c *PartitionCache) SetObserver(reg *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cHits = reg.Counter("cache.hits")
	c.cMisses = reg.Counter("cache.misses")
	c.cEvictions = reg.Counter("cache.evictions")
	c.cUpgrades = reg.Counter("cache.upgrades")
	c.cUpgradeEvicts = reg.Counter("cache.upgrade_evictions")
	c.gBytes = reg.Gauge("cache.bytes")
	c.gEntries = reg.Gauge("cache.entries")
	c.cProducts = reg.Counter("partition.products_total")
	c.hProduct = reg.Histogram("partition.product.seconds")
}

// Get returns π_X, building and memoizing it (and, recursively, its
// sub-partitions) on first request. Callers must not modify the returned
// partition.
func (c *PartitionCache) Get(x attrset.Set) *partition.Partition {
	e := c.acquire(x)
	e.once.Do(func() {
		e.part = c.build(x)
		c.credit(e, e.part.MemBytes())
	})
	return e.part
}

// acquire finds or inserts the entry for x, bumps it in the LRU order and
// evicts beyond capacity.
func (c *PartitionCache) acquire(x attrset.Set) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[x]; ok {
		c.hits++
		c.cHits.Inc()
		c.lru.MoveToFront(el)
		return el.Value.(*cacheEntry)
	}
	c.misses++
	c.cMisses.Inc()
	e := &cacheEntry{key: x, resident: true}
	c.entries[x] = c.lru.PushFront(e)
	c.evictLocked()
	c.gEntries.Set(int64(c.lru.Len()))
	return e
}

// credit records a freshly built partition's footprint and enforces the
// byte bound. If the entry was evicted while its build was in flight the
// bytes are not counted — the partition stays valid for its caller.
func (c *PartitionCache) credit(e *cacheEntry, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.bytes = n
	if e.resident {
		c.bytes += n
		c.evictLocked()
	}
	c.gBytes.Set(c.bytes)
	c.gEntries.Set(int64(c.lru.Len()))
}

// evictLocked drops LRU entries until both the capacity and the byte
// bound hold. Callers hold c.mu.
func (c *PartitionCache) evictLocked() {
	for c.lru.Len() > c.cap || (c.maxBytes > 0 && c.bytes > c.maxBytes && c.lru.Len() > 1) {
		back := c.lru.Back()
		if back == nil {
			return
		}
		e := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.entries, e.key)
		e.resident = false
		c.bytes -= e.bytes
		c.evictions++
		c.cEvictions.Inc()
		c.gBytes.Set(c.bytes)
	}
}

// build constructs π_X outside the cache lock. Singletons (and π_∅) come
// straight from the relation; larger sets are the product of the pair
// operands picks, fetched by two Gets that count as hits or misses like
// any other.
func (c *PartitionCache) build(x attrset.Set) *partition.Partition {
	if x.Len() <= 1 {
		return partition.Build(c.r, x)
	}
	a, b := c.operands(x)
	pa, pb := c.Get(a), c.Get(b)
	c.cProducts.Inc()
	stop := c.hProduct.Start()
	p := pa.Product(pb)
	stop()
	return p
}

// operands picks the two sets whose partitions multiply to π_X, for
// |X| ≥ 2: the two smallest (by covered rows ||π||) immediate subsets
// whose build has completed and which are still resident. Any two
// distinct immediate subsets unite to X. Every parent but X\{min}
// refines π_{min}, so when the chain's π_{X\{min}} is resident the pair
// picked covers no more rows than the chain's pair, and when it is not
// the pair spares building it. With one such parent the other operand is
// the singleton of the attribute it lacks; with none, the chain X\{min}
// and {min}. Only completed entries are looked at, never built, and
// looking counts as neither hit nor miss.
func (c *PartitionCache) operands(x attrset.Set) (attrset.Set, attrset.Set) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best [2]attrset.Set
	size := [2]int{-1, -1}
	for rest := x; !rest.IsEmpty(); {
		b := rest.First()
		rest = rest.Remove(b)
		sub := x.Remove(b)
		el, ok := c.entries[sub]
		if !ok {
			continue
		}
		// bytes is credited under c.mu once the build has stored part.
		e := el.Value.(*cacheEntry)
		if e.bytes == 0 {
			continue
		}
		switch n := e.part.Size(); {
		case size[0] < 0 || n < size[0]:
			best[1], size[1] = best[0], size[0]
			best[0], size[0] = sub, n
		case size[1] < 0 || n < size[1]:
			best[1], size[1] = sub, n
		}
	}
	switch {
	case size[1] >= 0:
		return best[0], best[1]
	case size[0] >= 0:
		return best[0], attrset.Single(x.Minus(best[0]).First())
	default:
		a := x.First()
		return x.Remove(a), attrset.Single(a)
	}
}

// Stats reports hits, misses, evictions and the resident footprint since
// creation.
func (c *PartitionCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:             c.hits,
		Misses:           c.misses,
		Evictions:        c.evictions,
		Bytes:            c.bytes,
		Entries:          c.lru.Len(),
		Upgrades:         c.upgrades,
		UpgradeEvictions: c.upgradeEvicts,
	}
}

// Len returns the number of memoized partitions.
func (c *PartitionCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
