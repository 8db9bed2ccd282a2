package engine

import (
	"container/list"

	"deptree/internal/attrset"
	"deptree/internal/partition"
)

// Upgrade: carrying a PartitionCache across an append batch.
//
// A PartitionCache is keyed by attribute set over ONE relation state.
// When a streaming session appends a batch, every memoized partition is
// stale — but not equally so: the session's per-attrset Refiners can
// refine some of them to the new state in O(delta + touched classes),
// and the rest are cheaper to drop and rebuild lazily as products of the
// refined singletons than to refine eagerly. Upgrade implements exactly
// that choice, refining entries in place instead of throwing the cache
// away wholesale on every batch.

// Upgrade advances the cache to the relation's grown state. refine is
// called once per fully built resident entry; returning a partition
// replaces the memo in place (an upgrade hit — typically a singleton
// handed over from a partition.Refiner), returning nil drops the entry,
// to be rebuilt lazily against the new state on its next Get.
// Entries whose build is still in flight are dropped unconditionally.
// The byte accounting follows the replacement partitions exactly.
//
// Upgrade must not race with Get: the caller is expected to quiesce
// discovery before appending a batch, which is the streaming session
// contract (batches are serialized, and no discovery runs mid-append).
func (c *PartitionCache) Upgrade(refine func(x attrset.Set, p *partition.Partition) *partition.Partition) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*cacheEntry)
		var np *partition.Partition
		if e.part != nil && refine != nil {
			np = refine(e.key, e.part)
		}
		if np == nil {
			c.lru.Remove(el)
			delete(c.entries, e.key)
			e.resident = false
			c.bytes -= e.bytes
			c.upgradeEvicts++
			c.cUpgradeEvicts.Inc()
			continue
		}
		nb := np.MemBytes()
		c.bytes += nb - e.bytes
		e.part, e.bytes = np, nb
		c.upgrades++
		c.cUpgrades.Inc()
	}
	c.gBytes.Set(c.bytes)
	c.gEntries.Set(int64(c.lru.Len()))
}
