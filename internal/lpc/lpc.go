// Package lpc implements locality-preserved caching (paper §3.3, adopted
// from DDFS): an LRU cache of container fingerprint sets. When a restore
// (or DDFS-style inline dedup) misses the cache, the disk index locates
// the chunk's container, the whole container's metadata is prefetched
// into the cache, and — because SISL stored stream-adjacent chunks in the
// same container — the following lookups hit in memory. One disk access
// thereby resolves many subsequent fingerprints; the paper measures 99.3%
// of random index lookups eliminated during restore (§6.2).
//
// The cache's capacity is also the restore path's memory bound: a
// container it holds with data may alias the container log's mapping,
// and Insert reports each such container it evicts so that the restorer
// releases its pages (tpds.Restorer, store.SegRepo.Release).
package lpc

import (
	"container/list"
	"fmt"

	"debar/internal/container"
	"debar/internal/fp"
)

// Cache is an LRU cache over containers. Not safe for concurrent use.
type Cache struct {
	cap    int // max cached containers
	ll     *list.List
	byID   map[fp.ContainerID]*list.Element
	member map[fp.FP]fp.ContainerID
	hits   int64
	misses int64
}

type cacheEntry struct {
	id   fp.ContainerID
	fps  []fp.FP
	data *container.Container // optional retained container for restores
}

// New returns a cache holding at most capContainers containers.
// The paper's testbed gives DDFS 128 MB of LPC — sixteen 8 MB containers.
func New(capContainers int) *Cache {
	if capContainers <= 0 {
		capContainers = 16
	}
	return &Cache{
		cap:    capContainers,
		ll:     list.New(),
		byID:   make(map[fp.ContainerID]*list.Element),
		member: make(map[fp.FP]fp.ContainerID),
	}
}

// Lookup reports whether f is covered by a cached container and, if so,
// which one. A hit refreshes the container's recency.
func (c *Cache) Lookup(f fp.FP) (fp.ContainerID, bool) {
	id, ok := c.member[f]
	if !ok {
		c.misses++
		return 0, false
	}
	c.hits++
	if el, ok := c.byID[id]; ok {
		c.ll.MoveToFront(el)
	}
	return id, true
}

// Chunk returns the payload for f if its container is cached with data.
func (c *Cache) Chunk(f fp.FP) ([]byte, bool) {
	id, ok := c.member[f]
	if !ok {
		return nil, false
	}
	el, ok := c.byID[id]
	if !ok {
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.data == nil {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return ent.data.Chunk(f)
}

// Insert caches a container's fingerprint set (and optionally the loaded
// container itself, for restore data paths), evicting the LRU container
// if needed. Inserting an already-cached ID refreshes it. When the evicted
// container held data, Insert returns its ID and true: the caller may then
// release that container's storage (container.Repository.Release), which
// is how the LPC bounds the container pages a restore keeps resident.
func (c *Cache) Insert(id fp.ContainerID, metas []container.ChunkMeta, loaded *container.Container) (evicted fp.ContainerID, held bool) {
	if el, ok := c.byID[id]; ok {
		if loaded != nil {
			el.Value.(*cacheEntry).data = loaded
		}
		c.ll.MoveToFront(el)
		return 0, false
	}
	if c.ll.Len() >= c.cap {
		evicted, held = c.evict()
	}
	ent := &cacheEntry{id: id, data: loaded}
	ent.fps = make([]fp.FP, len(metas))
	for i, m := range metas {
		ent.fps[i] = m.FP
		c.member[m.FP] = id
	}
	c.byID[id] = c.ll.PushFront(ent)
	return evicted, held
}

// evict drops the LRU container and reports its ID and whether it held
// data.
func (c *Cache) evict() (fp.ContainerID, bool) {
	ent := c.ll.Remove(c.ll.Back()).(*cacheEntry)
	for _, f := range ent.fps {
		// A fingerprint can legitimately appear in multiple containers'
		// meta (duplicate storing race, §5.4); only clear our claim.
		if c.member[f] == ent.id {
			delete(c.member, f)
		}
	}
	delete(c.byID, ent.id)
	return ent.id, ent.data != nil
}

// Len returns the number of cached containers.
func (c *Cache) Len() int { return c.ll.Len() }

// Stats returns hit/miss counts since creation.
func (c *Cache) Stats() (hits, misses int64) { return c.hits, c.misses }

// HitRate returns hits/(hits+misses), 0 when unused.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// String summarises the cache state.
func (c *Cache) String() string {
	return fmt.Sprintf("lpc{containers=%d/%d fps=%d hit=%.1f%%}",
		c.ll.Len(), c.cap, len(c.member), 100*c.HitRate())
}
