// Package indexcache implements the in-memory index cache used by SIL and
// SIU (paper §5.2): a hash table with 2^m buckets where a fingerprint's
// first m bits select its bucket. Inserting the undetermined fingerprints
// automatically sorts them by number, so that the fingerprints in cache
// bucket k map exactly onto the 2^(n-m) consecutive disk-index buckets
// k·2^(n-m) … (k+1)·2^(n-m)−1, enabling one sequential pass over the disk
// index to resolve every lookup.
//
// The paper sizes the cache by memory: "Using the about 1GB memory cache,
// we can provide lookups for about 44 million fingerprints" (§5.2), i.e.
// roughly 24 bytes per cached fingerprint, which EntriesForBytes encodes.
package indexcache

import (
	"fmt"

	"debar/internal/fp"
)

// NodeBytes is the approximate per-fingerprint memory cost used to size
// caches the way the paper does (1 GB ≈ 44M fingerprints, §5.2).
const NodeBytes = 24

// EntriesForBytes converts a memory budget into a fingerprint capacity.
func EntriesForBytes(bytes int64) int64 { return bytes / NodeBytes }

// Node is one cached fingerprint with its (possibly not-yet-assigned)
// container ID.
type Node struct {
	FP  fp.FP
	CID fp.ContainerID
}

// Cache is the in-memory index cache. It is not safe for concurrent use:
// SIL and SIU are single passes owned by one Chunk Store goroutine.
type Cache struct {
	mbits   uint
	buckets [][]Node
	len     int
	max     int // 0 = unlimited
}

// ErrFull is returned by Insert when the configured capacity is reached.
var ErrFull = fmt.Errorf("indexcache: capacity reached")

// New returns a cache with 2^mbits buckets holding at most maxEntries
// fingerprints (0 for unlimited).
func New(mbits uint, maxEntries int) *Cache {
	if mbits > 32 {
		panic(fmt.Sprintf("indexcache: mbits %d out of range", mbits))
	}
	return &Cache{
		mbits:   mbits,
		buckets: make([][]Node, 1<<mbits),
		max:     maxEntries,
	}
}

// Len returns the number of cached fingerprints.
func (c *Cache) Len() int { return c.len }

// Cap returns the configured capacity (0 = unlimited).
func (c *Cache) Cap() int { return c.max }

// Full reports whether the cache has reached capacity.
func (c *Cache) Full() bool { return c.max > 0 && c.len >= c.max }

// BucketOf returns the cache bucket for a fingerprint.
func (c *Cache) BucketOf(f fp.FP) uint64 { return f.Prefix(c.mbits) }

// Insert adds f with a nil container ID. It returns false if f was already
// present (no change) and ErrFull when at capacity.
func (c *Cache) Insert(f fp.FP) (bool, error) {
	k := c.BucketOf(f)
	for _, n := range c.buckets[k] {
		if n.FP == f {
			return false, nil
		}
	}
	if c.Full() {
		return false, ErrFull
	}
	c.buckets[k] = append(c.buckets[k], Node{FP: f, CID: fp.NilContainer})
	c.len++
	return true, nil
}

// Lookup returns the node for f.
func (c *Cache) Lookup(f fp.FP) (Node, bool) {
	for _, n := range c.buckets[c.BucketOf(f)] {
		if n.FP == f {
			return n, true
		}
	}
	return Node{}, false
}

// Contains reports whether f is cached.
func (c *Cache) Contains(f fp.FP) bool {
	_, ok := c.Lookup(f)
	return ok
}

// SetCID updates the container ID of a cached fingerprint, reporting
// whether it was present. Chunk storing uses this to record the container
// each new chunk was written to (§5.3).
func (c *Cache) SetCID(f fp.FP, cid fp.ContainerID) bool {
	b := c.buckets[c.BucketOf(f)]
	for i := range b {
		if b[i].FP == f {
			b[i].CID = cid
			return true
		}
	}
	return false
}

// Remove deletes f, reporting whether it was present. SIL removes each
// fingerprint found on disk, so that only new fingerprints remain (§5.2).
func (c *Cache) Remove(f fp.FP) bool {
	k := c.BucketOf(f)
	b := c.buckets[k]
	for i := range b {
		if b[i].FP == f {
			b[i] = b[len(b)-1]
			c.buckets[k] = b[:len(b)-1]
			c.len--
			return true
		}
	}
	return false
}

// ForEach visits every node in cache-bucket order. fn returning false
// stops the walk.
func (c *Cache) ForEach(fn func(Node) bool) {
	for _, b := range c.buckets {
		for _, n := range b {
			if !fn(n) {
				return
			}
		}
	}
}

// ForEachInBucket visits the nodes of one cache bucket.
func (c *Cache) ForEachInBucket(k uint64, fn func(Node) bool) {
	for _, n := range c.buckets[k] {
		if !fn(n) {
			return
		}
	}
}

// Collect returns all nodes as entries in cache-bucket order — the
// "unregistered fingerprint file" contents after chunk storing (§5.3).
func (c *Cache) Collect() []fp.Entry {
	out := make([]fp.Entry, 0, c.len)
	for _, b := range c.buckets {
		for _, n := range b {
			out = append(out, fp.Entry{FP: n.FP, CID: n.CID})
		}
	}
	return out
}

// Reset empties the cache, retaining bucket storage.
func (c *Cache) Reset() {
	for i := range c.buckets {
		c.buckets[i] = c.buckets[i][:0]
	}
	c.len = 0
}
