package tpds

import (
	"fmt"
	"sync"

	"debar/internal/chunklog"
	"debar/internal/container"
	"debar/internal/diskindex"
	"debar/internal/fp"
	"debar/internal/lpc"
	"debar/internal/obs"
)

// Restore-path metrics: LPC effectiveness in counter form (chunks
// served vs index lookups the cache could not avoid vs whole-container
// loads). lpc_hit_rate ≈ 1 - restore_index_lookups/restore_chunks.
var (
	mRestoreChunks       = obs.GetCounter("server_restore_chunks_total")
	mRestoreIndexLookups = obs.GetCounter("server_restore_index_lookups_total")
	mRestoreLoads        = obs.GetCounter("server_restore_container_loads_total")
	mRestoreWALReads     = obs.GetCounter("server_restore_wal_reads_total")
)

// Restorer is the Chunk Store's retrieval path (§3.3): look in the LPC
// cache first; on a miss consult the disk index (one random I/O), read the
// whole container, and insert its fingerprints into the cache so that the
// stream's following chunks — stored adjacently by SISL — hit in memory.
// With a chunk log attached, a chunk no dedup-2 pass has stored yet is
// read from the log between the two: the log is asked before the index,
// because a drain consumes a record only after its chunk is indexed and
// checkpointed, so a fingerprint the log no longer holds is in the index.
//
// Restorer is safe for concurrent use: the internal lock scopes to the
// mutable LPC state (the cache's LRU list and membership map), the stat
// counters, and the in-flight load table. Index lookups and container
// loads happen outside it — the index's backing store serialises bucket
// reads against dedup-2's bucket writes (a lookup sees each bucket
// either before or after a write, never torn), and repositories are
// internally synchronised with mmap'd loads being zero-copy — so
// concurrent restore streams overlap instead of queueing behind each
// other's I/O. Streams that miss on the same container are
// single-flighted: one loads, the rest wait for the cache insert rather
// than duplicating the container read.
type Restorer struct {
	Index *diskindex.Index
	Repo  container.Repository
	Cache *lpc.Cache
	Log   *chunklog.Log // nil: every chunk is in a container

	mu           sync.Mutex // guards Cache, loading and the counters below
	loading      map[fp.ContainerID]chan struct{}
	indexLookups int64 // random disk-index I/Os actually performed
	chunksServed int64
}

// NewRestorer wires a restore path with an LPC cache of capContainers.
func NewRestorer(ix *diskindex.Index, repo container.Repository, capContainers int) *Restorer {
	return &Restorer{
		Index:   ix,
		Repo:    repo,
		Cache:   lpc.New(capContainers),
		loading: make(map[fp.ContainerID]chan struct{}),
	}
}

// Chunk returns the payload of the chunk with fingerprint f. The returned
// slice aliases the container's storage (cache or mmap), or is a copy
// read from the chunk log, and stays valid until the backing repository
// is closed; callers must not modify it.
func (r *Restorer) Chunk(f fp.FP) ([]byte, error) {
	mRestoreChunks.Inc()
	r.mu.Lock()
	r.chunksServed++
	for {
		if data, ok := r.Cache.Chunk(f); ok {
			r.mu.Unlock()
			return data, nil
		}
		cid, cached := r.Cache.Lookup(f) // metadata cached but container data evicted/not kept
		if !cached {
			r.mu.Unlock()
			if r.Log != nil {
				data, ok, err := r.Log.ReadChunk(f)
				if err != nil {
					return nil, fmt.Errorf("tpds: restore of %v: %w", f.Short(), err)
				}
				if ok {
					mRestoreWALReads.Inc()
					return data, nil
				}
			}
			id, err := r.Index.Lookup(f) // random small disk I/O, outside the LPC lock
			if err != nil {
				return nil, fmt.Errorf("tpds: restore of %v: %w", f.Short(), err)
			}
			cid = id
			mRestoreIndexLookups.Inc()
			r.mu.Lock()
			r.indexLookups++
			// Re-check after the unlocked index lookup: a concurrent
			// stream may have loaded and cached this container meanwhile,
			// in which case loading it again would duplicate the read.
			if data, ok := r.Cache.Chunk(f); ok {
				r.mu.Unlock()
				return data, nil
			}
		}
		if ch, inflight := r.loading[cid]; inflight {
			// Another stream is already reading this container: wait for
			// its cache insert and retry instead of loading it again.
			r.mu.Unlock()
			<-ch
			r.mu.Lock()
			continue
		}
		ch := make(chan struct{})
		r.loading[cid] = ch
		r.mu.Unlock()

		mRestoreLoads.Inc()
		c, err := r.Repo.Load(cid) // repository-synchronised; zero-copy when mmap'd
		r.mu.Lock()
		delete(r.loading, cid)
		close(ch)
		if err != nil {
			r.mu.Unlock()
			return nil, fmt.Errorf("tpds: restore of %v: %w", f.Short(), err)
		}
		r.Cache.Insert(cid, c.Meta, c)
		r.mu.Unlock()
		data, ok := c.Chunk(f)
		if !ok {
			return nil, fmt.Errorf("tpds: restore of %v: container %v does not hold it (index corrupt?)",
				f.Short(), cid)
		}
		return data, nil
	}
}

// Known reports whether fingerprint f resolves to a stored chunk — in the
// LPC cache or, failing that, the disk index. It is a pure membership
// probe for the backup path's inline dedup: no container is loaded and no
// load is waited for. Errors (including a fingerprint the index does not
// hold) report false: the inline path treats any uncertainty as
// "transfer", and dedup-2 recovers the missed duplicate later.
func (r *Restorer) Known(f fp.FP) bool {
	r.mu.Lock()
	if _, ok := r.Cache.Lookup(f); ok {
		r.mu.Unlock()
		return true
	}
	r.mu.Unlock()
	_, err := r.Index.Lookup(f) // random small disk I/O, outside the LPC lock
	return err == nil
}

// IndexLookups returns the number of random on-disk index lookups the
// restore path could not avoid. The paper measures LPC eliminating 99.3%
// of them (§6.2).
func (r *Restorer) IndexLookups() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.indexLookups
}

// ChunksServed returns the number of chunks restored.
func (r *Restorer) ChunksServed() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.chunksServed
}

// AvoidedLookupRate returns the fraction of chunk fetches that did not
// need a random disk-index I/O.
func (r *Restorer) AvoidedLookupRate() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.chunksServed == 0 {
		return 0
	}
	return 1 - float64(r.indexLookups)/float64(r.chunksServed)
}

var _ = diskindex.ErrNotFound // documented sentinel surfaced through Chunk
