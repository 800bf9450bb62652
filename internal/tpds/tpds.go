// Package tpds implements DEBAR's Two-Phase De-duplication Scheme (paper
// §5), the system's primary contribution.
//
// Phase I (dedup-1) runs while a backup job streams in: the preliminary
// filter eliminates duplicates against the previous run of the same job
// (and within the stream), surviving chunks are appended to a local chunk
// log, and the fingerprints marked new are collected into the undetermined
// fingerprint file.
//
// Phase II (dedup-2) is the batch pass that turns the notoriously random,
// small disk I/Os of fingerprint lookup and update into a few large
// sequential ones:
//
//   - Sequential Index Lookup (SIL, §5.2): the undetermined fingerprints
//     are inserted into an in-memory index cache — which sorts them by
//     number — and one sequential pass over the number-ordered disk index
//     resolves every lookup. Fingerprints found on disk are duplicates and
//     are deleted from the cache; the survivors are new.
//   - Chunk storing (§5.3): the chunk log is read in log order and chunks
//     whose fingerprints survive in the cache are packed into containers
//     (SISL order) and appended to the chunk repository. A durable log
//     reads only those chunks: it knows where each record lives.
//   - Sequential Index Update (SIU, §5.4): the new fingerprint→container
//     entries are merged into the disk index with one sequential
//     read-modify-write pass.
//
// The checking fingerprint file (§5.4) makes asynchronous SIU safe: new
// fingerprints from completed SILs that have not yet been written to the
// index by an SIU are remembered and deduplicated against subsequent SIL
// results, so one SIU can service several SILs without storing duplicates.
//
// A dedup-2 pass is one single-stream pass: one SIL scan over the whole
// index, one packer walking the chunk log in stream order, one SIU merge.
// The paper scales across servers by fingerprint prefix (§4.1), not across
// goroutines inside one server.
package tpds

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"debar/internal/chunklog"
	"debar/internal/container"
	"debar/internal/diskindex"
	"debar/internal/fp"
	"debar/internal/indexcache"
	"debar/internal/obs"
)

// Wall-clock split of one single-stream dedup-2 pass (RunSILAndStore):
// the SIL index scan; packing, i.e. the chunk-log walk and the copy into
// container buffers, with the appends excluded; and the sum of the
// container appends.
var (
	mPassSILSec    = obs.GetHistogram("dedup2_pass_sil_seconds", obs.DurationBuckets)
	mPassPackSec   = obs.GetHistogram("dedup2_pass_pack_seconds", obs.DurationBuckets)
	mPassAppendSec = obs.GetHistogram("dedup2_pass_append_seconds", obs.DurationBuckets)
)

// SIL performs the sequential index lookup: it scans the disk index in
// large sequential windows and removes every fingerprint it finds from the
// cache. On return the cache holds exactly the new fingerprints. The
// duplicates' container IDs are reported to the caller (the file index
// needs them only at restore, via the disk index, so DEBAR discards them;
// they are returned here for tests and tooling).
func SIL(ix *diskindex.Index, cache *indexcache.Cache, scanBuckets int) (dups int64, err error) {
	err = ix.Scan(scanBuckets, func(w *diskindex.Window) error {
		w.ForEachEntry(func(_ uint64, e fp.Entry) {
			if cache.Remove(e.FP) {
				dups++
			}
		})
		return nil
	})
	return dups, err
}

// SIU performs the sequential index update: a copy of the entries is
// sorted by target bucket (the caller's slice is left as is; entries come
// out of the index cache only roughly in bucket order, since cache buckets
// keep insertion order) and merged into the disk index in one sequential
// read-modify-write pass. Entries whose home bucket overflows past a
// window edge fall back to the random-insert path after the pass — the
// same physical effect, just accounted separately. ErrIndexFull from the
// index propagates so the caller can trigger capacity scaling.
func SIU(ix *diskindex.Index, entries []fp.Entry, scanBuckets int) error {
	sorted := make([]fp.Entry, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		bi, bj := ix.BucketOf(sorted[i].FP), ix.BucketOf(sorted[j].FP)
		if bi != bj {
			return bi < bj
		}
		return sorted[i].FP.Less(sorted[j].FP)
	})

	var leftover []fp.Entry
	idx := 0
	err := ix.Update(scanBuckets, func(w *diskindex.Window) error {
		for idx < len(sorted) && ix.BucketOf(sorted[idx].FP) < w.Start+uint64(w.Count) {
			if err := w.InsertInWindow(sorted[idx]); err != nil {
				if errors.Is(err, diskindex.ErrIndexFull) {
					leftover = append(leftover, sorted[idx])
				} else {
					return err
				}
			}
			idx++
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, e := range leftover {
		if err := ix.Insert(e); err != nil {
			return fmt.Errorf("tpds: SIU window-edge fallback: %w", err)
		}
	}
	return nil
}

// StoreResult summarises one chunk-storing pass.
type StoreResult struct {
	NewChunks  int64 // chunks written to containers
	NewBytes   int64
	DupChunks  int64 // chunk-log records discarded as duplicates
	DupBytes   int64
	Containers int64 // containers sealed
}

// Records is the chunk-log view chunk storing walks: a whole
// *chunklog.Log, or the records of one drain (*chunklog.Txn). keep sees
// each record's fingerprint and size, in log order, before the record is
// read, and only the records it accepts are read and handed to fn.
type Records interface {
	Select(keep func(fp.FP, uint32) bool, fn func(chunklog.Record) error) error
}

// StoreChunks reads the chunk log sequentially and writes every chunk whose
// fingerprint survives in the cache (and has not already been stored this
// pass) into containers, in stream order (SISL). Sealed containers go to
// the repository; the cache nodes of the chunks in a sealed container get
// its container ID (§5.3).
func StoreChunks(log Records, cache *indexcache.Cache, repo container.Repository,
	containerSize int, metaOnly bool) (StoreResult, error) {
	res, _, err := storeChunks(log, cache, repo, containerSize, metaOnly)
	return res, err
}

// packing is the cache's container ID for a fingerprint chunk storing has
// accepted and not yet sealed: not nil, so a later record of it is
// discarded, and never a real ID, so it never reaches SIU — every
// accepted chunk is sealed before chunk storing returns.
const packing = fp.NilContainer + 1

// storeChunks is StoreChunks that also returns the wall time spent in
// repo.Append. It walks the log once and discards every record that is
// not surviving in the cache or whose fingerprint already has a container
// ID (a sealed container's, or packing); the survivors fill containers in
// record order, and a durable log reads only the survivors. Each sealed
// container is appended there and then, and its fingerprints get the new
// container ID in the cache.
func storeChunks(log Records, cache *indexcache.Cache, repo container.Repository,
	containerSize int, metaOnly bool) (StoreResult, time.Duration, error) {
	var res StoreResult
	var appendTime time.Duration
	w := container.NewWriter(containerSize, metaOnly)
	var open []fp.FP // fingerprints staged in the open container

	seal := func() error {
		if w.Empty() {
			return nil
		}
		res.Containers++
		start := time.Now()
		id, err := repo.Append(w.Seal(0))
		appendTime += time.Since(start)
		if err != nil {
			return err
		}
		for _, f := range open {
			cache.SetCID(f, id)
		}
		open = open[:0]
		return nil
	}

	keep := func(f fp.FP, size uint32) bool {
		if n, ok := cache.Lookup(f); !ok || n.CID != fp.NilContainer {
			// Not new, already stored in a sealed container, or already
			// accepted from a duplicate log record: discard (§5.3).
			res.DupChunks++
			res.DupBytes += int64(size)
			return false
		}
		cache.SetCID(f, packing)
		return true
	}
	pack := func(r chunklog.Record) error {
		if !w.Fits(int(r.Size)) {
			if err := seal(); err != nil {
				return err
			}
		}
		if !w.Add(r.FP, r.Size, r.Data) {
			return fmt.Errorf("tpds: chunk of %d bytes larger than container size %d", r.Size, containerSize)
		}
		open = append(open, r.FP)
		res.NewChunks++
		res.NewBytes += int64(r.Size)
		return nil
	}
	if err := log.Select(keep, pack); err != nil {
		return res, appendTime, err
	}
	err := seal()
	return res, appendTime, err
}

// CheckingFile is the per-server checking fingerprint file (§5.4). It
// remembers fingerprints that SIL identified as new but that asynchronous
// SIU has not yet registered in the disk index.
type CheckingFile struct {
	pending map[fp.FP]fp.ContainerID
}

// NewCheckingFile returns an empty checking file.
func NewCheckingFile() *CheckingFile {
	return &CheckingFile{pending: make(map[fp.FP]fp.ContainerID)}
}

// Len returns the number of pending fingerprints.
func (cf *CheckingFile) Len() int { return len(cf.pending) }

// Lookup returns the container of a pending fingerprint.
func (cf *CheckingFile) Lookup(f fp.FP) (fp.ContainerID, bool) {
	cid, ok := cf.pending[f]
	return cid, ok
}

// FilterSILResult removes from the cache every fingerprint also present in
// the checking file: those chunks were stored by a previous dedup-2 whose
// SIU is still outstanding, so storing them again would duplicate data
// ("Whenever a SIL is finished, the lookup result is further de-duplicated
// to eliminate the fingerprints that are also found in the checking
// fingerprint file", §5.4). Returns how many were removed.
func (cf *CheckingFile) FilterSILResult(cache *indexcache.Cache) int64 {
	var removed int64
	for f := range cf.pending {
		if cache.Remove(f) {
			removed++
		}
	}
	return removed
}

// Add appends freshly stored entries after chunk storing ("the checking
// fingerprint file is updated by appending it with the fingerprints in the
// lookup result").
func (cf *CheckingFile) Add(entries []fp.Entry) {
	for _, e := range entries {
		cf.pending[e.FP] = e.CID
	}
}

// RemoveUpdated drops entries that an SIU has now written to the disk
// index ("Whenever a SIU is finished, the checking fingerprint file is
// updated by removing those fingerprints that have been written").
func (cf *CheckingFile) RemoveUpdated(entries []fp.Entry) {
	for _, e := range entries {
		delete(cf.pending, e.FP)
	}
}

// Dedup2Result summarises a full dedup-2 pass.
type Dedup2Result struct {
	Undetermined int64 // fingerprints entering SIL
	IndexDups    int64 // removed by SIL (found on disk)
	CheckingDups int64 // removed against the checking file
	Store        StoreResult
	Unregistered int64 // entries handed to SIU

	SILTime   time.Duration // wall clock of the SIL index scan
	StoreTime time.Duration // wall clock of chunk storing, container appends included
}

// ChunkStore is a backup server's dedup-2 engine (§3.3): it owns the
// server's disk-index part, its chunk repository handle and its checking
// fingerprint file.
type ChunkStore struct {
	Index         *diskindex.Index
	Repo          container.Repository
	ContainerSize int
	MetaOnly      bool
	ScanBuckets   int
	Checking      *CheckingFile // nil: synchronous SIU, no checking file

	// Deprecated: ignored; dedup-2 is one single-stream pass. Kept only
	// because the benchmark's SIL-worker probe still sets it; it goes with
	// that probe.
	Workers int
}

// NewChunkStore returns a ChunkStore with the paper's defaults (8 MB
// containers); async toggles the checking fingerprint file.
func NewChunkStore(ix *diskindex.Index, repo container.Repository, metaOnly, async bool) *ChunkStore {
	cs := &ChunkStore{
		Index:         ix,
		Repo:          repo,
		ContainerSize: container.DefaultSize,
		MetaOnly:      metaOnly,
		ScanBuckets:   diskindex.DefaultScanBuckets,
	}
	if async {
		cs.Checking = NewCheckingFile()
	}
	return cs
}

// RunSILAndStore executes SIL over the undetermined fingerprints and then
// chunk storing over the log, returning the unregistered entries that a
// (possibly asynchronous) SIU must still write to the disk index. The pass
// records its wall-clock split in the result and in the
// dedup2_pass_{sil,pack,append}_seconds histograms. A failed pass hands out no entries and leaves the checking
// file untouched; containers it appended before the failure stay in the
// repository unreferenced, and a retry stores their chunks again.
func (cs *ChunkStore) RunSILAndStore(undetermined []fp.FP, log Records, cacheBits uint) (Dedup2Result, []fp.Entry, error) {
	var res Dedup2Result
	res.Undetermined = int64(len(undetermined))

	cache := indexcache.New(cacheBits, 0)
	for _, f := range undetermined {
		if _, err := cache.Insert(f); err != nil {
			return res, nil, fmt.Errorf("tpds: building index cache: %w", err)
		}
	}

	silStart := time.Now()
	dups, err := SIL(cs.Index, cache, cs.ScanBuckets)
	res.SILTime = time.Since(silStart)
	mPassSILSec.ObserveDuration(res.SILTime)
	if err != nil {
		return res, nil, fmt.Errorf("tpds: SIL: %w", err)
	}
	res.IndexDups = dups

	if cs.Checking != nil {
		res.CheckingDups = cs.Checking.FilterSILResult(cache)
	}

	storeStart := time.Now()
	store, appendTime, err := storeChunks(log, cache, cs.Repo, cs.ContainerSize, cs.MetaOnly)
	res.StoreTime = time.Since(storeStart)
	mPassPackSec.ObserveDuration(res.StoreTime - appendTime)
	mPassAppendSec.ObserveDuration(appendTime)
	if err != nil {
		return res, nil, fmt.Errorf("tpds: chunk storing: %w", err)
	}
	res.Store = store

	// Unregistered fingerprint file: every cache entry that received a
	// container (entries that never appeared in the log stay nil and are
	// dropped — their chunks were never transferred).
	var unreg []fp.Entry
	for _, e := range cache.Collect() {
		if e.CID != fp.NilContainer {
			unreg = append(unreg, e)
		}
	}
	res.Unregistered = int64(len(unreg))
	if cs.Checking != nil {
		cs.Checking.Add(unreg)
	}
	return res, unreg, nil
}

// RunSIU writes unregistered entries to the disk index and clears them
// from the checking file.
func (cs *ChunkStore) RunSIU(unreg []fp.Entry) error {
	if err := SIU(cs.Index, unreg, cs.ScanBuckets); err != nil {
		return fmt.Errorf("tpds: SIU: %w", err)
	}
	if cs.Checking != nil {
		cs.Checking.RemoveUpdated(unreg)
	}
	return nil
}

// RunDedup2 is the synchronous convenience: SIL, chunk storing, SIU.
func (cs *ChunkStore) RunDedup2(undetermined []fp.FP, log Records, cacheBits uint) (Dedup2Result, error) {
	res, unreg, err := cs.RunSILAndStore(undetermined, log, cacheBits)
	if err != nil {
		return res, err
	}
	return res, cs.RunSIU(unreg)
}
