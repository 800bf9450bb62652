// Parallel sharded dedup-2: the bucket-ordered disk index splits into P
// contiguous fingerprint-prefix regions (diskindex.Regions), the
// undetermined-fingerprint cache is partitioned by the same prefixes
// (indexcache.Partitioned), and one SIL worker per region scans its index
// range independently. The phases overlap: as soon as a region's SIL
// completes, that worker packs the region's new chunks into containers
// (from a lock-free snapshot of the chunk log) while other regions are
// still scanning. Container commits to the repository are pipelined in
// region order — region i appends only after regions < i have appended —
// so container IDs are deterministic for a given worker count, and the
// repository keeps a single sequential append stream. Each worker sorts
// its unregistered entries by home bucket; because regions are contiguous
// and disjoint, concatenating the per-region runs in region order yields a
// globally sorted run that SIU merges into the index in one sequential
// pass without re-sorting.
package tpds

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"debar/internal/chunklog"
	"debar/internal/container"
	"debar/internal/diskindex"
	"debar/internal/fp"
	"debar/internal/indexcache"
	"debar/internal/obs"
)

// Per-region wall-clock latencies of the three dedup-2 stages each SIL
// worker runs: the sequential index scan, container packing from the
// log snapshot, and the in-turn repository commit (which includes the
// wait for the region's commit turn — a wide gap between pack and
// commit distributions means the commit chain, not the scans, paces
// the pass).
var (
	mRegionScanSec   = obs.GetHistogram("dedup2_region_scan_seconds", obs.DurationBuckets)
	mRegionPackSec   = obs.GetHistogram("dedup2_region_pack_seconds", obs.DurationBuckets)
	mRegionCommitSec = obs.GetHistogram("dedup2_region_commit_seconds", obs.DurationBuckets)
)

// SILRegion performs the sequential index lookup over one index region: it
// scans the region's buckets in large sequential windows and removes every
// fingerprint it finds from the shard cache. The shard must hold exactly
// the undetermined fingerprints homed in the region, so the worker never
// touches another worker's state.
//
// Bucket overflow can place an entry in a bucket adjacent to its home
// (diskindex.Insert tries the neighbours of a full bucket), so an entry
// homed just inside this region may physically live one bucket past either
// edge. The scan therefore extends one bucket beyond each boundary:
// entries homed in other regions simply miss in this shard (Remove is a
// no-op for fingerprints the shard does not hold), while a
// boundary-overflowed entry of this region is found exactly once, keeping
// the sharded pass's verdicts identical to a whole-index SIL.
func SILRegion(ix *diskindex.Index, r diskindex.Region, shard *indexcache.Cache, scanBuckets int) (dups int64, err error) {
	if r.Start > 0 {
		r.Start--
	}
	if total := ix.Config().Buckets(); r.End < total {
		r.End++
	}
	err = ix.ScanRegion(r, scanBuckets, func(w *diskindex.Window) error {
		w.ForEachEntry(func(_ uint64, e fp.Entry) {
			if shard.Remove(e.FP) {
				dups++
			}
		})
		return nil
	})
	return dups, err
}

// sortEntriesByBucket orders entries by home bucket, breaking ties by
// fingerprint — SIU's canonical merge order.
func sortEntriesByBucket(ix *diskindex.Index, entries []fp.Entry) {
	sort.Slice(entries, func(i, j int) bool {
		bi, bj := ix.BucketOf(entries[i].FP), ix.BucketOf(entries[j].FP)
		if bi != bj {
			return bi < bj
		}
		return entries[i].FP.Less(entries[j].FP)
	})
}

// stagedContainer is a sealed container awaiting its region's commit turn,
// with the fingerprints it holds (their cache nodes get the container ID
// once the repository assigns it).
type stagedContainer struct {
	c   *container.Container
	fps []fp.FP
}

// regionResult carries one worker's contribution to the merged
// Dedup2Result.
type regionResult struct {
	indexDups    int64
	checkingDups int64
	store        StoreResult
	unreg        []fp.Entry
	err          error
}

// runSILAndStoreParallel is the sharded counterpart of the sequential
// SIL + chunk-store pass in RunSILAndStore. Semantics are identical —
// the same fingerprints are judged duplicate or new, the same chunks are
// stored exactly once, and the merged dedup counters match the sequential
// pass — but containers pack per region (each region's new chunks in
// stream order), so container IDs are region-relative rather than global
// stream order and each region seals its own tail container (a few more,
// slightly emptier containers than one global packing would produce).
func (cs *ChunkStore) runSILAndStoreParallel(undetermined []fp.FP, log *chunklog.Log, cacheBits uint, workers int) (Dedup2Result, []fp.Entry, error) {
	var res Dedup2Result
	res.Undetermined = int64(len(undetermined))

	regions := cs.Index.Regions(workers)
	p := len(regions) // clamped by the bucket count
	route := func(f fp.FP) int {
		return diskindex.RegionOf(regions, cs.Index.BucketOf(f))
	}
	part := indexcache.NewPartitioned(cacheBits, p, route)
	for _, f := range undetermined {
		if _, err := part.Insert(f); err != nil {
			return res, nil, fmt.Errorf("tpds: building index cache: %w", err)
		}
	}

	// Partition the checking file's pending fingerprints in one scan here,
	// instead of letting all P workers walk the whole pending map.
	var checkByRegion [][]fp.FP
	if cs.Checking != nil {
		checkByRegion = make([][]fp.FP, p)
		for f := range cs.Checking.pending {
			i := route(f)
			checkByRegion[i] = append(checkByRegion[i], f)
		}
	}

	view := log.View()

	// turns[i] opens when region i may commit its containers; the chain
	// starts open at region 0 and each worker opens its successor on exit
	// (error included, so a failed region never deadlocks the rest).
	// failed flips on the first region error: regions that have not yet
	// committed then skip their appends, since the pass will return an
	// error and unregistered entries will be discarded — appending would
	// strand unreachable chunks in the repository.
	turns := make([]chan struct{}, p+1)
	for i := range turns {
		turns[i] = make(chan struct{})
	}
	close(turns[0])
	var failed atomic.Bool

	results := make([]regionResult, p)
	var wg sync.WaitGroup
	for i := range regions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer close(turns[i+1])
			var check []fp.FP
			if checkByRegion != nil {
				check = checkByRegion[i]
			}
			results[i] = cs.runRegion(i, regions[i], part.Shard(i), check, view, turns[i], &failed)
		}(i)
	}
	wg.Wait()

	// Merge in region order: counters sum, and the per-region sorted entry
	// runs concatenate into one globally bucket-sorted run (regions are
	// contiguous and disjoint) for SIU's single sequential merge pass.
	var unreg []fp.Entry
	var firstErr error
	for i := range results {
		r := &results[i]
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		res.IndexDups += r.indexDups
		res.CheckingDups += r.checkingDups
		res.Store.NewChunks += r.store.NewChunks
		res.Store.NewBytes += r.store.NewBytes
		res.Store.DupChunks += r.store.DupChunks
		res.Store.DupBytes += r.store.DupBytes
		res.Store.Containers += r.store.Containers
		unreg = append(unreg, r.unreg...)
	}
	if firstErr != nil {
		return res, nil, firstErr
	}
	res.Unregistered = int64(len(unreg))
	if cs.Checking != nil {
		cs.Checking.Add(unreg)
	}
	return res, unreg, nil
}

// runRegion is one worker: SIL over the region, checking-file filtering of
// the region's pending fingerprints, container packing of the region's new
// chunks from the log snapshot, then — once the region's commit turn
// opens — appending the staged containers to the repository and collecting
// the region's sorted unregistered entries.
func (cs *ChunkStore) runRegion(idx int, region diskindex.Region, shard *indexcache.Cache,
	checking []fp.FP, view *chunklog.View, turn <-chan struct{}, failed *atomic.Bool) regionResult {

	var r regionResult
	fail := func(err error) regionResult {
		failed.Store(true)
		r.err = err
		return r
	}

	scanStart := time.Now()
	dups, err := SILRegion(cs.Index, region, shard, cs.ScanBuckets)
	mRegionScanSec.Since(scanStart)
	if err != nil {
		return fail(fmt.Errorf("tpds: SIL region %d [%d,%d): %w", idx, region.Start, region.End, err))
	}
	r.indexDups = dups

	// Checking-file filter, restricted to this region's pending
	// fingerprints ("the lookup result is further de-duplicated", §5.4).
	for _, f := range checking {
		if shard.Remove(f) {
			r.checkingDups++
		}
	}

	// Pack the region's surviving chunks in stream order through the
	// shared packing engine. Containers are sealed into memory and
	// committed later, because container IDs must be assigned in region
	// order to stay deterministic.
	var staged []stagedContainer
	packStart := time.Now()
	r.store, err = packChunks(view.Iterate,
		func(f fp.FP) bool { return region.Contains(cs.Index.BucketOf(f)) },
		shard, cs.ContainerSize, cs.MetaOnly, false,
		func(c *container.Container, fps []fp.FP) error {
			staged = append(staged, stagedContainer{c: c, fps: fps})
			return nil
		})
	mRegionPackSec.Since(packStart)
	if err != nil {
		return fail(fmt.Errorf("tpds: chunk storing region %d: %w", idx, err))
	}

	// Commit: wait for the region's turn, then append in seal order. The
	// repository sees one ordered append stream across all regions.
	commitStart := time.Now()
	<-turn
	if failed.Load() {
		return r // pass already doomed: do not strand containers
	}
	for _, sc := range staged {
		id, err := cs.Repo.Append(sc.c)
		if err != nil {
			mRegionCommitSec.Since(commitStart)
			return fail(fmt.Errorf("tpds: committing region %d containers: %w", idx, err))
		}
		for _, f := range sc.fps {
			shard.SetCID(f, id)
		}
	}
	mRegionCommitSec.Since(commitStart)

	// Unregistered entries of this region, sorted by home bucket for the
	// concatenated SIU run.
	for _, e := range shard.Collect() {
		if e.CID != fp.NilContainer {
			r.unreg = append(r.unreg, e)
		}
	}
	sortEntriesByBucket(cs.Index, r.unreg)
	return r
}
