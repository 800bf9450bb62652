package tpds

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"debar/internal/chunklog"
	"debar/internal/container"
	"debar/internal/diskindex"
	"debar/internal/disksim"
	"debar/internal/fp"
	"debar/internal/indexcache"
	"debar/internal/prefilter"
)

func newIndex(t *testing.T, bits uint) *diskindex.Index {
	t.Helper()
	ix, err := diskindex.NewMem(diskindex.Config{BucketBits: bits, BucketBlocks: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func fps(start, n int) []fp.FP {
	out := make([]fp.FP, n)
	for i := range out {
		out[i] = fp.FromUint64(uint64(start + i))
	}
	return out
}

func TestSILSeparatesNewFromDup(t *testing.T) {
	ix := newIndex(t, 10)
	// Pre-store 500 fingerprints.
	for _, f := range fps(0, 500) {
		if err := ix.Insert(fp.Entry{FP: f, CID: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Undetermined set: 300 old + 200 new.
	cache := indexcache.New(6, 0)
	for _, f := range fps(200, 500) {
		cache.Insert(f)
	}
	dups, err := SIL(ix, cache, 64)
	if err != nil {
		t.Fatal(err)
	}
	if dups != 300 {
		t.Fatalf("SIL found %d dups, want 300", dups)
	}
	if cache.Len() != 200 {
		t.Fatalf("cache retains %d, want 200 new", cache.Len())
	}
	for _, f := range fps(500, 200) {
		if !cache.Contains(f) {
			t.Fatalf("new fingerprint %v missing from cache", f.Short())
		}
	}
}

func TestSIUThenLookup(t *testing.T) {
	ix := newIndex(t, 10)
	entries := make([]fp.Entry, 800)
	for i := range entries {
		entries[i] = fp.Entry{FP: fp.FromUint64(uint64(i)), CID: fp.ContainerID(i % 100)}
	}
	if err := SIU(ix, entries, 64); err != nil {
		t.Fatal(err)
	}
	if ix.Count() != 800 {
		t.Fatalf("index count = %d, want 800", ix.Count())
	}
	for _, e := range entries {
		cid, err := ix.Lookup(e.FP)
		if err != nil || cid != e.CID {
			t.Fatalf("lookup %v: cid=%v err=%v", e.FP.Short(), cid, err)
		}
	}
}

func TestSIUWindowEdgeOverflow(t *testing.T) {
	// Tiny index (4 buckets of 20) scanned one bucket at a time: overflow
	// must fall back to the random path rather than being lost.
	ix := newIndex(t, 2)
	var entries []fp.Entry
	count := 0
	for i := uint64(0); count < 25; i++ {
		f := fp.FromUint64(i)
		if f.Prefix(2) == 1 { // all target bucket 1 (cap 20)
			entries = append(entries, fp.Entry{FP: f, CID: 1})
			count++
		}
	}
	err := SIU(ix, entries, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Count() != 25 {
		t.Fatalf("count = %d, want 25", ix.Count())
	}
	for _, e := range entries {
		if _, err := ix.Lookup(e.FP); err != nil {
			t.Fatalf("lookup %v after edge overflow: %v", e.FP.Short(), err)
		}
	}
}

func TestSILSIUSpeedMatchesEfficiencyLaw(t *testing.T) {
	// η = f·r/s (§5.2): with a modelled disk, SIL time must equal
	// indexSize / seqReadRate regardless of fingerprint count.
	disk := disksim.NewDisk(disksim.DefaultRAID())
	ix, err := diskindex.New(diskindex.NewMemStore(0),
		diskindex.Config{BucketBits: 12, BucketBlocks: 1}, disk)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{10, 1000} {
		cache := indexcache.New(6, 0)
		for _, f := range fps(0, n) {
			cache.Insert(f)
		}
		disk.Clock.Reset()
		if _, err := SIL(ix, cache, 0); err != nil {
			t.Fatal(err)
		}
		want := disk.Model.SeqRead(ix.Config().SizeBytes())
		if got := disk.Clock.Now(); got != want {
			t.Fatalf("SIL(%d fps) charged %v, want %v (independent of count)", n, got, want)
		}
	}
}

func storeFixture(t *testing.T, metaOnly bool) (*chunklog.Mem, *indexcache.Cache, *container.MemRepository) {
	t.Helper()
	log := chunklog.NewMem(metaOnly, nil)
	cache := indexcache.New(6, 0)
	repo := container.NewMemRepository(metaOnly, nil)
	return log, cache, repo
}

func TestStoreChunksWritesNewDiscardsOld(t *testing.T) {
	log, cache, repo := storeFixture(t, true)
	// Log holds 10 chunks; only 6 survive SIL (are in the cache).
	for i := 0; i < 10; i++ {
		_ = log.Append(fp.FromUint64(uint64(i)), 1000, nil)
	}
	for i := 0; i < 6; i++ {
		cache.Insert(fp.FromUint64(uint64(i)))
	}
	res, err := StoreChunks(log, cache, repo, 1<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewChunks != 6 || res.DupChunks != 4 {
		t.Fatalf("new=%d dup=%d, want 6/4", res.NewChunks, res.DupChunks)
	}
	if res.NewBytes != 6000 || res.DupBytes != 4000 {
		t.Fatalf("bytes new=%d dup=%d", res.NewBytes, res.DupBytes)
	}
	if repo.Bytes() != 6000 {
		t.Fatalf("repo holds %d bytes, want 6000", repo.Bytes())
	}
	// Every surviving cache node must now carry a container ID.
	for _, e := range cache.Collect() {
		if e.CID == fp.NilContainer {
			t.Fatalf("entry %v still unassigned", e.FP.Short())
		}
	}
}

func TestStoreChunksDedupsLogDuplicates(t *testing.T) {
	// The prefilter can re-admit an evicted fingerprint, so the log may
	// hold the same chunk twice; only one copy may be stored.
	log, cache, repo := storeFixture(t, true)
	f := fp.FromUint64(7)
	_ = log.Append(f, 500, nil)
	_ = log.Append(f, 500, nil)
	cache.Insert(f)
	res, err := StoreChunks(log, cache, repo, 1<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewChunks != 1 || res.DupChunks != 1 {
		t.Fatalf("new=%d dup=%d, want 1/1", res.NewChunks, res.DupChunks)
	}
	if repo.Bytes() != 500 {
		t.Fatalf("repo holds %d bytes, want 500", repo.Bytes())
	}
}

func TestStoreChunksSealsMultipleContainers(t *testing.T) {
	log, cache, repo := storeFixture(t, true)
	for i := 0; i < 100; i++ {
		f := fp.FromUint64(uint64(i))
		_ = log.Append(f, 1000, nil)
		cache.Insert(f)
	}
	res, err := StoreChunks(log, cache, repo, 8<<10, true) // ~8 chunks per container
	if err != nil {
		t.Fatal(err)
	}
	if res.Containers < 10 {
		t.Fatalf("containers = %d, want ≥10", res.Containers)
	}
	if repo.Containers() != res.Containers {
		t.Fatalf("repo containers %d != result %d", repo.Containers(), res.Containers)
	}
	// All cache CIDs assigned and within range.
	for _, e := range cache.Collect() {
		if e.CID == fp.NilContainer || uint64(e.CID) >= uint64(res.Containers) {
			t.Fatalf("entry %v has cid %v", e.FP.Short(), e.CID)
		}
	}
}

func TestStoreChunksRealPayloads(t *testing.T) {
	log, cache, repo := storeFixture(t, false)
	payload := []byte("the chunk payload")
	f := fp.New(payload)
	_ = log.Append(f, uint32(len(payload)), payload)
	cache.Insert(f)
	if _, err := StoreChunks(log, cache, repo, 1<<16, false); err != nil {
		t.Fatal(err)
	}
	e, _ := cache.Lookup(f)
	c, err := repo.Load(e.CID)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c.Chunk(f)
	if !ok || string(got) != string(payload) {
		t.Fatalf("stored payload %q ok=%v", got, ok)
	}
}

func TestCheckingFileAsyncSIU(t *testing.T) {
	// Two SILs service one SIU: the second SIL's result must be
	// deduplicated against the first's pending fingerprints (§5.4).
	cf := NewCheckingFile()
	first := []fp.Entry{{FP: fp.FromUint64(1), CID: 10}, {FP: fp.FromUint64(2), CID: 10}}
	cf.Add(first)
	if cf.Len() != 2 {
		t.Fatalf("Len = %d", cf.Len())
	}
	cache := indexcache.New(4, 0)
	cache.Insert(fp.FromUint64(2)) // seen before, SIU outstanding
	cache.Insert(fp.FromUint64(3)) // genuinely new
	removed := cf.FilterSILResult(cache)
	if removed != 1 {
		t.Fatalf("removed = %d, want 1", removed)
	}
	if cache.Contains(fp.FromUint64(2)) || !cache.Contains(fp.FromUint64(3)) {
		t.Fatal("checking-file dedup filtered the wrong fingerprint")
	}
	if cid, ok := cf.Lookup(fp.FromUint64(1)); !ok || cid != 10 {
		t.Fatalf("Lookup = %v,%v", cid, ok)
	}
	cf.RemoveUpdated(first)
	if cf.Len() != 0 {
		t.Fatalf("Len after RemoveUpdated = %d", cf.Len())
	}
}

func TestChunkStoreFullCycle(t *testing.T) {
	ix := newIndex(t, 10)
	repo := container.NewMemRepository(true, nil)
	cs := NewChunkStore(ix, repo, true, false)
	cs.ContainerSize = 1 << 16
	cs.ScanBuckets = 64

	log := chunklog.NewMem(true, nil)
	var undetermined []fp.FP
	for i := 0; i < 200; i++ {
		f := fp.FromUint64(uint64(i))
		undetermined = append(undetermined, f)
		_ = log.Append(f, 1000, nil)
	}
	res, err := cs.RunDedup2(undetermined, log, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.NewChunks != 200 || res.IndexDups != 0 {
		t.Fatalf("first pass: new=%d dups=%d", res.Store.NewChunks, res.IndexDups)
	}
	if ix.Count() != 200 {
		t.Fatalf("index count = %d", ix.Count())
	}

	// Second backup: 150 old chunks + 50 new. SIL must discard the old.
	log2 := chunklog.NewMem(true, nil)
	var und2 []fp.FP
	for i := 50; i < 250; i++ {
		f := fp.FromUint64(uint64(i))
		und2 = append(und2, f)
		_ = log2.Append(f, 1000, nil)
	}
	res2, err := cs.RunDedup2(und2, log2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res2.IndexDups != 150 || res2.Store.NewChunks != 50 {
		t.Fatalf("second pass: dups=%d new=%d, want 150/50", res2.IndexDups, res2.Store.NewChunks)
	}
	if ix.Count() != 250 {
		t.Fatalf("index count = %d, want 250", ix.Count())
	}
}

func TestChunkStoreAsyncNoDuplicateStorage(t *testing.T) {
	// Async mode: two SIL+store passes share one deferred SIU. The same
	// new fingerprint in both passes must be stored exactly once.
	ix := newIndex(t, 10)
	repo := container.NewMemRepository(true, nil)
	cs := NewChunkStore(ix, repo, true, true)
	cs.ContainerSize = 1 << 16
	cs.ScanBuckets = 64

	mkLog := func(start, n int) (*chunklog.Mem, []fp.FP) {
		log := chunklog.NewMem(true, nil)
		var und []fp.FP
		for _, f := range fps(start, n) {
			und = append(und, f)
			_ = log.Append(f, 1000, nil)
		}
		return log, und
	}
	log1, und1 := mkLog(0, 100)
	_, unreg1, err := cs.RunSILAndStore(und1, log1, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Overlapping second job (50 shared) before any SIU.
	log2, und2 := mkLog(50, 100)
	res2, unreg2, err := cs.RunSILAndStore(und2, log2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CheckingDups != 50 {
		t.Fatalf("checking dups = %d, want 50", res2.CheckingDups)
	}
	if res2.Store.NewChunks != 50 {
		t.Fatalf("second store wrote %d, want 50", res2.Store.NewChunks)
	}
	if repo.Bytes() != 150*1000 {
		t.Fatalf("repo holds %d bytes, want 150000 (no duplicates)", repo.Bytes())
	}
	// One SIU services both (§5.4: "asynchronous PSIU with one PSIU
	// servicing more than one PSIL").
	if err := cs.RunSIU(append(unreg1, unreg2...)); err != nil {
		t.Fatal(err)
	}
	if cs.Checking.Len() != 0 {
		t.Fatalf("checking file retains %d", cs.Checking.Len())
	}
	if ix.Count() != 150 {
		t.Fatalf("index count = %d, want 150", ix.Count())
	}
}

// dedup2Fixture is one independent dedup-2 engine instance (fresh index,
// repository, checking file) plus the payloads it has been fed.
type dedup2Fixture struct {
	ix       *diskindex.Index
	repo     *container.MemRepository
	cs       *ChunkStore
	payloads map[fp.FP][]byte
}

func newDedup2Fixture(t *testing.T) *dedup2Fixture {
	t.Helper()
	ix := newIndex(t, 10)
	repo := container.NewMemRepository(false, nil)
	cs := NewChunkStore(ix, repo, false, true) // async: checking file active
	cs.ContainerSize = 4 << 10                 // many containers per pass
	cs.ScanBuckets = 37                        // windows that do not divide the 1024 buckets
	return &dedup2Fixture{ix: ix, repo: repo, cs: cs, payloads: make(map[fp.FP][]byte)}
}

// feed builds a chunk log holding the payloads for counter values
// [start, start+n), re-logging every loggedTwice'th record to exercise the
// intra-log duplicate guard, and returns the log with its undetermined set.
func (fx *dedup2Fixture) feed(start, n int, loggedTwice int) (*chunklog.Mem, []fp.FP) {
	log := chunklog.NewMem(false, nil)
	var und []fp.FP
	for i := 0; i < n; i++ {
		data := []byte(fmt.Sprintf("chunk-payload-%05d-%s", start+i, bytes.Repeat([]byte{byte(start + i)}, 64)))
		f := fp.New(data)
		fx.payloads[f] = data
		und = append(und, f)
		_ = log.Append(f, uint32(len(data)), data)
		if loggedTwice > 0 && i%loggedTwice == 0 {
			_ = log.Append(f, uint32(len(data)), data)
		}
	}
	return log, und
}

// run drives the fixture through a three-pass workload: two overlapping
// first-generation passes sharing one deferred SIU (checking-file
// traffic), then a duplicate-heavy second generation.
func (fx *dedup2Fixture) run(t *testing.T) (resA, resB, resC Dedup2Result) {
	t.Helper()
	logA, undA := fx.feed(0, 400, 7)
	resA, unregA, err := fx.cs.RunSILAndStore(undA, logA, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Pass B overlaps A by 150 fingerprints before any SIU has run: those
	// must fall to the checking file, not be stored twice.
	logB, undB := fx.feed(250, 300, 0)
	resB, unregB, err := fx.cs.RunSILAndStore(undB, logB, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.cs.RunSIU(append(unregA, unregB...)); err != nil {
		t.Fatal(err)
	}
	// Second generation: all 550 previous chunks again (index duplicates
	// now) plus 100 new ones.
	logC, undC := fx.feed(0, 650, 11)
	resC, unregC, err := fx.cs.RunSILAndStore(undC, logC, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.cs.RunSIU(unregC); err != nil {
		t.Fatal(err)
	}
	return resA, resB, resC
}

// indexImage serialises the index's full bucket layout: bucket numbers,
// slot order, fingerprints and container IDs.
func indexImage(t *testing.T, ix *diskindex.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := ix.ForEach(func(bucket uint64, e fp.Entry) bool {
		fmt.Fprintf(&buf, "%d:%s:%v\n", bucket, e.FP, e.CID)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// verifyRestorable asserts every payload ever fed restores byte-identical
// through the index and repository.
func (fx *dedup2Fixture) verifyRestorable(t *testing.T) {
	t.Helper()
	for f, want := range fx.payloads {
		cid, err := fx.ix.Lookup(f)
		if err != nil {
			t.Fatalf("lookup %v: %v", f.Short(), err)
		}
		c, err := fx.repo.Load(cid)
		if err != nil {
			t.Fatalf("load container %v for %v: %v", cid, f.Short(), err)
		}
		got, ok := c.Chunk(f)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("chunk %v: restored %d bytes, ok=%v, want %d", f.Short(), len(got), ok, len(want))
		}
	}
}

// TestShardedDedup2Equivalence runs the three-pass workload with the
// deprecated Workers field unset and again at Workers = 1, 2, 4 and 7: the
// field is ignored, so every run ends with the same results in every pass,
// byte-identical index images (container IDs included) and identical
// repositories, and every payload restores. The name predates the removal
// of the region-sharded pass that Workers once selected.
func TestShardedDedup2Equivalence(t *testing.T) {
	ref := newDedup2Fixture(t)
	refA, refB, refC := ref.run(t)
	if refC.IndexDups != 550 {
		t.Fatalf("workload sanity: second generation found %d index dups, want 550", refC.IndexDups)
	}
	if refB.CheckingDups != 150 {
		t.Fatalf("workload sanity: overlapping pass found %d checking dups, want 150", refB.CheckingDups)
	}
	refImage := indexImage(t, ref.ix)
	ref.verifyRestorable(t)

	for _, p := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			fx := newDedup2Fixture(t)
			fx.cs.Workers = p
			resA, resB, resC := fx.run(t)
			for pass, pair := range [][2]Dedup2Result{{refA, resA}, {refB, resB}, {refC, resC}} {
				// Every field but the wall-clock durations must match.
				for i := range pair {
					pair[i].SILTime, pair[i].StoreTime = 0, 0
				}
				if pair[0] != pair[1] {
					t.Fatalf("pass %d results differ:\nref:       %+v\nWorkers=%d: %+v", pass, pair[0], p, pair[1])
				}
			}
			if !bytes.Equal(refImage, indexImage(t, fx.ix)) {
				t.Fatalf("index image at Workers=%d differs from the reference run", p)
			}
			if ref.repo.Containers() != fx.repo.Containers() || ref.repo.Bytes() != fx.repo.Bytes() {
				t.Fatalf("repositories differ: %d/%d containers, %d/%d bytes",
					ref.repo.Containers(), fx.repo.Containers(), ref.repo.Bytes(), fx.repo.Bytes())
			}
			fx.verifyRestorable(t)
		})
	}
}

// TestShardedDedup2Deterministic: two independent runs of the same
// workload on fresh fixtures end with byte-identical index images,
// container IDs included, and every payload restores from both.
func TestShardedDedup2Deterministic(t *testing.T) {
	a, b := newDedup2Fixture(t), newDedup2Fixture(t)
	a.run(t)
	b.run(t)
	if !bytes.Equal(indexImage(t, a.ix), indexImage(t, b.ix)) {
		t.Fatal("two runs of the same workload produced different index images")
	}
	a.verifyRestorable(t)
	b.verifyRestorable(t)
}

// failingRepo fails its failAt'th Append and delegates every other call,
// recording the IDs of the containers it appended before the failure.
type failingRepo struct {
	*container.MemRepository
	calls, failAt int
	before        []fp.ContainerID
}

func (r *failingRepo) Append(c *container.Container) (fp.ContainerID, error) {
	r.calls++
	if r.calls == r.failAt {
		return 0, fmt.Errorf("injected append failure")
	}
	id, err := r.MemRepository.Append(c)
	if err == nil && r.calls < r.failAt {
		r.before = append(r.before, id)
	}
	return id, err
}

// TestShardedDedup2CommitFailureRetries: a pass whose third container
// append fails reports the error, hands out no unregistered entries and
// leaves the checking file as it was; the two containers appended before
// the failure are stranded. A retry of the same undetermined set over the
// same log (the server re-queues the pending fingerprints on error)
// stores every chunk, and after SIU no index entry names a stranded
// container: an index entry only ever names a container of a completed
// pass.
func TestShardedDedup2CommitFailureRetries(t *testing.T) {
	fx := newDedup2Fixture(t)
	repo := &failingRepo{MemRepository: fx.repo}
	fx.cs.Repo = repo

	// An earlier pass whose SIU is still outstanding fills the checking file.
	logEarlier, undEarlier := fx.feed(300, 50, 0)
	_, unregEarlier, err := fx.cs.RunSILAndStore(undEarlier, logEarlier, 6)
	if err != nil {
		t.Fatal(err)
	}
	checking := fx.cs.Checking.Len()
	if checking != 50 {
		t.Fatalf("checking file holds %d, want 50", checking)
	}

	log, und := fx.feed(0, 300, 0)
	repo.failAt = repo.calls + 3
	_, unreg, err := fx.cs.RunSILAndStore(und, log, 6)
	if err == nil {
		t.Fatal("append failure not reported")
	}
	if len(unreg) != 0 {
		t.Fatalf("failed pass handed out %d unregistered entries", len(unreg))
	}
	if got := fx.cs.Checking.Len(); got != checking {
		t.Fatalf("failed pass changed the checking file: %d entries, want %d", got, checking)
	}
	if len(repo.before) != 2 {
		t.Fatalf("%d containers appended before the failure, want 2", len(repo.before))
	}

	res, unreg, err := fx.cs.RunSILAndStore(und, log, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.NewChunks != 300 || int64(len(unreg)) != 300 {
		t.Fatalf("retry stored %d chunks, %d unreg, want 300/300", res.Store.NewChunks, len(unreg))
	}
	if err := fx.cs.RunSIU(append(unregEarlier, unreg...)); err != nil {
		t.Fatal(err)
	}
	stranded := make(map[fp.ContainerID]bool)
	for _, id := range repo.before {
		stranded[id] = true
	}
	if err := fx.ix.ForEach(func(_ uint64, e fp.Entry) bool {
		if stranded[e.CID] {
			t.Fatalf("index entry %v names stranded container %v", e.FP.Short(), e.CID)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	fx.verifyRestorable(t)
}

// TestSIUPreSortedRuns: SIU merges a sorted copy of its input, so neither
// input already in merge order nor the same entries reversed is mutated,
// and both reach identical index images.
func TestSIUPreSortedRuns(t *testing.T) {
	ix := newIndex(t, 8)
	entries := make([]fp.Entry, 500)
	for i := range entries {
		entries[i] = fp.Entry{FP: fp.FromUint64(uint64(i)), CID: fp.ContainerID(i)}
	}
	sort.Slice(entries, func(i, j int) bool {
		bi, bj := ix.BucketOf(entries[i].FP), ix.BucketOf(entries[j].FP)
		if bi != bj {
			return bi < bj
		}
		return entries[i].FP.Less(entries[j].FP)
	})
	reversed := make([]fp.Entry, len(entries))
	for i := range entries {
		reversed[i] = entries[len(entries)-1-i]
	}
	ix2 := newIndex(t, 8)
	for _, in := range []struct {
		ix      *diskindex.Index
		entries []fp.Entry
	}{{ix, entries}, {ix2, reversed}} {
		snapshot := append([]fp.Entry(nil), in.entries...)
		if err := SIU(in.ix, in.entries, 16); err != nil {
			t.Fatal(err)
		}
		for i := range in.entries {
			if in.entries[i] != snapshot[i] {
				t.Fatalf("SIU mutated caller slice at %d", i)
			}
		}
	}
	if !bytes.Equal(indexImage(t, ix), indexImage(t, ix2)) {
		t.Fatal("sorted and reversed SIU inputs produced different index states")
	}
}

func TestDedup1SessionFiltersAndLogs(t *testing.T) {
	filter := prefilter.New(8, 0)
	log := chunklog.NewMem(true, nil)
	link := disksim.NewLink(disksim.DefaultNIC())
	s := NewDedup1Session(filter, log, link)

	// Prime with previous version: fingerprints 0..49.
	for _, f := range fps(0, 50) {
		filter.Prime(f)
	}
	// Stream: 50 old + 50 new, each offered twice (intra-stream dup).
	stream := append(fps(0, 50), fps(100, 50)...)
	stream = append(stream, stream...)
	transfers := 0
	for _, f := range stream {
		tr, err := s.Offer(f, 1000, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tr {
			transfers++
		}
	}
	if transfers != 50 {
		t.Fatalf("transfers = %d, want 50", transfers)
	}
	und := s.Finish()
	if len(und) != 50 {
		t.Fatalf("undetermined = %d, want 50", len(und))
	}
	st := s.Stats()
	if st.LogicalBytes != 200*1000 {
		t.Fatalf("logical = %d", st.LogicalBytes)
	}
	wantXfer := int64(200*fpWireBytes + 50*1000)
	if st.TransferredBytes != wantXfer {
		t.Fatalf("transferred = %d, want %d", st.TransferredBytes, wantXfer)
	}
	if st.NetTime == 0 {
		t.Fatal("network time not accounted")
	}
	if cr := s.CompressionRatio(); cr < 3.5 || cr > 4.0 {
		t.Fatalf("dedup-1 compression = %v, want ≈3.7", cr)
	}
}

func TestRestorerLPCPath(t *testing.T) {
	// Store 20 containers of 50 chunks with real payloads, then restore
	// the stream in order: LPC must eliminate most random index lookups.
	ix := newIndex(t, 10)
	repo := container.NewMemRepository(false, nil)
	cs := NewChunkStore(ix, repo, false, false)
	cs.ContainerSize = 8 << 10
	cs.ScanBuckets = 64

	log := chunklog.NewMem(false, nil)
	var und []fp.FP
	var stream []fp.FP
	payloads := map[fp.FP][]byte{}
	for i := 0; i < 500; i++ {
		data := []byte{byte(i), byte(i >> 8), 0xAB}
		f := fp.New(data)
		payloads[f] = data
		und = append(und, f)
		stream = append(stream, f)
		_ = log.Append(f, uint32(len(data)), data)
	}
	if _, err := cs.RunDedup2(und, log, 6); err != nil {
		t.Fatal(err)
	}

	r := NewRestorer(ix, repo, 4)
	for _, f := range stream {
		got, err := r.Chunk(f)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(payloads[f]) {
			t.Fatalf("restored payload differs for %v", f.Short())
		}
	}
	if r.ChunksServed() != 500 {
		t.Fatalf("served = %d", r.ChunksServed())
	}
	if rate := r.AvoidedLookupRate(); rate < 0.9 {
		t.Fatalf("LPC avoided only %.1f%% of lookups", rate*100)
	}
}

func TestRestorerUnknownFingerprint(t *testing.T) {
	ix := newIndex(t, 8)
	repo := container.NewMemRepository(true, nil)
	r := NewRestorer(ix, repo, 2)
	if _, err := r.Chunk(fp.FromUint64(12345)); !errors.Is(err, diskindex.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func BenchmarkSIL(b *testing.B) {
	ix, _ := diskindex.NewMem(diskindex.Config{BucketBits: 14, BucketBlocks: 1}, nil)
	for i := 0; i < 100000; i++ {
		_ = ix.Insert(fp.Entry{FP: fp.FromUint64(uint64(i)), CID: 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cache := indexcache.New(10, 0)
		for j := 0; j < 50000; j++ {
			cache.Insert(fp.FromUint64(uint64(j * 3)))
		}
		b.StartTimer()
		if _, err := SIL(ix, cache, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSIU(b *testing.B) {
	entries := make([]fp.Entry, 50000)
	for i := range entries {
		entries[i] = fp.Entry{FP: fp.FromUint64(uint64(i)), CID: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix, _ := diskindex.NewMem(diskindex.Config{BucketBits: 14, BucketBlocks: 1}, nil)
		b.StartTimer()
		if err := SIU(ix, entries, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// discardRepo keeps nothing of what it is handed but the counts: a
// repository that allocates nothing, so a pass's allocations are its own.
type discardRepo struct{ containers, bytes int64 }

func (r *discardRepo) Append(c *container.Container) (fp.ContainerID, error) {
	r.containers++
	r.bytes += int64(len(c.Data))
	return fp.ContainerID(r.containers - 1), nil
}

func (r *discardRepo) Load(id fp.ContainerID) (*container.Container, error) {
	return nil, container.ErrNotFound
}

func (r *discardRepo) LoadMeta(id fp.ContainerID) ([]container.ChunkMeta, error) {
	return nil, container.ErrNotFound
}

func (r *discardRepo) Release(fp.ContainerID) {}
func (r *discardRepo) Containers() int64      { return r.containers }
func (r *discardRepo) Bytes() int64           { return r.bytes }

// TestStoreChunksReusesContainerBuffer: chunk storing packs every
// container through one data buffer, so a pass that seals 16 containers
// allocates about one container's worth of memory, not 16.
func TestStoreChunksReusesContainerBuffer(t *testing.T) {
	const size, chunk, containers = 1 << 20, 8 << 10, 16
	log := chunklog.NewMem(false, nil)
	cache := indexcache.New(12, 0)
	data := make([]byte, chunk)
	for i := 0; i < containers*size/chunk; i++ {
		f := fp.FromUint64(uint64(i))
		if err := log.Append(f, chunk, data); err != nil {
			t.Fatal(err)
		}
		if _, err := cache.Insert(f); err != nil {
			t.Fatal(err)
		}
	}
	repo := &discardRepo{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := StoreChunks(log, cache, repo, size, false)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Containers < containers {
		t.Fatalf("sealed %d containers, want at least %d", res.Containers, containers)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 3*size {
		t.Fatalf("storing %d containers of %d bytes allocated %d bytes, want about one container's worth", res.Containers, size, got)
	}
}
