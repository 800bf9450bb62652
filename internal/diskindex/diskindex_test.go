package diskindex

import (
	"errors"
	"path/filepath"
	"testing"
	"testing/quick"

	"debar/internal/disksim"
	"debar/internal/fp"
)

func smallCfg() Config { return Config{BucketBits: 8, BucketBlocks: 1} } // 256 buckets, b=20

func mustNew(t *testing.T, cfg Config) *Index {
	t.Helper()
	ix, err := NewMem(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestConfigGeometry(t *testing.T) {
	cfg := Config{BucketBits: 26, BucketBlocks: 1}
	if cfg.EntriesPerBucket() != 20 {
		t.Errorf("entries per 512B bucket = %d, want 20", cfg.EntriesPerBucket())
	}
	// Paper §5.2: "a 32GB index can contain a maximum of 2^26 × 20
	// fingerprints" with 512-byte buckets.
	if got := cfg.SizeBytes(); got != 32<<30 {
		t.Errorf("2^26 × 512B = %d, want 32GiB", got)
	}
	if got := cfg.Capacity(); got != (1<<26)*20 {
		t.Errorf("capacity = %d, want 2^26*20", got)
	}
	// Paper §4.2: an 8KB bucket contains 16 blocks, up to 320 entries.
	cfg8k := Config{BucketBits: 26, BucketBlocks: DefaultBucketBlocks}
	if cfg8k.EntriesPerBucket() != 320 {
		t.Errorf("8KB bucket entries = %d, want 320", cfg8k.EntriesPerBucket())
	}
}

func TestConfigValidate(t *testing.T) {
	if _, err := NewMem(Config{BucketBits: 0, BucketBlocks: 1}, nil); err == nil {
		t.Error("accepted 0 bucket bits")
	}
	if _, err := NewMem(Config{BucketBits: 4, BucketBlocks: 0}, nil); err == nil {
		t.Error("accepted 0 bucket blocks")
	}
	if _, err := NewMem(Config{BucketBits: 48, BucketBlocks: 1}, nil); err == nil {
		t.Error("accepted 48 bucket bits")
	}
}

func TestInsertLookup(t *testing.T) {
	ix := mustNew(t, smallCfg())
	entries := make([]fp.Entry, 300)
	for i := range entries {
		entries[i] = fp.Entry{FP: fp.FromUint64(uint64(i)), CID: fp.ContainerID(i)}
		if err := ix.Insert(entries[i]); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if ix.Count() != 300 {
		t.Fatalf("Count = %d, want 300", ix.Count())
	}
	for i, e := range entries {
		cid, err := ix.Lookup(e.FP)
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		if cid != e.CID {
			t.Fatalf("lookup %d = %v, want %v", i, cid, e.CID)
		}
	}
}

func TestLookupMissing(t *testing.T) {
	ix := mustNew(t, smallCfg())
	_ = ix.Insert(fp.Entry{FP: fp.FromUint64(1), CID: 1})
	if _, err := ix.Lookup(fp.FromUint64(999999)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing lookup err = %v, want ErrNotFound", err)
	}
}

func TestOverflowToAdjacent(t *testing.T) {
	// Force one bucket to overflow by crafting fingerprints with the same
	// prefix. With b=20, the 21st entry must land in a neighbour and still
	// be found by Lookup.
	ix := mustNew(t, smallCfg())
	var inserted []fp.Entry
	target := uint64(0)
	for i := uint64(0); len(inserted) < 21; i++ {
		f := fp.FromUint64(i)
		if f.Prefix(8) != target {
			continue
		}
		e := fp.Entry{FP: f, CID: fp.ContainerID(len(inserted))}
		if err := ix.Insert(e); err != nil {
			t.Fatalf("insert %d: %v", len(inserted), err)
		}
		inserted = append(inserted, e)
	}
	for i, e := range inserted {
		cid, err := ix.Lookup(e.FP)
		if err != nil || cid != e.CID {
			t.Fatalf("overflowed lookup %d: cid=%v err=%v", i, cid, err)
		}
	}
	stats, err := ix.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.FullBuckets < 1 {
		t.Fatal("expected at least one full bucket")
	}
}

func TestErrIndexFull(t *testing.T) {
	// 2 bucket bits → 4 buckets of 20. Fill buckets 0,1,2 completely with
	// prefix-1 fingerprints overflowing both ways; the insert that finds
	// three adjacent full buckets must report ErrIndexFull.
	ix := mustNew(t, Config{BucketBits: 2, BucketBlocks: 1})
	full := 0
	for i := uint64(0); full < 100; i++ {
		f := fp.FromUint64(i)
		if f.Prefix(2) != 1 {
			continue
		}
		err := ix.Insert(fp.Entry{FP: f, CID: 1})
		if errors.Is(err, ErrIndexFull) {
			if full < 60 {
				t.Fatalf("ErrIndexFull after only %d inserts", full)
			}
			return // got the signal, as designed
		}
		if err != nil {
			t.Fatal(err)
		}
		full++
	}
	t.Fatal("never saw ErrIndexFull despite over-filling")
}

func TestSetCID(t *testing.T) {
	ix := mustNew(t, smallCfg())
	f := fp.FromUint64(42)
	_ = ix.Insert(fp.Entry{FP: f, CID: fp.NilContainer})
	if err := ix.SetCID(f, 7); err != nil {
		t.Fatal(err)
	}
	cid, err := ix.Lookup(f)
	if err != nil || cid != 7 {
		t.Fatalf("after SetCID: cid=%v err=%v", cid, err)
	}
	if err := ix.SetCID(fp.FromUint64(4242424242), 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("SetCID missing = %v, want ErrNotFound", err)
	}
}

func TestForEachVisitsAll(t *testing.T) {
	ix := mustNew(t, smallCfg())
	want := map[fp.FP]fp.ContainerID{}
	for i := 0; i < 200; i++ {
		e := fp.Entry{FP: fp.FromUint64(uint64(i)), CID: fp.ContainerID(i)}
		want[e.FP] = e.CID
		_ = ix.Insert(e)
	}
	got := map[fp.FP]fp.ContainerID{}
	lastBucket := uint64(0)
	err := ix.ForEach(func(bucket uint64, e fp.Entry) bool {
		if bucket < lastBucket {
			t.Fatal("ForEach not in bucket order")
		}
		lastBucket = bucket
		got[e.FP] = e.CID
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("visited %d entries, want %d", len(got), len(want))
	}
	for f, cid := range want {
		if got[f] != cid {
			t.Fatalf("entry %v: cid %v, want %v", f, got[f], cid)
		}
	}
}

func TestNumberOrderedDistribution(t *testing.T) {
	// The index must store fingerprints sorted by bucket number = prefix:
	// the property SIL depends on (§4.1).
	ix := mustNew(t, smallCfg())
	for i := 0; i < 500; i++ {
		_ = ix.Insert(fp.Entry{FP: fp.FromUint64(uint64(i)), CID: 0})
	}
	err := ix.ForEach(func(bucket uint64, e fp.Entry) bool {
		home := e.FP.Prefix(8)
		if home != bucket && home != bucket-1 && home != bucket+1 {
			t.Fatalf("entry with prefix %d found in bucket %d", home, bucket)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScaleDoublesAndPreserves(t *testing.T) {
	ix := mustNew(t, smallCfg())
	entries := make([]fp.Entry, 1000)
	for i := range entries {
		entries[i] = fp.Entry{FP: fp.FromUint64(uint64(i)), CID: fp.ContainerID(i)}
		_ = ix.Insert(entries[i])
	}
	big, err := ix.Scale(NewMemStore(0))
	if err != nil {
		t.Fatal(err)
	}
	if big.Config().BucketBits != 9 {
		t.Fatalf("scaled bits = %d, want 9", big.Config().BucketBits)
	}
	if big.Count() != ix.Count() {
		t.Fatalf("scaled count = %d, want %d", big.Count(), ix.Count())
	}
	for _, e := range entries {
		cid, err := big.Lookup(e.FP)
		if err != nil || cid != e.CID {
			t.Fatalf("after scale, %v: cid=%v err=%v", e.FP.Short(), cid, err)
		}
	}
	// After scaling, every entry must be in its true home bucket
	// (no inherited overflow).
	err = big.ForEach(func(bucket uint64, e fp.Entry) bool {
		home := e.FP.Prefix(9)
		if home != bucket && home != bucket-1 && home != bucket+1 {
			t.Fatalf("scaled entry prefix %d in bucket %d", home, bucket)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScaleChargesSequentialIO(t *testing.T) {
	disk := disksim.NewDisk(disksim.DefaultRAID())
	ix, _ := New(NewMemStore(0), smallCfg(), disk)
	for i := 0; i < 100; i++ {
		_ = ix.Insert(fp.Entry{FP: fp.FromUint64(uint64(i))})
	}
	disk.Clock.Reset()
	if _, err := ix.Scale(NewMemStore(0)); err != nil {
		t.Fatal(err)
	}
	want := disk.Model.SeqRead(ix.Config().SizeBytes()) + disk.Model.SeqWrite(2*ix.Config().SizeBytes())
	if got := disk.Clock.Now(); got < want || got > want*2 {
		t.Fatalf("scale charged %v, want ≈%v", got, want)
	}
}

func TestPartitionSplitsByPrefix(t *testing.T) {
	ix := mustNew(t, smallCfg())
	entries := make([]fp.Entry, 800)
	for i := range entries {
		entries[i] = fp.Entry{FP: fp.FromUint64(uint64(i)), CID: fp.ContainerID(i)}
		_ = ix.Insert(entries[i])
	}
	const w = 2
	stores := []Store{NewMemStore(0), NewMemStore(0), NewMemStore(0), NewMemStore(0)}
	parts, err := ix.Partition(w, stores)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, p := range parts {
		total += p.Count()
		if p.Config().BucketBits != 6 {
			t.Fatalf("part bits = %d, want 6", p.Config().BucketBits)
		}
	}
	if total != ix.Count() {
		t.Fatalf("parts hold %d entries, want %d", total, ix.Count())
	}
	// Every fingerprint must be found in the part selected by its first
	// w bits (§5.2: "backup server k stores index part k").
	for _, e := range entries {
		j := e.FP.Prefix(w)
		cid, err := parts[j].Lookup(e.FP)
		if err != nil || cid != e.CID {
			t.Fatalf("partition lookup %v in part %d: cid=%v err=%v", e.FP.Short(), j, cid, err)
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	ix := mustNew(t, smallCfg())
	if _, err := ix.Partition(0, nil); err == nil {
		t.Error("accepted w=0")
	}
	if _, err := ix.Partition(8, nil); err == nil {
		t.Error("accepted w=n")
	}
	if _, err := ix.Partition(1, []Store{NewMemStore(0)}); err == nil {
		t.Error("accepted wrong store count")
	}
}

func TestMergeInvertsPartition(t *testing.T) {
	ix := mustNew(t, smallCfg())
	for i := 0; i < 500; i++ {
		_ = ix.Insert(fp.Entry{FP: fp.FromUint64(uint64(i)), CID: fp.ContainerID(i)})
	}
	stores := []Store{NewMemStore(0), NewMemStore(0)}
	parts, err := ix.Partition(1, stores)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Merge(parts, NewMemStore(0))
	if err != nil {
		t.Fatal(err)
	}
	if back.Count() != ix.Count() {
		t.Fatalf("merged count = %d, want %d", back.Count(), ix.Count())
	}
	for i := 0; i < 500; i++ {
		f := fp.FromUint64(uint64(i))
		cid, err := back.Lookup(f)
		if err != nil || cid != fp.ContainerID(i) {
			t.Fatalf("merged lookup %d: cid=%v err=%v", i, cid, err)
		}
	}
}

func TestMergeValidation(t *testing.T) {
	if _, err := Merge(nil, NewMemStore(0)); err == nil {
		t.Error("accepted empty merge")
	}
	a := mustNew(t, smallCfg())
	b := mustNew(t, Config{BucketBits: 7, BucketBlocks: 1})
	if _, err := Merge([]*Index{a, b}, NewMemStore(0)); err == nil {
		t.Error("accepted mismatched geometries")
	}
	if _, err := Merge([]*Index{a, a, a}, NewMemStore(0)); err == nil {
		t.Error("accepted non-power-of-two part count")
	}
}

func TestScanVisitsEverythingOnce(t *testing.T) {
	ix := mustNew(t, smallCfg())
	for i := 0; i < 400; i++ {
		_ = ix.Insert(fp.Entry{FP: fp.FromUint64(uint64(i)), CID: 9})
	}
	seen := 0
	err := ix.Scan(32, func(w *Window) error {
		w.ForEachEntry(func(bucket uint64, e fp.Entry) { seen++ })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(seen) != ix.Count() {
		t.Fatalf("scan saw %d entries, want %d", seen, ix.Count())
	}
}

func TestScanWindowGeometry(t *testing.T) {
	ix := mustNew(t, smallCfg()) // 256 buckets
	var starts []uint64
	_ = ix.Scan(100, func(w *Window) error {
		starts = append(starts, w.Start)
		if w.Count != 100 && w.Start+uint64(w.Count) != 256 {
			t.Fatalf("interior window at %d has count %d", w.Start, w.Count)
		}
		return nil
	})
	if len(starts) != 3 { // 100+100+56
		t.Fatalf("got %d windows, want 3", len(starts))
	}
}

func TestUpdatePersistsMutations(t *testing.T) {
	ix := mustNew(t, smallCfg())
	var fps []fp.FP
	for i := 0; i < 300; i++ {
		fps = append(fps, fp.FromUint64(uint64(i)))
	}
	err := ix.Update(64, func(w *Window) error {
		for _, f := range fps {
			if w.Contains(ix.BucketOf(f)) {
				if err := w.InsertInWindow(fp.Entry{FP: f, CID: 5}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Count() != 300 {
		t.Fatalf("count after Update = %d, want 300", ix.Count())
	}
	for _, f := range fps {
		cid, err := ix.Lookup(f)
		if err != nil || cid != 5 {
			t.Fatalf("lookup %v after Update: cid=%v err=%v", f.Short(), cid, err)
		}
	}
}

func TestScanChargesOneSequentialPass(t *testing.T) {
	disk := disksim.NewDisk(disksim.DefaultRAID())
	ix, _ := New(NewMemStore(0), smallCfg(), disk)
	disk.Clock.Reset()
	_ = ix.Scan(0, func(w *Window) error { return nil })
	want := disk.Model.SeqRead(ix.Config().SizeBytes())
	if got := disk.Clock.Now(); got != want {
		t.Fatalf("scan charged %v, want %v", got, want)
	}
	disk.Clock.Reset()
	_ = ix.Update(0, func(w *Window) error { return nil })
	want = disk.Model.SeqRead(ix.Config().SizeBytes()) + disk.Model.SeqWrite(ix.Config().SizeBytes())
	if got := disk.Clock.Now(); got != want {
		t.Fatalf("update charged %v, want %v", got, want)
	}
}

func TestInsertChargesRandomIO(t *testing.T) {
	disk := disksim.NewDisk(disksim.DefaultRAID())
	ix, _ := New(NewMemStore(0), smallCfg(), disk)
	disk.Clock.Reset()
	_ = ix.Insert(fp.Entry{FP: fp.FromUint64(7)})
	if disk.Clock.Now() != disk.Model.RandWrite() {
		t.Fatalf("insert charged %v, want one random write", disk.Clock.Now())
	}
	disk.Clock.Reset()
	_, _ = ix.Lookup(fp.FromUint64(7))
	if disk.Clock.Now() != disk.Model.RandRead() {
		t.Fatalf("lookup charged %v, want one random read", disk.Clock.Now())
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.bin")
	st, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ix, err := New(st, smallCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := ix.Insert(fp.Entry{FP: fp.FromUint64(uint64(i)), CID: fp.ContainerID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		cid, err := ix.Lookup(fp.FromUint64(uint64(i)))
		if err != nil || cid != fp.ContainerID(i) {
			t.Fatalf("file-backed lookup %d: cid=%v err=%v", i, cid, err)
		}
	}
}

func TestMemStoreBounds(t *testing.T) {
	m := NewMemStore(10)
	if err := m.ReadAt(make([]byte, 4), 8); err == nil {
		t.Error("out-of-bounds read accepted")
	}
	if err := m.WriteAt(make([]byte, 4), -1); err == nil {
		t.Error("negative-offset write accepted")
	}
	if err := m.Truncate(-5); err == nil {
		t.Error("negative truncate accepted")
	}
	if err := m.Truncate(20); err != nil || m.Size() != 20 {
		t.Errorf("grow failed: %v size=%d", err, m.Size())
	}
	if err := m.Truncate(5); err != nil || m.Size() != 5 {
		t.Errorf("shrink failed: %v size=%d", err, m.Size())
	}
}

func TestInsertLookupQuick(t *testing.T) {
	ix := mustNew(t, Config{BucketBits: 10, BucketBlocks: 1})
	inserted := map[fp.FP]fp.ContainerID{}
	err := quick.Check(func(seed uint64, cid uint64) bool {
		f := fp.FromUint64(seed)
		c := fp.ContainerID(cid % (1 << 40))
		if _, dup := inserted[f]; !dup {
			if err := ix.Insert(fp.Entry{FP: f, CID: c}); err != nil {
				return errors.Is(err, ErrIndexFull)
			}
			inserted[f] = c
		}
		got, err := ix.Lookup(f)
		return err == nil && got == inserted[f]
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInsertIdempotent: re-offering an entry (recovery replay, SIU retry
// after partial failure) must keep the existing mapping, not burn a slot.
func TestInsertIdempotent(t *testing.T) {
	ix, err := NewMem(Config{BucketBits: 6, BucketBlocks: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := fp.Entry{FP: fp.FromUint64(99), CID: 5}
	for i := 0; i < 3; i++ {
		if err := ix.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Insert(fp.Entry{FP: e.FP, CID: 9}); err != nil {
		t.Fatal(err)
	}
	if ix.Count() != 1 {
		t.Fatalf("Count = %d after re-inserts, want 1", ix.Count())
	}
	cid, err := ix.Lookup(e.FP)
	if err != nil || cid != 5 {
		t.Fatalf("Lookup = %v, %v; want first mapping 5", cid, err)
	}
}

func BenchmarkInsert(b *testing.B) {
	ix, _ := NewMem(Config{BucketBits: 16, BucketBlocks: 1}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.Insert(fp.Entry{FP: fp.FromUint64(uint64(i)), CID: 1})
	}
}

func BenchmarkLookup(b *testing.B) {
	ix, _ := NewMem(Config{BucketBits: 16, BucketBlocks: 1}, nil)
	for i := 0; i < 100000; i++ {
		_ = ix.Insert(fp.Entry{FP: fp.FromUint64(uint64(i)), CID: 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = ix.Lookup(fp.FromUint64(uint64(i % 100000)))
	}
}

func BenchmarkScan(b *testing.B) {
	ix, _ := NewMem(Config{BucketBits: 14, BucketBlocks: 1}, nil)
	for i := 0; i < 100000; i++ {
		_ = ix.Insert(fp.Entry{FP: fp.FromUint64(uint64(i)), CID: 1})
	}
	b.SetBytes(ix.Config().SizeBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.Scan(0, func(w *Window) error { return nil })
	}
}
