package cluster

import (
	"testing"

	"debar/internal/container"
	"debar/internal/disksim"
	"debar/internal/fp"
)

func testCluster(t *testing.T, w uint, modelled bool) (*Cluster, *container.MemRepository) {
	t.Helper()
	repo := container.NewMemRepository(true, nil)
	cfg := Config{
		W:             w,
		IndexBits:     8,
		IndexBlocks:   1,
		ContainerSize: 64 << 10,
		MetaOnly:      true,
	}
	if modelled {
		cfg.DiskModel = disksim.DefaultRAID()
		cfg.NetModel = disksim.DefaultNIC()
	}
	c, err := New(cfg, repo)
	if err != nil {
		t.Fatal(err)
	}
	return c, repo
}

func fill(c *Cluster, start, n int, size uint32) [][]fp.FP {
	und := make([][]fp.FP, c.Size())
	for i := 0; i < n; i++ {
		f := fp.FromUint64(uint64(start + i))
		o := i % c.Size() // spread across origin servers
		und[o] = append(und[o], f)
		_ = c.Nodes[o].Log.Append(f, size, nil)
	}
	return und
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{W: 7, IndexBits: 4, IndexBlocks: 1}, container.NewMemRepository(true, nil)); err == nil {
		t.Fatal("w=7 accepted")
	}
}

func TestHomeOfPartitions(t *testing.T) {
	c, _ := testCluster(t, 2, false)
	for i := uint64(0); i < 1000; i++ {
		f := fp.FromUint64(i)
		if got, want := c.HomeOf(f), int(f.Prefix(2)); got != want {
			t.Fatalf("HomeOf = %d, want %d", got, want)
		}
	}
}

func TestPSILRoutesAndFinds(t *testing.T) {
	c, _ := testCluster(t, 2, false)
	// Pre-register 400 fingerprints through a full dedup-2 cycle.
	und := fill(c, 0, 400, 1000)
	if _, _, err := c.RunDedup2(und, 6, false); err != nil {
		t.Fatal(err)
	}
	// Each fingerprint must be in its home server's index part.
	for i := uint64(0); i < 400; i++ {
		f := fp.FromUint64(i)
		home := c.HomeOf(f)
		if _, err := c.Nodes[home].Chunk.Index.Lookup(f); err != nil {
			t.Fatalf("fp %d missing from home part %d: %v", i, home, err)
		}
	}
	// Second pass: 300 old + 100 new → PSIL must separate them.
	for _, n := range c.Nodes {
		n.Log.Reset()
	}
	und2 := fill(c, 100, 400, 1000)
	res, _, err := c.RunDedup2(und2, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.PSIL.Dups != 300 || res.PSIL.New != 100 {
		t.Fatalf("PSIL dups=%d new=%d, want 300/100", res.PSIL.Dups, res.PSIL.New)
	}
	if res.Store.NewChunks != 100 {
		t.Fatalf("stored %d new chunks, want 100", res.Store.NewChunks)
	}
}

func TestPSILPerOriginVerdicts(t *testing.T) {
	c, _ := testCluster(t, 1, false)
	undetermined := [][]fp.FP{
		{fp.FromUint64(1), fp.FromUint64(2)},
		{fp.FromUint64(3)},
	}
	res, err := c.PSIL(undetermined, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerOrigin[0]) != 2 || len(res.PerOrigin[1]) != 1 {
		t.Fatalf("verdicts: %d/%d", len(res.PerOrigin[0]), len(res.PerOrigin[1]))
	}
	if !res.PerOrigin[0][fp.FromUint64(1)] || !res.PerOrigin[1][fp.FromUint64(3)] {
		t.Fatal("origin verdicts misrouted")
	}
}

func TestCrossStreamDuplicateBothStore(t *testing.T) {
	// Faithful mode: a fingerprint offered by two origins is new for
	// both, so both store a copy (paper §5.2 exchanges verdicts without
	// designating a storer).
	c, repo := testCluster(t, 1, false)
	shared := fp.FromUint64(77)
	und := [][]fp.FP{{shared}, {shared}}
	_ = c.Nodes[0].Log.Append(shared, 1000, nil)
	_ = c.Nodes[1].Log.Append(shared, 1000, nil)
	res, _, err := c.RunDedup2(und, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.NewChunks != 2 {
		t.Fatalf("stored %d copies, want 2 (faithful mode)", res.Store.NewChunks)
	}
	if repo.Bytes() != 2000 {
		t.Fatalf("repo bytes = %d", repo.Bytes())
	}
	// The index keeps exactly one mapping.
	home := c.HomeOf(shared)
	if _, err := c.Nodes[home].Chunk.Index.Lookup(shared); err != nil {
		t.Fatal(err)
	}
	if got := c.Nodes[home].Chunk.Index.Count(); got != 1 {
		t.Fatalf("index holds %d entries for one fingerprint", got)
	}
}

func TestDedupCrossAblation(t *testing.T) {
	c, repo := testCluster(t, 1, false)
	c.DedupCross = true
	shared := fp.FromUint64(77)
	und := [][]fp.FP{{shared}, {shared}}
	_ = c.Nodes[0].Log.Append(shared, 1000, nil)
	_ = c.Nodes[1].Log.Append(shared, 1000, nil)
	res, _, err := c.RunDedup2(und, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.NewChunks != 1 {
		t.Fatalf("stored %d copies, want 1 (dedup-cross mode)", res.Store.NewChunks)
	}
	if repo.Bytes() != 1000 {
		t.Fatalf("repo bytes = %d", repo.Bytes())
	}
}

func TestAsyncDeferredPSIU(t *testing.T) {
	repo := container.NewMemRepository(true, nil)
	c, err := New(Config{W: 1, IndexBits: 8, IndexBlocks: 1, ContainerSize: 64 << 10,
		MetaOnly: true, Async: true}, repo)
	if err != nil {
		t.Fatal(err)
	}
	und1 := fill(c, 0, 100, 1000)
	res1, unreg1, err := c.RunDedup2(und1, 6, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res1.SkippedSIU {
		t.Fatal("SIU not deferred")
	}
	// Second batch overlapping the first, still before any PSIU: the
	// checking files must prevent duplicate storage.
	for _, n := range c.Nodes {
		n.Log.Reset()
	}
	und2 := fill(c, 50, 100, 1000)
	res2, unreg2, err := c.RunDedup2(und2, 6, true)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Store.NewChunks != 50 {
		t.Fatalf("second batch stored %d, want 50", res2.Store.NewChunks)
	}
	if repo.Bytes() != 150*1000 {
		t.Fatalf("repo holds %d bytes, want 150000", repo.Bytes())
	}
	// One PSIU services both batches (§5.4).
	merged := make([][]fp.Entry, c.Size())
	for o := range merged {
		merged[o] = append(unreg1[o], unreg2[o]...)
	}
	psiu, err := c.PSIU(merged)
	if err != nil {
		t.Fatal(err)
	}
	if psiu.Updated != 150 {
		t.Fatalf("PSIU updated %d, want 150", psiu.Updated)
	}
	for _, n := range c.Nodes {
		if n.Chunk.Checking.Len() != 0 {
			t.Fatalf("checking file retains %d", n.Chunk.Checking.Len())
		}
	}
	var count int64
	for _, n := range c.Nodes {
		count += n.Chunk.Index.Count()
	}
	if count != 150 {
		t.Fatalf("index parts hold %d, want 150", count)
	}
}

func TestParallelSILIsConcurrent(t *testing.T) {
	// With modelled disks, PSIL elapsed must be ≈ one part's scan time,
	// not the sum over parts (§5.2: "Since 2^w SILs are being performed
	// in parallel"). Use parts large enough that scan time dominates the
	// exchange's per-message latency.
	repo := container.NewMemRepository(true, nil)
	c, err := New(Config{W: 2, IndexBits: 14, IndexBlocks: 1, ContainerSize: 64 << 10,
		MetaOnly: true, DiskModel: disksim.DefaultRAID(), NetModel: disksim.DefaultNIC()}, repo)
	if err != nil {
		t.Fatal(err)
	}
	und := fill(c, 0, 100, 1000)
	res, err := c.PSIL(und, 6)
	if err != nil {
		t.Fatal(err)
	}
	partScan := c.Nodes[0].Chunk.Index.Disk().Model.SeqRead(c.Nodes[0].Chunk.Index.Config().SizeBytes())
	if res.Elapsed < partScan {
		t.Fatalf("elapsed %v below one part scan %v", res.Elapsed, partScan)
	}
	if res.Elapsed > 2*partScan {
		t.Fatalf("elapsed %v suggests serial execution (part scan %v)", res.Elapsed, partScan)
	}
}

func TestExchangeChargesLinks(t *testing.T) {
	c, _ := testCluster(t, 2, true)
	und := fill(c, 0, 1000, 1000)
	if _, err := c.PSIL(und, 6); err != nil {
		t.Fatal(err)
	}
	var anyLink bool
	for _, n := range c.Nodes {
		if n.Link.Clock.Now() > 0 {
			anyLink = true
		}
	}
	if !anyLink {
		t.Fatal("PSIL exchange charged no link time")
	}
}

func TestMismatchedInputs(t *testing.T) {
	c, _ := testCluster(t, 1, false)
	if _, err := c.PSIL(make([][]fp.FP, 1), 4); err == nil {
		t.Fatal("wrong undetermined count accepted")
	}
	if _, err := c.PSIU(make([][]fp.Entry, 3)); err == nil {
		t.Fatal("wrong unregistered count accepted")
	}
}
