package lpc

import (
	"strings"
	"testing"

	"debar/internal/container"
	"debar/internal/fp"
)

func makeMetas(start uint64, n int) []container.ChunkMeta {
	metas := make([]container.ChunkMeta, n)
	off := uint32(0)
	for i := range metas {
		metas[i] = container.ChunkMeta{FP: fp.FromUint64(start + uint64(i)), Size: 100, Offset: off}
		off += 100
	}
	return metas
}

func TestInsertLookup(t *testing.T) {
	c := New(4)
	metas := makeMetas(0, 10)
	c.Insert(1, metas, nil)
	for i := uint64(0); i < 10; i++ {
		id, ok := c.Lookup(fp.FromUint64(i))
		if !ok || id != 1 {
			t.Fatalf("Lookup(%d) = %v,%v", i, id, ok)
		}
	}
	if _, ok := c.Lookup(fp.FromUint64(100)); ok {
		t.Fatal("phantom hit")
	}
	hits, misses := c.Stats()
	if hits != 10 || misses != 1 {
		t.Fatalf("stats = %d/%d", hits, misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Insert(1, makeMetas(0, 5), nil)
	c.Insert(2, makeMetas(100, 5), nil)
	// Touch container 1 so container 2 is the LRU victim.
	c.Lookup(fp.FromUint64(0))
	c.Insert(3, makeMetas(200, 5), nil)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.Lookup(fp.FromUint64(100)); ok {
		t.Fatal("LRU container 2 not evicted")
	}
	if _, ok := c.Lookup(fp.FromUint64(0)); !ok {
		t.Fatal("recently-used container 1 evicted")
	}
	if _, ok := c.Lookup(fp.FromUint64(200)); !ok {
		t.Fatal("newest container 3 missing")
	}
}

// TestInsertReportsEvictedData: Insert names the container it evicts
// when that container held data, and only then; the restorer releases
// those containers' pages.
func TestInsertReportsEvictedData(t *testing.T) {
	w := container.NewWriter(1<<16, false)
	w.Add(fp.FromUint64(1), 1, []byte{1})
	cont := w.Seal(1)

	c := New(2)
	if _, held := c.Insert(1, makeMetas(0, 5), cont); held {
		t.Fatal("insert into a cache with room evicted a container")
	}
	c.Insert(2, makeMetas(100, 5), nil)
	if _, held := c.Insert(1, makeMetas(0, 5), cont); held {
		t.Fatal("refreshing a cached container evicted one")
	}
	if id, held := c.Insert(3, makeMetas(200, 5), nil); held {
		t.Fatalf("evicting metadata-only container 2 reported %v as holding data", id)
	}
	if id, held := c.Insert(4, makeMetas(300, 5), nil); !held || id != 1 {
		t.Fatalf("evicting data container 1 = %v,%v, want 1,true", id, held)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestSISLLocalityGivesHighHitRate(t *testing.T) {
	// The whole point of LPC+SISL: a restore of a stream laid out in
	// containers should miss once per container, then hit for every other
	// chunk of that container (§3.3; paper measures 99.3%).
	const chunksPerContainer = 64
	const containers = 16
	c := New(4)
	misses := 0
	for i := uint64(0); i < containers*chunksPerContainer; i++ {
		if _, ok := c.Lookup(fp.FromUint64(i)); !ok {
			misses++
			cid := fp.ContainerID(i / chunksPerContainer)
			base := uint64(cid) * chunksPerContainer
			c.Insert(cid, makeMetas(base, chunksPerContainer), nil)
		}
	}
	if misses != containers {
		t.Fatalf("misses = %d, want %d (one per container)", misses, containers)
	}
	if hr := c.HitRate(); hr < 0.98 {
		t.Fatalf("hit rate = %v, want ≥0.98", hr)
	}
}

func TestChunkDataPath(t *testing.T) {
	w := container.NewWriter(1<<16, false)
	payload := []byte("hello lpc")
	f := fp.New(payload)
	w.Add(f, uint32(len(payload)), payload)
	cont := w.Seal(5)

	c := New(2)
	c.Insert(5, cont.Meta, cont)
	got, ok := c.Chunk(f)
	if !ok || string(got) != "hello lpc" {
		t.Fatalf("Chunk = %q,%v", got, ok)
	}
	// Metadata-only insert has no data to serve.
	c2 := New(2)
	c2.Insert(5, cont.Meta, nil)
	if _, ok := c2.Chunk(f); ok {
		t.Fatal("metadata-only insert served data")
	}
	if _, ok := c2.Chunk(fp.FromUint64(404)); ok {
		t.Fatal("unknown fingerprint served data")
	}
}

func TestReinsertRefreshes(t *testing.T) {
	c := New(2)
	c.Insert(1, makeMetas(0, 2), nil)
	c.Insert(2, makeMetas(10, 2), nil)
	c.Insert(1, makeMetas(0, 2), nil) // refresh 1 → 2 becomes LRU
	c.Insert(3, makeMetas(20, 2), nil)
	if _, ok := c.Lookup(fp.FromUint64(10)); ok {
		t.Fatal("container 2 should have been evicted")
	}
	if _, ok := c.Lookup(fp.FromUint64(0)); !ok {
		t.Fatal("refreshed container 1 evicted")
	}
}

func TestEvictionClearsOnlyOwnClaims(t *testing.T) {
	// A fingerprint stored in two containers (async-update duplicate)
	// must survive eviction of the other container.
	c := New(2)
	shared := makeMetas(0, 1)
	c.Insert(1, shared, nil)
	c.Insert(2, shared, nil) // second claim overwrites membership → container 2
	c.Insert(3, makeMetas(50, 1), nil)
	// Container 1 evicted, but fingerprint 0 belongs to container 2 now.
	if id, ok := c.Lookup(fp.FromUint64(0)); !ok || id != 2 {
		t.Fatalf("shared fingerprint lost: id=%v ok=%v", id, ok)
	}
}

func TestDefaultCapacity(t *testing.T) {
	c := New(0)
	if c.cap != 16 {
		t.Fatalf("default cap = %d, want 16 (128MB/8MB)", c.cap)
	}
}

func TestString(t *testing.T) {
	c := New(4)
	c.Insert(1, makeMetas(0, 3), nil)
	s := c.String()
	if !strings.Contains(s, "containers=1/4") || !strings.Contains(s, "fps=3") {
		t.Fatalf("String = %q", s)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	c := New(64)
	for i := 0; i < 64; i++ {
		c.Insert(fp.ContainerID(i), makeMetas(uint64(i)*1000, 1000), nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(fp.FromUint64(uint64(i % 64000)))
	}
}
