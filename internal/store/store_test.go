package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"debar/internal/chunklog"
	"debar/internal/container"
	"debar/internal/fp"
)

// testContainer builds a container with n deterministic chunks.
func testContainer(seed, n int) *container.Container {
	w := container.NewWriter(1<<20, false)
	for i := 0; i < n; i++ {
		data := make([]byte, 256+i)
		for j := range data {
			data[j] = byte(seed*31 + i + j)
		}
		if !w.Add(fp.New(data), uint32(len(data)), data) {
			panic("test container overflow")
		}
	}
	return w.Seal(0)
}

func openTestEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	e, err := Open(dir, Options{IndexBits: 8, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSegRepoRoundTripAndRotation(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenSegRepo(dir, 200<<10) // tiny segments force rotation
	if err != nil {
		t.Fatal(err)
	}
	var want []*container.Container
	for i := 0; i < 8; i++ {
		c := testContainer(i, 200) // ~60 KB each
		id, err := r.Append(c)
		if err != nil {
			t.Fatal(err)
		}
		if id != fp.ContainerID(i) {
			t.Fatalf("assigned ID %v, want %v", id, i)
		}
		want = append(want, c)
	}
	if r.Segments() < 2 {
		t.Fatalf("expected segment rotation, got %d segments", r.Segments())
	}
	check := func(r *SegRepo) {
		t.Helper()
		if got := r.Containers(); got != int64(len(want)) {
			t.Fatalf("Containers = %d, want %d", got, len(want))
		}
		for i, c := range want {
			got, err := r.Load(fp.ContainerID(i))
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Meta) != len(c.Meta) || !bytes.Equal(got.Data, c.Data) {
				t.Fatalf("container %d did not round-trip", i)
			}
			metas, err := r.LoadMeta(fp.ContainerID(i))
			if err != nil {
				t.Fatal(err)
			}
			for j, m := range metas {
				if m != c.Meta[j] {
					t.Fatalf("container %d meta %d mismatch", i, j)
				}
			}
		}
	}
	check(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the location table is rebuilt from the self-describing log.
	r2, err := OpenSegRepo(dir, 200<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	check(r2)
	// IDs continue past the recovered maximum.
	id, err := r2.Append(testContainer(99, 10))
	if err != nil {
		t.Fatal(err)
	}
	if id != fp.ContainerID(len(want)) {
		t.Fatalf("post-recovery ID %v, want %v", id, len(want))
	}
}

func TestSegRepoZeroCopyLoad(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	r, err := OpenSegRepo(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Mapped() {
		t.Fatal("repository not mapped on an mmap-capable platform")
	}
	c := testContainer(1, 50)
	id, err := r.Append(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, c.Data) {
		t.Fatal("mapped load mismatch")
	}
	// A second load must alias the same mapped backing array (zero copy).
	again, err := r.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Data) > 0 && &got.Data[0] != &again.Data[0] {
		t.Fatal("Load copied data instead of aliasing the mapping")
	}
}

// TestSegRepoTornTailRecovered: recovery keeps exactly the complete
// containers in front of a damaged tail — a record torn mid-image, or
// zeros past the last record (a crash can leave the file size on disk
// ahead of its data) — and the next append lands at the logical end.
func TestSegRepoTornTailRecovered(t *testing.T) {
	const n = 3
	cases := []struct {
		name   string
		damage func(t *testing.T, path string, size int64)
		keep   int
	}{
		{"torn", func(t *testing.T, path string, size int64) {
			// A crash during the last container's WriteAt.
			if err := os.Truncate(path, size-100); err != nil {
				t.Fatal(err)
			}
		}, n - 1},
		{"zero-tail", func(t *testing.T, path string, size int64) {
			f, err := os.OpenFile(path, os.O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt(make([]byte, 64<<10), size); err != nil {
				t.Fatal(err)
			}
		}, n},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r, err := OpenSegRepo(dir, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			var want []*container.Container
			for i := 0; i < n; i++ {
				c := testContainer(i, 50)
				if _, err := r.Append(c); err != nil {
					t.Fatal(err)
				}
				want = append(want, c)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			path := segPath(dir, 0)
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(t, path, st.Size())

			r2, err := OpenSegRepo(dir, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			defer r2.Close()
			if got := r2.Containers(); got != int64(tc.keep) {
				t.Fatalf("recovered %d containers, want %d", got, tc.keep)
			}
			// frameLen re-derives a stored container's on-disk frame size.
			frameLen := func(id fp.ContainerID) int64 {
				got, err := r2.Load(id)
				if err != nil {
					t.Fatalf("container %v unreadable: %v", id, err)
				}
				return segFrameHdr + int64(len(got.Marshal()))
			}
			var end int64
			for i := 0; i < tc.keep; i++ {
				got, err := r2.Load(fp.ContainerID(i))
				if err != nil || !bytes.Equal(got.Data, want[i].Data) {
					t.Fatalf("surviving container %d did not round-trip: %v", i, err)
				}
				end += frameLen(fp.ContainerID(i))
			}
			// The first lost ID (or the next fresh one) goes to the next
			// append, which lands at the logical end.
			id, err := r2.Append(testContainer(9, 10))
			if err != nil {
				t.Fatal(err)
			}
			if id != fp.ContainerID(tc.keep) {
				t.Fatalf("post-recovery ID %v, want %v", id, tc.keep)
			}
			if st, err := os.Stat(path); err != nil {
				t.Fatal(err)
			} else if want := end + frameLen(id); st.Size() != want {
				t.Fatalf("segment size %d after post-recovery append, want %d", st.Size(), want)
			}
		})
	}
}

func TestSegRepoCorruptRecordDetected(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenSegRepo(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := r.Append(testContainer(i, 50)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte inside the second record: the last-segment
	// scan must reject it by checksum and recover only the first.
	f, err := os.OpenFile(segPath(dir, 0), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := f.Stat()
	if _, err := f.WriteAt([]byte{0xAA}, st.Size()-37); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r2, err := OpenSegRepo(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.Containers(); got != 1 {
		t.Fatalf("recovered %d containers after corruption, want 1", got)
	}
}

// TestSegRepoAppendFramePinned pins the segment frame Append writes:
// magic | len | crc32c(img) | img, with img the Marshal image of the
// container under its assigned ID, and store_container_append_bytes_total
// grows by exactly the frame length. A metaOnly (nil Data) container is
// framed the same way.
func TestSegRepoAppendFramePinned(t *testing.T) {
	r, err := OpenSegRepo(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	metaOnly := container.NewWriter(1<<20, true)
	for i := 0; i < 5; i++ {
		metaOnly.Add(fp.FromUint64(uint64(i)), 4096, nil)
	}
	for _, c := range []*container.Container{testContainer(1, 50), metaOnly.Seal(0), testContainer(2, 300)} {
		before := mRepoAppendBytes.Value()
		id, err := r.Append(c)
		if err != nil {
			t.Fatal(err)
		}
		img := (&container.Container{ID: id, Meta: c.Meta, Data: c.Data}).Marshal()
		want := binary.BigEndian.AppendUint32(nil, segFrameMagic)
		want = binary.BigEndian.AppendUint32(want, uint32(len(img)))
		want = binary.BigEndian.AppendUint32(want, crc32.Checksum(img, crc32.MakeTable(crc32.Castagnoli)))
		want = append(want, img...)

		seg, loc, err := r.locate(id)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		if _, err := seg.f.ReadAt(got, loc.off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("container %v: segment frame differs from magic|len|crc32c(img)|img", id)
		}
		if n := mRepoAppendBytes.Value() - before; n != int64(len(want)) {
			t.Fatalf("container %v: append bytes grew by %d, want the frame length %d", id, n, len(want))
		}
	}
}

func TestEngineReopenKeepsIndex(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir)
	c := testContainer(3, 100)
	id, err := e.Repo().Append(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range c.Meta {
		if err := e.Index().Insert(fp.Entry{FP: m.FP, CID: id}); err != nil {
			t.Fatal(err)
		}
	}
	count := e.Index().Count()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openTestEngine(t, dir)
	defer e2.Close()
	if e2.IndexRebuilt() {
		t.Fatal("cleanly closed engine rebuilt its index")
	}
	if got := e2.Index().Count(); got != count {
		t.Fatalf("restored count %d, want %d", got, count)
	}
	for _, m := range c.Meta {
		cid, err := e2.Index().Lookup(m.FP)
		if err != nil {
			t.Fatalf("lookup after reopen: %v", err)
		}
		if cid != id {
			t.Fatalf("lookup → %v, want %v", cid, id)
		}
	}
}

func TestEngineRebuildsIndexWhenMissing(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir)
	c := testContainer(5, 120)
	id, err := e.Repo().Append(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, indexName)); err != nil {
		t.Fatal(err)
	}

	e2 := openTestEngine(t, dir)
	defer e2.Close()
	if !e2.IndexRebuilt() {
		t.Fatal("deleted index file did not trigger a rebuild")
	}
	for _, m := range c.Meta {
		cid, err := e2.Index().Lookup(m.FP)
		if err != nil {
			t.Fatalf("lookup after rebuild: %v", err)
		}
		if cid != id {
			t.Fatalf("rebuilt lookup → %v, want %v", cid, id)
		}
	}
}

func TestEngineRebuildsIndexWithoutMarker(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir)
	c := testContainer(6, 80)
	id, err := e.Repo().Append(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range c.Meta {
		if err := e.Index().Insert(fp.Entry{FP: m.FP, CID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid index write: the marker is gone (any write
	// after a checkpoint removes it) and the file may be torn.
	if err := os.Remove(filepath.Join(dir, markerName)); err != nil {
		t.Fatal(err)
	}

	e2 := openTestEngine(t, dir)
	defer e2.Close()
	if !e2.IndexRebuilt() {
		t.Fatal("missing clean marker did not trigger a rebuild")
	}
	for _, m := range c.Meta {
		if _, err := e2.Index().Lookup(m.FP); err != nil {
			t.Fatalf("lookup after marker-loss rebuild: %v", err)
		}
	}
}

func TestEngineWALPendingRecovered(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir)
	data := []byte("undetermined chunk payload")
	f := fp.New(data)
	if err := e.ChunkLog().Append(f, uint32(len(data)), data); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openTestEngine(t, dir)
	defer e2.Close()
	fps := e2.ChunkLog().Pending()
	if len(fps) != 1 || fps[0] != f {
		t.Fatalf("ChunkLog().Pending() = %v, want [%v]", fps, f)
	}
	// The chunk payload survives for dedup-2's chunk-storing pass.
	n := 0
	err := e2.ChunkLog().Iterate(func(r chunklog.Record) error {
		if r.FP != f || !bytes.Equal(r.Data, data) {
			t.Fatal("WAL record mismatch after reopen")
		}
		n++
		return nil
	})
	if err != nil || n != 1 {
		t.Fatalf("iterate after reopen: n=%d err=%v", n, err)
	}
}

func TestEngineGeometryConflictRejected(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir) // IndexBits 8
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{IndexBits: 10}); err == nil {
		t.Fatal("conflicting index geometry accepted")
	}
	// Default (unspecified) geometry adopts the manifest's.
	e2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := e2.Index().Config().BucketBits; got != 8 {
		t.Fatalf("manifest geometry not adopted: bits = %d", got)
	}
}

func TestSegRepoConcurrentReadsDuringAppends(t *testing.T) {
	r, err := OpenSegRepo(t.TempDir(), 200<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	first := testContainer(0, 100)
	if _, err := r.Append(first); err != nil {
		t.Fatal(err)
	}
	// Hold a zero-copy view of container 0 across segment rotations: it
	// must stay valid (the sealed segment's mapping is never replaced).
	held, err := r.Load(0)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := fp.ContainerID(r.Containers())
				c, err := r.Load(fp.ContainerID(i) % n)
				if err != nil {
					t.Error(err)
					return
				}
				if len(c.Meta) == 0 {
					t.Error("empty container loaded")
					return
				}
			}
		}(g)
	}
	for i := 1; i < 12; i++ { // rotates several times at 200 KB segments
		if _, err := r.Append(testContainer(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if !bytes.Equal(held.Data, first.Data) {
		t.Fatal("zero-copy view of a sealed segment went stale after rotation")
	}
}

// TestEngineGroupCommitRoundTrip: the engine group-commits — appends
// stage, Checkpoint is the durability barrier — and everything
// checkpointed must survive a reopen.
func TestEngineGroupCommitRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir)

	c := testContainer(7, 100)
	id, err := e.Repo().Append(c)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("pending chunk under group commit")
	f := fp.New(data)
	if err := e.ChunkLog().Append(f, uint32(len(data)), data); err != nil {
		t.Fatal(err)
	}
	// The covering window's sync is the durability edge for the WAL.
	if err := e.WALTicket(int64(len(data))).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openTestEngine(t, dir)
	defer e2.Close()
	got, err := e2.Repo().Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, c.Data) {
		t.Fatal("container did not survive group-committed reopen")
	}
	fps := e2.ChunkLog().Pending()
	if len(fps) != 1 || fps[0] != f {
		t.Fatalf("ChunkLog().Pending() = %v, want [%v]", fps, f)
	}
}

func TestEngineDataDirLocked(t *testing.T) {
	if !mmapSupported {
		t.Skip("no advisory locking on this platform")
	}
	dir := t.TempDir()
	e := openTestEngine(t, dir)
	defer e.Close()
	if _, err := Open(dir, Options{IndexBits: 8}); err == nil {
		t.Fatal("second engine over a live data dir was not rejected")
	}
}

// TestEngineLegacyWAL: a data directory written before the WAL was
// segmented holds chunklog.wal. Empty — a caught-up pass truncated it —
// the file is removed and the engine opens; holding records (the golden
// format-1 WAL) it is refused with a *chunklog.VersionError naming both
// versions and left byte for byte.
func TestEngineLegacyWAL(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, chunklog.LegacyName)
	if err := os.WriteFile(legacy, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	e := openTestEngine(t, dir)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(legacy); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("empty legacy WAL kept: %v", err)
	}

	golden, err := os.ReadFile(filepath.Join("..", "chunklog", "testdata", "v1.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacy, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	var ve *chunklog.VersionError
	if e, err := Open(dir, Options{IndexBits: 8, SegmentBytes: 1 << 20}); !errors.As(err, &ve) || *ve != (chunklog.VersionError{Found: 1, Want: 2}) {
		if err == nil {
			e.Close()
		}
		t.Fatalf("Open over a format-1 WAL = %v, want *chunklog.VersionError{1, 2}", err)
	}
	if got, err := os.ReadFile(legacy); err != nil || !bytes.Equal(got, golden) {
		t.Fatalf("refused WAL changed (%d -> %d bytes, err %v)", len(golden), len(got), err)
	}
	// The refusal released the data directory: a fixed-up dir opens.
	if err := os.Remove(legacy); err != nil {
		t.Fatal(err)
	}
	openTestEngine(t, dir).Close()
}
