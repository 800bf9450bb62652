package container

import (
	"bytes"
	"testing"
	"testing/quick"

	"debar/internal/disksim"
	"debar/internal/fp"
)

func chunkOf(seed uint64, size int) (fp.FP, []byte) {
	data := bytes.Repeat([]byte{byte(seed)}, size)
	return fp.New(data), data
}

func TestWriterFillSeal(t *testing.T) {
	w := NewWriter(4096, false)
	var fps []fp.FP
	for i := uint64(0); ; i++ {
		f, data := chunkOf(i, 256)
		if !w.Add(f, 256, data) {
			break
		}
		fps = append(fps, f)
	}
	if w.Empty() || w.Len() != len(fps) {
		t.Fatalf("writer staged %d, tracked %d", w.Len(), len(fps))
	}
	c := w.Seal(7)
	if c.ID != 7 || len(c.Meta) != len(fps) {
		t.Fatalf("sealed container: id=%v metas=%d", c.ID, len(c.Meta))
	}
	if !w.Empty() {
		t.Fatal("writer not reset after Seal")
	}
	for i, f := range fps {
		got, ok := c.Chunk(f)
		if !ok {
			t.Fatalf("chunk %d missing", i)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 256)) {
			t.Fatalf("chunk %d payload wrong", i)
		}
	}
}

func TestWriterSISLPreservesStreamOrder(t *testing.T) {
	// SISL: chunks must appear in the container in stream order (§3.4).
	w := NewWriter(1<<20, false)
	var order []fp.FP
	for i := uint64(0); i < 50; i++ {
		f, data := chunkOf(i, 100)
		w.Add(f, 100, data)
		order = append(order, f)
	}
	c := w.Seal(0)
	for i, m := range c.Meta {
		if m.FP != order[i] {
			t.Fatalf("meta %d out of stream order", i)
		}
		if i > 0 && m.Offset <= c.Meta[i-1].Offset {
			t.Fatalf("offsets not increasing at %d", i)
		}
	}
}

func TestWriterRejectsOversized(t *testing.T) {
	w := NewWriter(1024, false)
	f, data := chunkOf(1, 2048)
	if w.Add(f, 2048, data) {
		t.Fatal("oversized chunk accepted")
	}
}

func TestWriterSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	w := NewWriter(4096, false)
	w.Add(fp.FromUint64(1), 100, []byte("short"))
}

func TestMetaOnlyWriter(t *testing.T) {
	w := NewWriter(4096, true)
	f := fp.FromUint64(9)
	if !w.Add(f, 512, nil) {
		t.Fatal("metaOnly Add failed")
	}
	c := w.Seal(1)
	if c.Data != nil {
		t.Fatal("metaOnly container retained data")
	}
	if c.DataBytes() != 512 {
		t.Fatalf("DataBytes = %d, want 512", c.DataBytes())
	}
	got, ok := c.Chunk(f)
	if !ok || len(got) != 512 {
		t.Fatalf("synthesised chunk: ok=%v len=%d", ok, len(got))
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	w := NewWriter(1<<16, false)
	for i := uint64(0); i < 20; i++ {
		f, data := chunkOf(i, 128+int(i))
		w.Add(f, uint32(128+int(i)), data)
	}
	c := w.Seal(123456)
	got, err := Unmarshal(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != c.ID || len(got.Meta) != len(c.Meta) {
		t.Fatalf("round trip: id=%v metas=%d", got.ID, len(got.Meta))
	}
	for i := range c.Meta {
		if got.Meta[i] != c.Meta[i] {
			t.Fatalf("meta %d differs", i)
		}
	}
	if !bytes.Equal(got.Data, c.Data) {
		t.Fatal("data differs")
	}
}

// TestMarshalHeadPrefixesImage: MarshalHead is exactly the image Marshal
// writes in front of the data section, with and without payloads.
func TestMarshalHeadPrefixesImage(t *testing.T) {
	for _, metaOnly := range []bool{false, true} {
		w := NewWriter(1<<16, metaOnly)
		for i := uint64(0); i < 10; i++ {
			f, data := chunkOf(i, 100+int(i))
			if metaOnly {
				data = nil
			}
			w.Add(f, uint32(100+i), data)
		}
		c := w.Seal(42)
		if got := append(c.MarshalHead(), c.Data...); !bytes.Equal(got, c.Marshal()) {
			t.Fatalf("metaOnly=%v: MarshalHead+Data differs from Marshal", metaOnly)
		}
	}
}

// TestWriterSizesDataOnce: the data section is allocated at the container
// size on the first Add and filled in place, never regrown.
func TestWriterSizesDataOnce(t *testing.T) {
	const size = 1 << 16
	w := NewWriter(size, false)
	var first *byte
	for i := uint64(0); ; i++ {
		f, data := chunkOf(i, 1000)
		if !w.Add(f, 1000, data) {
			break
		}
		if first == nil {
			first = &w.data[0]
		} else if &w.data[0] != first {
			t.Fatalf("data section moved after %d chunks", i)
		}
	}
	if c := w.Seal(0); cap(c.Data) != size-headerSize {
		t.Fatalf("data section capacity %d, want %d", cap(c.Data), size-headerSize)
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	if _, err := Unmarshal([]byte("xx")); err == nil {
		t.Error("short buffer accepted")
	}
	w := NewWriter(4096, false)
	f, data := chunkOf(1, 64)
	w.Add(f, 64, data)
	img := w.Seal(0).Marshal()
	img[0] ^= 0xFF
	if _, err := Unmarshal(img); err == nil {
		t.Error("bad magic accepted")
	}
	img[0] ^= 0xFF
	if _, err := Unmarshal(img[:len(img)-10]); err == nil {
		t.Error("truncated image accepted")
	}
}

func TestMarshalRoundTripQuick(t *testing.T) {
	err := quick.Check(func(seeds []uint64) bool {
		w := NewWriter(1<<20, false)
		for _, s := range seeds {
			size := int(s%1000) + 1
			f, data := chunkOf(s, size)
			if !w.Add(f, uint32(size), data) {
				break
			}
		}
		c := w.Seal(fp.ContainerID(len(seeds)))
		got, err := Unmarshal(c.Marshal())
		if err != nil || got.ID != c.ID || len(got.Meta) != len(c.Meta) {
			return false
		}
		return bytes.Equal(got.Data, c.Data)
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMemRepository(t *testing.T) {
	repo := NewMemRepository(false, nil)
	w := NewWriter(4096, false)
	f, data := chunkOf(3, 777)
	w.Add(f, 777, data)
	id, err := repo.Append(w.Seal(0))
	if err != nil {
		t.Fatal(err)
	}
	c, err := repo.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c.Chunk(f)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("loaded chunk differs")
	}
	if repo.Containers() != 1 || repo.Bytes() != 777 {
		t.Fatalf("containers=%d bytes=%d", repo.Containers(), repo.Bytes())
	}
	if _, err := repo.Load(99); err == nil {
		t.Fatal("Load of unknown ID succeeded")
	}
}

func TestMemRepositorySequentialIDs(t *testing.T) {
	repo := NewMemRepository(true, nil)
	for i := 0; i < 5; i++ {
		w := NewWriter(4096, true)
		w.Add(fp.FromUint64(uint64(i)), 100, nil)
		id, err := repo.Append(w.Seal(0))
		if err != nil {
			t.Fatal(err)
		}
		if id != fp.ContainerID(i) {
			t.Fatalf("ID %v, want %d", id, i)
		}
	}
}

func TestRepositoryChargesIO(t *testing.T) {
	disk := disksim.NewDisk(disksim.DefaultRAID())
	repo := NewMemRepository(true, disk)
	w := NewWriter(4096, true)
	w.Add(fp.FromUint64(1), 1000, nil)
	id, _ := repo.Append(w.Seal(0))
	if disk.Clock.Now() == 0 {
		t.Fatal("Append charged nothing")
	}
	before := disk.Clock.Now()
	_, _ = repo.Load(id)
	if disk.Clock.Now() <= before {
		t.Fatal("Load charged nothing")
	}
}

func TestClusterRepositoryStripes(t *testing.T) {
	cr, err := NewClusterRepository(4, true, disksim.DiskModel{})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]fp.ContainerID, 8)
	for i := range ids {
		w := NewWriter(4096, true)
		w.Add(fp.FromUint64(uint64(i)), 100, nil)
		ids[i], err = cr.Append(w.Seal(0))
		if err != nil {
			t.Fatal(err)
		}
	}
	// Round-robin: containers i and i+4 share a node; consecutive differ.
	counts := map[int]int{}
	for _, id := range ids {
		n, ok := cr.NodeOf(id)
		if !ok {
			t.Fatalf("NodeOf(%v) unknown", id)
		}
		counts[n]++
	}
	for n, c := range counts {
		if c != 2 {
			t.Fatalf("node %d holds %d containers, want 2", n, c)
		}
	}
	if cr.Containers() != 8 {
		t.Fatalf("Containers = %d", cr.Containers())
	}
	for i, id := range ids {
		c, err := cr.Load(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Chunk(fp.FromUint64(uint64(i))); !ok {
			t.Fatalf("container %v lost its chunk", id)
		}
	}
}

func TestClusterRepositoryValidation(t *testing.T) {
	if _, err := NewClusterRepository(0, true, disksim.DiskModel{}); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestDefaultSizeHoldsExpectedChunks(t *testing.T) {
	// Paper §3.4: "for an expected chunk size of 8KB, there are about
	// 1024 chunks in a container."
	w := NewWriter(DefaultSize, true)
	n := 0
	for w.Add(fp.FromUint64(uint64(n)), 8192, nil) {
		n++
	}
	if n < 1000 || n > 1048 {
		t.Fatalf("8MB container holds %d 8KB chunks, want ≈1024", n)
	}
}

func BenchmarkWriterAdd(b *testing.B) {
	data := make([]byte, 8192)
	w := NewWriter(DefaultSize, false)
	b.SetBytes(8192)
	for i := 0; i < b.N; i++ {
		if !w.Add(fp.FromUint64(uint64(i)), 8192, data) {
			w.Seal(fp.ContainerID(i))
			w.Add(fp.FromUint64(uint64(i)), 8192, data)
		}
	}
}

func BenchmarkMarshal(b *testing.B) {
	w := NewWriter(DefaultSize, false)
	data := make([]byte, 8192)
	for w.Add(fp.FromUint64(uint64(w.Len())), 8192, data) {
	}
	c := w.Seal(0)
	b.SetBytes(int64(len(c.Marshal())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Marshal()
	}
}
