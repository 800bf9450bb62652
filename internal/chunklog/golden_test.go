package chunklog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"debar/internal/fp"
	"debar/internal/seglog"
)

// goldenSegBytes is the segment capacity of the golden WAL: small enough
// that the golden batches cross two rotations.
const goldenSegBytes = 4 << 10

// goldenChunk returns chunk i of the golden input: 100 to 1099 bytes of
// a fixed byte pattern, distinct for every i.
func goldenChunk(i int) []byte {
	b := make([]byte, 100+(i*337)%1000)
	x := uint32(i)*2654435761 + 1
	for j := range b {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		b[j] = byte(x)
	}
	return b
}

// goldenBatches is the golden input, as chunk numbers per batch. Batch 1
// repeats chunk 2 within itself; batch 2 repeats chunks 0 and 4 of batch
// 0 and straddles the first rotation; batch 3 is one chunk larger than a
// segment, which gets a segment of its own.
var goldenBatches = [][]int{
	{0, 1, 2, 3},
	{4, 5, 2, 6, 2},
	{7, 0, 8, 9, 4, 10, 11},
	{-1},
	{12, 13},
}

// goldenData returns the chunks of batch b: chunk -1 is 5000 bytes.
func goldenData(b []int) [][]byte {
	var data [][]byte
	for _, i := range b {
		if i < 0 {
			c := make([]byte, 5000)
			for j := range c {
				c[j] = byte(j * 7)
			}
			data = append(data, c)
			continue
		}
		data = append(data, goldenChunk(i))
	}
	return data
}

// TestWALGolden: the batched append path writes the WAL byte for byte as
// the per-record path it replaced did. testdata/golden-wal holds the
// segments that path wrote for goldenBatches, one AppendNew per chunk,
// under goldenSegBytes; here each batch is one AppendNewBatch.
func TestWALGolden(t *testing.T) {
	dir := t.TempDir()
	l, err := openWAL(dir, goldenSegBytes)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range goldenBatches {
		data := goldenData(b)
		fps := make([]fp.FP, len(data))
		for i, d := range data {
			fps[i] = fp.New(d)
		}
		if _, err := l.AppendNewBatch(fps, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden-wal")
	want, got := segmentNames(t, golden), segmentNames(t, dir)
	if !slices.Equal(got, want) {
		t.Fatalf("batched WAL files %v, golden %v", got, want)
	}
	for _, name := range want {
		w, err := os.ReadFile(filepath.Join(golden, name))
		if err != nil {
			t.Fatal(err)
		}
		g, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s: batched WAL (%d bytes) differs from golden (%d bytes)", name, len(g), len(w))
		}
	}
}

// segmentNames returns the sorted names of the WAL segments in dir.
func segmentNames(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no wal segment in %s (%v)", dir, err)
	}
	for i, p := range paths {
		paths[i] = filepath.Base(p)
	}
	return paths
}

// TestAppendNewBatchFailedRotation: a batch whose records straddle a
// rotation that fails is written up to the rotation. The log then holds,
// and Logged reports, exactly the records before it; the same batch
// offered again logs the rest, and a reopen recovers every record.
func TestAppendNewBatchFailedRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := openWAL(dir, goldenSegBytes)
	if err != nil {
		t.Fatal(err)
	}
	var fps []fp.FP
	var data [][]byte
	for i := range 10 {
		d := bytes.Repeat([]byte{byte(i), 0x5A}, 500)
		fps, data = append(fps, fp.New(d)), append(data, d)
	}
	const fit = 3 // records of 1 028 bytes in a segment of 4 KiB after its header
	failed := errors.New("rotation failed")
	l.SetFaults(seglog.Faults{Step: func(step string) error {
		if step == "sealed" {
			return failed
		}
		return nil
	}})
	n, err := l.AppendNewBatch(fps, data)
	if !errors.Is(err, failed) || n != fit {
		t.Fatalf("AppendNewBatch across a failing rotation = %d records, %v; want %d, %v", n, err, fit, failed)
	}
	for i, held := range l.Logged(fps) {
		if held != (i < fit) {
			t.Fatalf("after the failed write, Logged(record %d) = %v, want %v", i, held, i < fit)
		}
	}
	if c := l.Count(); c != fit {
		t.Fatalf("log holds %d records after the failed write, want %d", c, fit)
	}
	l.SetFaults(seglog.Faults{})
	if n, err := l.AppendNewBatch(fps, data); err != nil || n != len(fps)-fit {
		t.Fatalf("offering the batch again logged %d records (%v), want the %d left out", n, err, len(fps)-fit)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = openWAL(dir, goldenSegBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.Pending(); !slices.Equal(got, fps) {
		t.Fatalf("reopen recovered %d records, want the batch's %d in order", len(got), len(fps))
	}
}
