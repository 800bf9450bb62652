package chunklog

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"debar/internal/fp"
)

// FuzzWALSegment opens a WAL whose last segment is arbitrary bytes,
// header included: the open either fails cleanly or recovers a prefix of
// records, and never panics. A recovered prefix walks back to exactly the
// records it replayed, checksums and all, and a second open of the
// recovered WAL replays the same records.
func FuzzWALSegment(f *testing.F) {
	dir := f.TempDir()
	l, err := openWAL(dir, segmentBytes)
	if err != nil {
		f.Fatal(err)
	}
	for i := range 4 {
		fpr, data := fixedRecord(i)
		if err := l.Append(fpr, uint32(len(data)), data); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-7])
	f.Add(valid[:segHeaderSize])
	f.Add(valid[:9])
	f.Add([]byte{})
	stale := slices.Clone(valid)
	stale[15]++ // the header names another sequence number: a spare
	f.Add(stale)

	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenWAL(dir)
		if err != nil {
			return
		}
		got := l.Pending()
		var walked []fp.FP
		if err := l.Iterate(func(r Record) error {
			walked = append(walked, r.FP)
			return nil
		}); err != nil {
			t.Fatalf("walk of a recovered WAL: %v", err)
		}
		if !slices.Equal(walked, got) {
			t.Fatalf("walk saw %d records, open replayed %d", len(walked), len(got))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := OpenWAL(dir)
		if err != nil {
			t.Fatalf("second open of a recovered WAL: %v", err)
		}
		defer l2.Close()
		if again := l2.Pending(); !slices.Equal(again, got) {
			t.Fatalf("second open replayed %d records, the first %d", len(again), len(got))
		}
	})
}
