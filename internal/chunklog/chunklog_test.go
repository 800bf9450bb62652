package chunklog

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"debar/internal/fp"
)

// chunkLog is what Log and Mem share: appends, and walks that see the
// records appended before them.
type chunkLog interface {
	Append(f fp.FP, size uint32, data []byte) error
	Select(keep func(fp.FP, uint32) bool, fn func(Record) error) error
}

// walkCount returns how many records a walk of l sees.
func walkCount(t *testing.T, l chunkLog) int {
	t.Helper()
	n := 0
	if err := l.Select(nil, func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

func appendN(t *testing.T, l chunkLog, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		data := []byte{byte(i), byte(i >> 8), 0x5A}
		if err := l.Append(fp.FromUint64(uint64(i)), uint32(len(data)), data); err != nil {
			t.Fatal(err)
		}
	}
}

// openLogs returns a Mem and a WAL.
func openLogs(t *testing.T) map[string]chunkLog {
	t.Helper()
	return map[string]chunkLog{"mem": NewMem(false, nil), "wal": tempWAL(t)}
}

// tempWAL opens a WAL in a temporary directory, closed at test end.
func tempWAL(t *testing.T) *Log {
	t.Helper()
	l, err := OpenWAL(filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestViewSnapshotBoundary: a walk sees exactly the records appended
// before it began, even when its own callback appends more, in a Mem and
// in a WAL.
func TestViewSnapshotBoundary(t *testing.T) {
	for name, l := range openLogs(t) {
		t.Run(name, func(t *testing.T) {
			appendN(t, l, 0, 40)
			var fps []fp.FP
			err := l.Select(nil, func(r Record) error {
				if len(fps) == 0 {
					appendN(t, l, 40, 25) // past the walk's bound: invisible
				}
				if len(r.Data) != int(r.Size) {
					t.Fatalf("record %v: %d data bytes, declared %d", r.FP.Short(), len(r.Data), r.Size)
				}
				fps = append(fps, r.FP)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(fps) != 40 {
				t.Fatalf("walk sees %d records, want 40", len(fps))
			}
			for i, f := range fps {
				if f != fp.FromUint64(uint64(i)) {
					t.Fatalf("record %d out of order", i)
				}
			}
			if got := walkCount(t, l); got != 65 {
				t.Fatalf("log holds %d records, want 65", got)
			}
		})
	}
}

// TestViewConcurrentReaders runs several walks at once while an
// appender keeps writing, under the race detector: every walk sees an
// in-order prefix of the log that holds at least the records appended
// before the walks started.
func TestViewConcurrentReaders(t *testing.T) {
	for name, l := range openLogs(t) {
		t.Run(name, func(t *testing.T) {
			appendN(t, l, 0, 200)
			var wg sync.WaitGroup
			counts := make([]int, 4)
			errs := make([]error, 4)
			for g := range counts {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					errs[g] = l.Select(nil, func(r Record) error {
						if r.FP != fp.FromUint64(uint64(counts[g])) {
							return fmt.Errorf("record %d out of order", counts[g])
						}
						counts[g]++
						return nil
					})
				}(g)
			}
			var appendErr error
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 200; i < 300 && appendErr == nil; i++ {
					data := []byte{byte(i), byte(i >> 8), 0x5A}
					appendErr = l.Append(fp.FromUint64(uint64(i)), uint32(len(data)), data)
				}
			}()
			wg.Wait()
			if appendErr != nil {
				t.Fatal(appendErr)
			}
			for g, c := range counts {
				if errs[g] != nil {
					t.Fatalf("reader %d: %v", g, errs[g])
				}
				if c < 200 || c > 300 {
					t.Fatalf("reader %d saw %d records, want 200..300", g, c)
				}
			}
		})
	}
}
