package chunklog

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"debar/internal/disksim"
	"debar/internal/fp"
)

func TestAppendIterateOrder(t *testing.T) {
	l := NewMem(false, nil)
	var want []Record
	for i := uint64(0); i < 100; i++ {
		data := bytes.Repeat([]byte{byte(i)}, int(i%50)+1)
		f := fp.New(data)
		if err := l.Append(f, uint32(len(data)), data); err != nil {
			t.Fatal(err)
		}
		want = append(want, Record{FP: f, Size: uint32(len(data)), Data: data})
	}
	if l.Count() != 100 {
		t.Fatalf("Count = %d", l.Count())
	}
	i := 0
	err := l.Iterate(func(r Record) error {
		if r.FP != want[i].FP || r.Size != want[i].Size || !bytes.Equal(r.Data, want[i].Data) {
			t.Fatalf("record %d differs", i)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != 100 {
		t.Fatalf("iterated %d records", i)
	}
}

func TestAccountingMode(t *testing.T) {
	l := NewMem(true, nil)
	if err := l.Append(fp.FromUint64(1), 8192, nil); err != nil {
		t.Fatal(err)
	}
	if l.Bytes() != 8192 {
		t.Fatalf("Bytes = %d, want 8192", l.Bytes())
	}
	err := l.Iterate(func(r Record) error {
		if r.Data != nil {
			t.Fatal("accounting mode returned data")
		}
		if r.Size != 8192 {
			t.Fatalf("size = %d", r.Size)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSizeMismatchRejected(t *testing.T) {
	l := NewMem(false, nil)
	if err := l.Append(fp.FromUint64(1), 10, []byte("short")); err == nil {
		t.Fatal("mismatched size accepted")
	}
}

func TestReset(t *testing.T) {
	l := NewMem(true, nil)
	_ = l.Append(fp.FromUint64(1), 100, nil)
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.Count() != 0 || l.Bytes() != 0 {
		t.Fatal("Reset left records")
	}
}

func TestChargesIO(t *testing.T) {
	disk := disksim.NewDisk(disksim.DefaultRAID())
	l := NewMem(true, disk)
	_ = l.Append(fp.FromUint64(1), 1<<20, nil)
	w := disk.Clock.Now()
	if w == 0 {
		t.Fatal("Append charged nothing")
	}
	_ = l.Iterate(func(Record) error { return nil })
	if disk.Clock.Now() <= w {
		t.Fatal("Iterate charged nothing")
	}
}

func TestIterateErrorPropagates(t *testing.T) {
	l := NewMem(true, nil)
	_ = l.Append(fp.FromUint64(1), 1, nil)
	_ = l.Append(fp.FromUint64(2), 1, nil)
	calls := 0
	sentinel := bytes.ErrTooLarge
	err := l.Iterate(func(Record) error { calls++; return sentinel })
	if err != sentinel || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func appendN(t *testing.T, l *Log, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		data := []byte{byte(i), byte(i >> 8), 0x5A}
		if err := l.Append(fp.FromUint64(uint64(i)), uint32(len(data)), data); err != nil {
			t.Fatal(err)
		}
	}
}

// openLogs returns one log per backing mode.
func openLogs(t *testing.T) map[string]*Log {
	t.Helper()
	wl, err := OpenWAL(filepath.Join(t.TempDir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wl.Close() })
	return map[string]*Log{"mem": NewMem(false, nil), "wal": wl}
}

// TestViewSnapshotBoundary: a walk sees exactly the records appended
// before Iterate was called, even when its own callback appends more, for
// every backing mode.
func TestViewSnapshotBoundary(t *testing.T) {
	for name, l := range openLogs(t) {
		t.Run(name, func(t *testing.T) {
			appendN(t, l, 0, 40)
			var fps []fp.FP
			err := l.Iterate(func(r Record) error {
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
			if got := l.Count(); got != 65 {
				t.Fatalf("log Count = %d, want 65", got)
			}
		})
	}
}

// TestViewConcurrentReaders runs several Iterate walks at once while an
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
					errs[g] = l.Iterate(func(r Record) error {
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

func BenchmarkAppendMem(b *testing.B) {
	l := NewMem(true, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = l.Append(fp.FromUint64(uint64(i)), 8192, nil)
	}
}
