package chunklog

import (
	"path/filepath"
	"sync"
	"testing"

	"debar/internal/fp"
)

func appendN(t *testing.T, l *Log, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		data := []byte{byte(i), byte(i >> 8), 0x5A}
		if err := l.Append(fp.FromUint64(uint64(i)), uint32(len(data)), data); err != nil {
			t.Fatal(err)
		}
	}
}

func viewFPs(t *testing.T, v *View) []fp.FP {
	t.Helper()
	var fps []fp.FP
	if err := v.Iterate(func(r Record) error {
		if len(r.Data) != int(r.Size) {
			t.Fatalf("record %v: %d data bytes, declared %d", r.FP.Short(), len(r.Data), r.Size)
		}
		fps = append(fps, r.FP)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return fps
}

// TestViewSnapshotBoundary: a view sees exactly the records appended before
// it was taken, for every backing mode.
func TestViewSnapshotBoundary(t *testing.T) {
	wl, _, err := OpenWAL(filepath.Join(t.TempDir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer wl.Close()
	logs := map[string]*Log{
		"mem": NewMem(false, nil),
		"wal": wl,
	}

	for name, l := range logs {
		t.Run(name, func(t *testing.T) {
			appendN(t, l, 0, 40)
			v := l.View()
			appendN(t, l, 40, 25) // behind the snapshot: invisible
			fps := viewFPs(t, v)
			if len(fps) != 40 {
				t.Fatalf("view sees %d records, want 40", len(fps))
			}
			for i, f := range fps {
				if f != fp.FromUint64(uint64(i)) {
					t.Fatalf("record %d out of order", i)
				}
			}
			if n, err := v.Len(); err != nil || n != 40 {
				t.Fatalf("view Len = %d, %v", n, err)
			}
			if got := l.Count(); got != 65 {
				t.Fatalf("log Count = %d, want 65", got)
			}
		})
	}
}

// TestViewConcurrentReaders iterates one snapshot from several goroutines
// while an appender keeps writing — the parallel dedup-2 access pattern —
// under the race detector.
func TestViewConcurrentReaders(t *testing.T) {
	for _, mode := range []string{"mem", "wal"} {
		t.Run(mode, func(t *testing.T) {
			var l *Log
			if mode == "mem" {
				l = NewMem(false, nil)
			} else {
				var err error
				l, _, err = OpenWAL(filepath.Join(t.TempDir(), "wal.log"))
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
			}
			appendN(t, l, 0, 200)
			v := l.View()
			var wg sync.WaitGroup
			counts := make([]int, 4)
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					_ = v.Iterate(func(Record) error { counts[g]++; return nil })
				}(g)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				appendN(t, l, 200, 100)
			}()
			wg.Wait()
			for g, c := range counts {
				if c != 200 {
					t.Fatalf("reader %d saw %d records, want 200", g, c)
				}
			}
		})
	}
}

// TestViewSurvivesReset: a memory view taken before Reset still replays its
// snapshot (the parallel pass owns its views; Reset only happens after, but
// the slice snapshot must never alias freed state).
func TestViewSurvivesReset(t *testing.T) {
	l := NewMem(false, nil)
	appendN(t, l, 0, 10)
	v := l.View()
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if fps := viewFPs(t, v); len(fps) != 10 {
		t.Fatalf("view after Reset sees %d records, want 10", len(fps))
	}
}
