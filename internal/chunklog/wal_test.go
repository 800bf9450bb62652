package chunklog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"debar/internal/fp"
	"debar/internal/obs"
)

func walRecord(i int) (fp.FP, []byte) {
	data := make([]byte, 64+i)
	for j := range data {
		data[j] = byte(i + j)
	}
	return fp.New(data), data
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chunklog.wal")
	l, fps, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != 0 {
		t.Fatalf("fresh WAL recovered %d fps", len(fps))
	}
	const n = 10
	for i := 0; i < n; i++ {
		f, data := walRecord(i)
		if err := l.Append(f, uint32(len(data)), data); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Count(); got != n {
		t.Fatalf("Count = %d, want %d", got, n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, fps, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(fps) != n {
		t.Fatalf("recovered %d fps, want %d", len(fps), n)
	}
	i := 0
	err = l2.Iterate(func(r Record) error {
		f, data := walRecord(i)
		if r.FP != f || string(r.Data) != string(data) {
			t.Fatalf("record %d mismatch", i)
		}
		if fps[i] != f {
			t.Fatalf("recovered fp %d mismatch", i)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("iterated %d records, want %d", i, n)
	}
}

// TestWALTornTailTruncated: recovery keeps exactly the complete records
// in front of a damaged tail — a record torn mid-write, or zeros past the
// last record (a crash can leave the file size on disk ahead of its data)
// — and the next append lands at the logical end.
func TestWALTornTailTruncated(t *testing.T) {
	const n = 5
	cases := []struct {
		name   string
		damage func(t *testing.T, path string, size int64)
		keep   int
	}{
		{"torn", func(t *testing.T, path string, size int64) {
			// Drop the last record's final 10 bytes.
			if err := os.Truncate(path, size-10); err != nil {
				t.Fatal(err)
			}
		}, n - 1},
		{"zero-tail", func(t *testing.T, path string, size int64) {
			f, err := os.OpenFile(path, os.O_RDWR, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt(make([]byte, 4096), size); err != nil {
				t.Fatal(err)
			}
		}, n},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "chunklog.wal")
			l, _, err := OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				f, data := walRecord(i)
				if err := l.Append(f, uint32(len(data)), data); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(t, path, st.Size())

			l2, fps, err := OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(fps) != tc.keep {
				t.Fatalf("recovered %d fps, want %d", len(fps), tc.keep)
			}
			var end int64
			for i, got := range fps {
				want, data := walRecord(i)
				if got != want {
					t.Fatalf("recovered fp %d mismatch", i)
				}
				end += walHeader + int64(len(data))
			}
			if got := l2.Count(); got != int64(tc.keep) {
				t.Fatalf("Count = %d, want %d", got, tc.keep)
			}
			// The log must append cleanly after recovery, at the logical end.
			f, data := walRecord(99)
			if err := l2.Append(f, uint32(len(data)), data); err != nil {
				t.Fatal(err)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			if st, err := os.Stat(path); err != nil {
				t.Fatal(err)
			} else if want := end + walHeader + int64(len(data)); st.Size() != want {
				t.Fatalf("file size %d after post-recovery append, want %d", st.Size(), want)
			}
			_, fps, err = OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(fps) != tc.keep+1 || fps[tc.keep] != f {
				t.Fatalf("post-recovery append not recovered (got %d fps)", len(fps))
			}
		})
	}
}

func TestWALCorruptMiddleTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chunklog.wal")
	l, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int64
	for i := 0; i < 4; i++ {
		f, data := walRecord(i)
		if err := l.Append(f, uint32(len(data)), data); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, int64(walHeader+len(data)))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside record 2's payload.
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	off := sizes[0] + sizes[1] + walHeader + 3
	if _, err := f.WriteAt([]byte{0xFF}, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, fps, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	// Recovery keeps the valid prefix: records 0 and 1.
	if len(fps) != 2 {
		t.Fatalf("recovered %d fps after mid-log corruption, want 2", len(fps))
	}
}

// TestWALSyncFailureKeepsDirty is the regression test for the failed-
// fsync bug: a Sync that errors must leave the dirty counter intact so
// a later Sync retries the unflushed tail. A counter reset on the error
// path let a subsequent Sync (or Close) return success while appended
// records had never reached the disk.
func TestWALSyncFailureKeepsDirty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chunklog.wal")
	l, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}

	const n = 3
	for i := 0; i < n; i++ {
		f, data := walRecord(i)
		if err := l.Append(f, uint32(len(data)), data); err != nil {
			t.Fatal(err)
		}
	}

	injected := errors.New("injected media failure")
	failing := true
	l.SetSyncFailFunc(func() error {
		if failing {
			return injected
		}
		return nil
	})

	if err := l.Sync(); !errors.Is(err, injected) {
		t.Fatalf("Sync with failing media = %v, want injected error", err)
	}
	// The tail must still be dirty: a retry reaches the sync layer again
	// rather than short-circuiting on a zeroed counter.
	if err := l.Sync(); !errors.Is(err, injected) {
		t.Fatalf("retry after failed Sync = %v, want injected error (dirty counter was reset)", err)
	}

	failing = false
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after media recovers: %v", err)
	}
	// Now the counter is drained: another Sync is a no-op and never
	// consults the (re-armed) failure hook.
	failing = true
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync with nothing dirty = %v, want nil no-op", err)
	}

	l.SetSyncFailFunc(nil)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, fps, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != n {
		t.Fatalf("recovered %d fps, want %d", len(fps), n)
	}
}

// TestWALAppendNeverSyncsInline pins the WAL's one durability policy:
// Append never fsyncs on its own, however much it has buffered. The log's
// owner schedules Sync (in the storage engine, the "wal" group committer),
// and one Sync covers every earlier append.
func TestWALAppendNeverSyncsInline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chunklog.wal")
	l, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	fsyncs := obs.GetCounter("store_wal_fsyncs_total")
	before := fsyncs.Value()
	data := make([]byte, 32<<10)
	const n = 40 // 1.25 MiB of records
	for i := 0; i < n; i++ {
		data[0] = byte(i)
		if err := l.Append(fp.New(data), uint32(len(data)), data); err != nil {
			t.Fatal(err)
		}
	}
	if got := fsyncs.Value() - before; got != 0 {
		t.Fatalf("%d fsyncs during Append, want 0", got)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fsyncs.Value() - before; got != 1 {
		t.Fatalf("%d fsyncs after one Sync, want 1", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, fps, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != n {
		t.Fatalf("recovered %d fps, want %d", len(fps), n)
	}
}

// windowPayload is the deterministic payload of record i of size n.
func windowPayload(i, n int) []byte {
	data := make([]byte, n)
	for j := range data {
		data[j] = byte(i*7 + j)
	}
	return data
}

// TestWALWalkWindowEdges walks records laid out against the read window:
// a header and a payload that each straddle a window edge, one record
// larger than the window, and small records after it. Log.Iterate, a walk
// nested inside another walk, and recovery must all see them
// byte-identically.
func TestWALWalkWindowEdges(t *testing.T) {
	sizes := []int{
		walWindow - 10 - walHeader,  // the next header straddles the first edge
		walWindow - 100 - walHeader, // the next payload straddles the second
		1000,
		walWindow + 1000, // larger than the window: the walk grows it
		64,
		65,
	}
	path := filepath.Join(t.TempDir(), "chunklog.wal")
	l, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i, n := range sizes {
		data := windowPayload(i, n)
		if err := l.Append(fp.New(data), uint32(n), data); err != nil {
			t.Fatal(err)
		}
	}
	check := func(name string, iterate func(func(Record) error) error) {
		t.Helper()
		i := 0
		err := iterate(func(r Record) error {
			want := windowPayload(i, sizes[i])
			if r.FP != fp.New(want) || int(r.Size) != len(want) || !bytes.Equal(r.Data, want) {
				t.Fatalf("%s: record %d (%d bytes) differs", name, i, sizes[i])
			}
			i++
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if i != len(sizes) {
			t.Fatalf("%s: walked %d records, want %d", name, i, len(sizes))
		}
	}
	check("Log.Iterate", l.Iterate)
	// A second walk started while the first is parked on a record reads
	// through its own window and leaves the parked record's bytes intact.
	check("Log.Iterate inside a walk", func(fn func(Record) error) error {
		nested := false
		return l.Iterate(func(outer Record) error {
			if nested {
				return nil
			}
			nested = true
			want := append([]byte(nil), outer.Data...)
			if err := l.Iterate(fn); err != nil {
				return err
			}
			if !bytes.Equal(outer.Data, want) {
				return fmt.Errorf("the inner walk overwrote the outer walk's record")
			}
			return nil
		})
	})
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l2, fps, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(fps) != len(sizes) {
		t.Fatalf("recovered %d records, want %d", len(fps), len(sizes))
	}
	check("reopened Log.Iterate", l2.Iterate)
}

// TestWALWalkAllocsConstant: a walk allocates its read window once, not a
// buffer per record.
func TestWALWalkAllocsConstant(t *testing.T) {
	l, _, err := OpenWAL(filepath.Join(t.TempDir(), "chunklog.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	data := make([]byte, 64)
	for i := 0; i < 1000; i++ {
		data[0], data[1] = byte(i), byte(i>>8)
		if err := l.Append(fp.FromUint64(uint64(i)), uint32(len(data)), data); err != nil {
			t.Fatal(err)
		}
	}
	var walked int
	allocs := testing.AllocsPerRun(5, func() {
		walked = 0
		if err := l.Iterate(func(Record) error { walked++; return nil }); err != nil {
			t.Fatal(err)
		}
	})
	if walked != 1000 {
		t.Fatalf("walked %d records, want 1000", walked)
	}
	if allocs > 8 {
		t.Fatalf("a 1000-record walk made %.0f allocations, want a small constant", allocs)
	}
}

// TestWALWalkRejectsOversizedRecord: a size field damaged after recovery
// stops the walk with a corruption error naming the record's offset,
// before a buffer of the declared size is allocated.
func TestWALWalkRejectsOversizedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chunklog.wal")
	l, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 3; i++ {
		f, data := walRecord(i)
		if err := l.Append(f, uint32(len(data)), data); err != nil {
			t.Fatal(err)
		}
	}
	_, first := walRecord(0)
	off := int64(walHeader + len(first)) // record 2
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var size [4]byte
	binary.BigEndian.PutUint32(size[:], 300<<20) // over walMaxRecord, still allocatable
	if _, err := f.WriteAt(size[:], off+4+fp.Size); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	err = l.Iterate(func(Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("offset %d ", off)) {
		t.Fatalf("Iterate over a damaged size field = %v, want a corruption error at offset %d", err, off)
	}
}

// TestIterateDoesNotBlockAppend: Iterate walks a snapshot without the
// log's lock, so dedup-1 appends proceed while a dedup-2 walk is parked
// in its callback, and land past the snapshot.
func TestIterateDoesNotBlockAppend(t *testing.T) {
	for _, mode := range []string{"mem", "wal"} {
		t.Run(mode, func(t *testing.T) {
			l := NewMem(false, nil)
			if mode == "wal" {
				var err error
				if l, _, err = OpenWAL(filepath.Join(t.TempDir(), "chunklog.wal")); err != nil {
					t.Fatal(err)
				}
				defer l.Close()
			}
			appendN(t, l, 0, 3)
			entered, release := make(chan struct{}), make(chan struct{})
			walked := 0
			iterDone := make(chan error, 1)
			go func() {
				iterDone <- l.Iterate(func(Record) error {
					if walked++; walked == 1 {
						close(entered)
						<-release
					}
					return nil
				})
			}()
			<-entered
			appended := make(chan error, 1)
			go func() {
				data := []byte("appended during the walk")
				appended <- l.Append(fp.New(data), uint32(len(data)), data)
			}()
			select {
			case err := <-appended:
				if err != nil {
					close(release)
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				close(release)
				t.Fatal("Append blocked behind a parked Iterate")
			}
			close(release)
			if err := <-iterDone; err != nil {
				t.Fatal(err)
			}
			if walked != 3 {
				t.Fatalf("walk saw %d records, want the 3 appended before it", walked)
			}
			if got := l.Count(); got != 4 {
				t.Fatalf("Count = %d, want 4", got)
			}
		})
	}
}

func TestWALResetDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chunklog.wal")
	l, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	f, data := walRecord(1)
	if err := l.Append(f, uint32(len(data)), data); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, fps, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != 0 {
		t.Fatalf("reset WAL recovered %d fps, want 0", len(fps))
	}
}
