package chunklog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
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

// reopenWAL opens the WAL at path, closing it at test end, and returns it
// with the fingerprints it recovered (every recovered record is pending).
func reopenWAL(t *testing.T, path string) (*Log, []fp.FP) {
	t.Helper()
	l, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	fps, _ := l.Pending()
	return l, fps
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chunklog.wal")
	l, fps := reopenWAL(t, path)
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

	l2, fps := reopenWAL(t, path)
	if len(fps) != n {
		t.Fatalf("recovered %d fps, want %d", len(fps), n)
	}
	i := 0
	err := l2.Iterate(func(r Record) error {
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
			l, err := OpenWAL(path)
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

			l2, fps := reopenWAL(t, path)
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
			_, fps = reopenWAL(t, path)
			if len(fps) != tc.keep+1 || fps[tc.keep] != f {
				t.Fatalf("post-recovery append not recovered (got %d fps)", len(fps))
			}
		})
	}
}

func TestWALCorruptMiddleTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chunklog.wal")
	l, err := OpenWAL(path)
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

	_, fps := reopenWAL(t, path)
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
	l, err := OpenWAL(path)
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
	_, fps := reopenWAL(t, path)
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
	l, err := OpenWAL(path)
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
	_, fps := reopenWAL(t, path)
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
	l, err := OpenWAL(path)
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
	l2, fps := reopenWAL(t, path)
	if len(fps) != len(sizes) {
		t.Fatalf("recovered %d records, want %d", len(fps), len(sizes))
	}
	check("reopened Log.Iterate", l2.Iterate)
}

// TestWALWalkAllocsConstant: a walk allocates its read window once, not a
// buffer per record.
func TestWALWalkAllocsConstant(t *testing.T) {
	l, err := OpenWAL(filepath.Join(t.TempDir(), "chunklog.wal"))
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
	l, err := OpenWAL(path)
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
				if l, err = OpenWAL(filepath.Join(t.TempDir(), "chunklog.wal")); err != nil {
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
	l, err := OpenWAL(path)
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
	if _, fps := reopenWAL(t, path); len(fps) != 0 {
		t.Fatalf("reset WAL recovered %d fps, want 0", len(fps))
	}
}

// walSize returns the WAL file's size on disk.
func walSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// walkFPs returns the fingerprints an Iterate walk visits.
func walkFPs(t *testing.T, l *Log) []fp.FP {
	t.Helper()
	var fps []fp.FP
	if err := l.Iterate(func(r Record) error {
		fps = append(fps, r.FP)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return fps
}

// appendWALRecords appends walRecord(lo..hi-1) and returns their
// fingerprints.
func appendWALRecords(t *testing.T, l *Log, lo, hi int) []fp.FP {
	t.Helper()
	var fps []fp.FP
	for i := lo; i < hi; i++ {
		f, data := walRecord(i)
		if err := l.Append(f, uint32(len(data)), data); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, f)
	}
	return fps
}

// TestWALPendingConsume pins the log as dedup-2's work queue: Pending
// excludes consumed records, Iterate starts at the consume cursor, a
// Consume with appends past its mark keeps the file, and a Consume that
// catches up truncates it to 0 bytes, after which a reopen replays
// nothing.
func TestWALPendingConsume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chunklog.wal")
	l, _ := reopenWAL(t, path)
	first := appendWALRecords(t, l, 0, 5)
	got, mark := l.Pending()
	if !slices.Equal(got, first) {
		t.Fatalf("Pending = %d fps, want the 5 appended", len(got))
	}
	rest := appendWALRecords(t, l, 5, 8)
	size := walSize(t, path)
	if err := l.Consume(mark); err != nil {
		t.Fatal(err)
	}
	if got := walSize(t, path); got != size {
		t.Fatalf("Consume with records past its mark resized the file: %d -> %d bytes", size, got)
	}

	got, mark = l.Pending()
	if !slices.Equal(got, rest) {
		t.Fatalf("Pending after Consume = %d fps, want the 3 appended past the mark", len(got))
	}
	if n := l.Count(); n != 3 {
		t.Fatalf("Count after Consume = %d, want 3", n)
	}
	if walked := walkFPs(t, l); !slices.Equal(walked, rest) {
		t.Fatalf("Iterate after Consume walked %d records, want the 3 past the cursor", len(walked))
	}

	if err := l.Consume(mark); err != nil {
		t.Fatal(err)
	}
	if got := walSize(t, path); got != 0 {
		t.Fatalf("caught-up Consume left %d bytes, want 0", got)
	}
	if got, _ := l.Pending(); len(got) != 0 {
		t.Fatalf("Pending after a caught-up Consume = %d fps, want 0", len(got))
	}
	if walked := walkFPs(t, l); len(walked) != 0 {
		t.Fatalf("Iterate after a caught-up Consume walked %d records, want 0", len(walked))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, fps := reopenWAL(t, path); len(fps) != 0 {
		t.Fatalf("reopen after a caught-up Consume replayed %d records, want 0", len(fps))
	}
}

// TestWALPendingReplayAfterPartialConsume: the consume cursor is not
// persisted, so a reopen after a Consume that kept the file replays every
// record, the consumed ones included (dedup-2's SIL discards those as
// duplicates).
func TestWALPendingReplayAfterPartialConsume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chunklog.wal")
	l, _ := reopenWAL(t, path)
	all := appendWALRecords(t, l, 0, 4)
	_, mark := l.Pending()
	all = append(all, appendWALRecords(t, l, 4, 6)...)
	if err := l.Consume(mark); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, fps := reopenWAL(t, path)
	if !slices.Equal(fps, all) {
		t.Fatalf("reopen replayed %d records, want all %d", len(fps), len(all))
	}
	if walked := walkFPs(t, l2); !slices.Equal(walked, all) {
		t.Fatalf("reopened walk saw %d records, want all %d", len(walked), len(all))
	}
}

// TestWALPendingRace runs four appenders against a consumer that loops
// Pending, Iterate and Consume, under the race detector: every appended
// fingerprint lands in exactly one Pending snapshot before it is
// consumed, and the walk after each snapshot sees a record for every
// fingerprint in it.
func TestWALPendingRace(t *testing.T) {
	for name, l := range openLogs(t) {
		t.Run(name, func(t *testing.T) {
			const appenders, each = 4, 300
			var wg sync.WaitGroup
			appendErrs := make([]error, appenders)
			for a := range appenders {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range each {
						n := a*each + i
						data := []byte{byte(n), byte(n >> 8), 0x5A}
						if err := l.Append(fp.FromUint64(uint64(n)), uint32(len(data)), data); err != nil {
							appendErrs[a] = err
							return
						}
					}
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()

			seen := make(map[fp.FP]bool)
			for {
				finished := false
				select {
				case <-done:
					finished = true // this pass drains every append
				default:
				}
				fps, mark := l.Pending()
				walked := make(map[fp.FP]bool)
				if err := l.Iterate(func(r Record) error {
					walked[r.FP] = true
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				for _, f := range fps {
					if seen[f] {
						t.Fatalf("fingerprint %s in two Pending snapshots", f.Short())
					}
					seen[f] = true
					if !walked[f] {
						t.Fatalf("walk after Pending missed fingerprint %s", f.Short())
					}
				}
				if err := l.Consume(mark); err != nil {
					t.Fatal(err)
				}
				if finished {
					break
				}
			}
			for _, err := range appendErrs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if len(seen) != appenders*each {
				t.Fatalf("Pending snapshots held %d fingerprints, want %d", len(seen), appenders*each)
			}
			if n := l.Count(); n != 0 {
				t.Fatalf("Count after draining = %d, want 0", n)
			}
		})
	}
}
