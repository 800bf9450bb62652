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

// lastSegment returns the path of the highest-numbered segment file of
// the WAL in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segment in %s (%v)", dir, err)
	}
	return segs[len(segs)-1]
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
	return l, l.Pending()
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
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
			path := filepath.Join(t.TempDir(), "wal")
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
			seg := lastSegment(t, path)
			st, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(t, seg, st.Size())

			l2, fps := reopenWAL(t, path)
			if len(fps) != tc.keep {
				t.Fatalf("recovered %d fps, want %d", len(fps), tc.keep)
			}
			end := int64(segHeaderSize)
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
			if st, err := os.Stat(seg); err != nil {
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
	path := filepath.Join(t.TempDir(), "wal")
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
	f, err := os.OpenFile(lastSegment(t, path), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	off := segHeaderSize + sizes[0] + sizes[1] + walHeader + 3
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
	path := filepath.Join(t.TempDir(), "wal")
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
	path := filepath.Join(t.TempDir(), "wal")
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
	path := filepath.Join(t.TempDir(), "wal")
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
	l, err := OpenWAL(filepath.Join(t.TempDir(), "wal"))
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

// TestWALAppendNewAllocs: once the log's frame buffer has grown to a
// chunk's size, appending a new chunk builds its record in that buffer
// instead of allocating one per record.
func TestWALAppendNewAllocs(t *testing.T) {
	l, err := OpenWAL(filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	data := make([]byte, 10<<10)
	var i uint64
	appendOne := func() {
		i++
		binary.BigEndian.PutUint64(data, i)
		if ok, err := l.AppendNew(fp.New(data), uint32(len(data)), data); err != nil || !ok {
			t.Fatalf("AppendNew #%d = %v, %v", i, ok, err)
		}
	}
	appendOne() // warm: grow the frame buffer
	if allocs := testing.AllocsPerRun(1000, appendOne); allocs >= 0.1 {
		t.Fatalf("AppendNew of a 10 KiB chunk made %.2f allocations, want < 0.1", allocs)
	}
}

// TestWALWalkRejectsOversizedRecord: a size field damaged after recovery
// stops the walk with a corruption error naming the record's offset,
// before a buffer of the declared size is allocated.
func TestWALWalkRejectsOversizedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
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
	off := int64(segHeaderSize + walHeader + len(first)) // record 2
	f, err := os.OpenFile(lastSegment(t, path), os.O_RDWR, 0o644)
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
				if l, err = OpenWAL(filepath.Join(t.TempDir(), "wal")); err != nil {
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
	path := filepath.Join(t.TempDir(), "wal")
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

// walSize returns the bytes on disk of the WAL in dir: its segments and
// spares.
func walSize(t *testing.T, dir string) int64 {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, seg := range segs {
		st, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		n += st.Size()
	}
	return n
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

// drainTxn runs one Drain whose callback calls during(tx) and returns
// the transaction's fingerprints and what its walk visited.
func drainTxn(t *testing.T, l *Log, during func(*Txn)) (fps, walked []fp.FP) {
	t.Helper()
	if err := l.Drain(func(tx *Txn) error {
		fps = tx.FPs
		if during != nil {
			during(tx)
		}
		return tx.Iterate(func(r Record) error {
			walked = append(walked, r.FP)
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	return fps, walked
}

// TestWALPendingConsume pins the log as dedup-2's work queue: a drain
// gets exactly the unconsumed records and its walk stops at them even
// when appends land mid-drain; a drain with appends past it keeps their
// segment and moves the cursor, so Pending and Iterate start after it;
// and a drain that catches up retires the segment — the WAL holds no
// more bytes than it did, all of them a recycled file — after which a
// reopen replays nothing.
func TestWALPendingConsume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, _ := reopenWAL(t, path)
	first := appendWALRecords(t, l, 0, 5)
	var rest []fp.FP
	var size int64
	got, walked := drainTxn(t, l, func(*Txn) {
		rest = appendWALRecords(t, l, 5, 8)
		size = walSize(t, path)
	})
	if !slices.Equal(got, first) || !slices.Equal(walked, first) {
		t.Fatalf("drain got %d fps and walked %d records, want the 5 appended before it", len(got), len(walked))
	}
	if got := walSize(t, path); got != size {
		t.Fatalf("drain with records past it resized the file: %d -> %d bytes", size, got)
	}

	if got := l.Pending(); !slices.Equal(got, rest) {
		t.Fatalf("Pending after the drain = %d fps, want the 3 appended during it", len(got))
	}
	if n := l.Count(); n != 3 {
		t.Fatalf("Count after the drain = %d, want 3", n)
	}
	if walked := walkFPs(t, l); !slices.Equal(walked, rest) {
		t.Fatalf("Iterate after the drain walked %d records, want the 3 past the cursor", len(walked))
	}

	size = walSize(t, path)
	if got, _ := drainTxn(t, l, nil); !slices.Equal(got, rest) {
		t.Fatalf("second drain got %d fps, want the 3 left", len(got))
	}
	if got := walSize(t, path); got > size {
		t.Fatalf("caught-up drain left %d bytes, want at most the %d it retired", got, size)
	}
	if got := l.Pending(); len(got) != 0 {
		t.Fatalf("Pending after a caught-up drain = %d fps, want 0", len(got))
	}
	if walked := walkFPs(t, l); len(walked) != 0 {
		t.Fatalf("Iterate after a caught-up drain walked %d records, want 0", len(walked))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, fps := reopenWAL(t, path); len(fps) != 0 {
		t.Fatalf("reopen after a caught-up drain replayed %d records, want 0", len(fps))
	}
}

// TestWALPendingReplayAfterPartialConsume: the consume cursor is not
// persisted, so a reopen after a drain that kept the records' segment
// replays every record in it, the consumed ones included (dedup-2's SIL
// discards those as duplicates), and every replayed fingerprint is Logged
// again.
func TestWALPendingReplayAfterPartialConsume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, _ := reopenWAL(t, path)
	all := appendWALRecords(t, l, 0, 4)
	drainTxn(t, l, func(*Txn) { all = append(all, appendWALRecords(t, l, 4, 6)...) })
	if held := l.Logged(all); slices.Contains(held[:4], true) || slices.Contains(held[4:], false) {
		t.Fatalf("Logged after the drain = %v, want only the 2 unconsumed", held)
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
	if held := l2.Logged(all); slices.Contains(held, false) {
		t.Fatalf("Logged after reopen = %v, want every replayed record", held)
	}
}

// TestDrainFailureConsumesNothing: a drain whose callback fails leaves
// every record pending, walkable and Logged, and the file untouched.
func TestDrainFailureConsumesNothing(t *testing.T) {
	for name, l := range openLogs(t) {
		t.Run(name, func(t *testing.T) {
			appendN(t, l, 0, 6)
			want := l.Pending()
			failed := errors.New("pass failed")
			if err := l.Drain(func(*Txn) error { return failed }); err != failed {
				t.Fatalf("Drain = %v, want the callback's error", err)
			}
			if got := l.Pending(); !slices.Equal(got, want) {
				t.Fatalf("Pending after a failed drain = %d fps, want %d", len(got), len(want))
			}
			if held := l.Logged(want); slices.Contains(held, false) {
				t.Fatalf("Logged after a failed drain = %v", held)
			}
			if got, _ := drainTxn(t, l, nil); !slices.Equal(got, want) {
				t.Fatalf("retry drain got %d fps, want %d", len(got), len(want))
			}
		})
	}
}

// TestAppendNewLogsOnce: AppendNew appends a fingerprint only while no
// unconsumed record holds it, a plain Append may repeat one, and a
// fingerprint leaves the Logged set only when its last unconsumed record
// is drained.
func TestAppendNewLogsOnce(t *testing.T) {
	for name, l := range openLogs(t) {
		t.Run(name, func(t *testing.T) {
			a, b := fp.FromUint64(1), fp.FromUint64(2)
			data := []byte("payload")
			for i, want := range []bool{true, false} {
				got, err := l.AppendNew(a, uint32(len(data)), data)
				if err != nil || got != want {
					t.Fatalf("AppendNew #%d = %v, %v; want %v", i+1, got, err, want)
				}
			}
			if n := l.Count(); n != 1 {
				t.Fatalf("Count = %d after a repeated AppendNew, want 1", n)
			}
			if held := l.Logged([]fp.FP{a, b}); !held[0] || held[1] {
				t.Fatalf("Logged(a, b) = %v, want [true false]", held)
			}
			// A repeat of a lands past the drain; a must stay Logged.
			drainTxn(t, l, func(*Txn) {
				if err := l.Append(a, uint32(len(data)), data); err != nil {
					t.Fatal(err)
				}
			})
			if held := l.Logged([]fp.FP{a}); !held[0] {
				t.Fatal("a left the Logged set while a record of it is unconsumed")
			}
			drainTxn(t, l, nil)
			if held := l.Logged([]fp.FP{a}); held[0] {
				t.Fatal("a still Logged after its last record was drained")
			}
			if got, err := l.AppendNew(a, uint32(len(data)), data); err != nil || !got {
				t.Fatalf("AppendNew after the drain = %v, %v; want true", got, err)
			}
		})
	}
}

// TestWALPendingRace runs four appenders against a loop of drains, each
// also calling Pending and Iterate, under the race detector: every
// appended fingerprint lands in exactly one drain, the drain's walk sees
// a record for every fingerprint in it, and once drained a fingerprint is
// no longer Logged.
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
						if _, err := l.AppendNew(fp.FromUint64(uint64(n)), uint32(len(data)), data); err != nil {
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
					finished = true // this drain takes every append
				default:
				}
				fps, walked := drainTxn(t, l, func(*Txn) {
					l.Pending()
					if err := l.Iterate(func(Record) error { return nil }); err != nil {
						t.Error(err)
					}
				})
				inWalk := make(map[fp.FP]bool, len(walked))
				for _, f := range walked {
					inWalk[f] = true
				}
				if len(walked) != len(fps) {
					t.Fatalf("drain of %d fps walked %d records", len(fps), len(walked))
				}
				for _, f := range fps {
					if seen[f] {
						t.Fatalf("fingerprint %s in two drains", f.Short())
					}
					seen[f] = true
					if !inWalk[f] {
						t.Fatalf("drain's walk missed fingerprint %s", f.Short())
					}
				}
				if held := l.Logged(fps); slices.Contains(held, true) {
					t.Fatal("a drained fingerprint is still Logged")
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
				t.Fatalf("drains held %d fingerprints, want %d", len(seen), appenders*each)
			}
			if n := l.Count(); n != 0 {
				t.Fatalf("Count after draining = %d, want 0", n)
			}
		})
	}
}
