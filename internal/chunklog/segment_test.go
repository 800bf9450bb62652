package chunklog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"debar/internal/fp"
	"debar/internal/obs"
	"debar/internal/seglog"
)

// fixedRecord returns record i of a stream of 64-byte chunks: 92 framed
// bytes each, so a segment of 16+4*92 bytes holds exactly four.
func fixedRecord(i int) (fp.FP, []byte) {
	data := bytes.Repeat([]byte{byte(i), byte(i >> 8), 0xC3, byte(i * 7)}, 16)
	return fp.New(data), data
}

const fourRecords = segHeaderSize + 4*(walHeader+64)

// segHeaderSize, segName, segHeader, parseSegName and readSegHeader spell
// the WAL's segment files (internal/seglog) for the tests.
const segHeaderSize = seglog.HeaderSize

func segName(seq uint64) string { return fmt.Sprintf("wal-%016d.log", seq) }

func segHeader(seq uint64) []byte {
	h := []byte(walFormat.Magic)
	h = binary.BigEndian.AppendUint32(h, walVersion)
	return binary.BigEndian.AppendUint64(h, seq)
}

func parseSegName(name string) (uint64, bool) {
	var seq uint64
	n, err := fmt.Sscanf(name, "wal-%016d.log", &seq)
	return seq, err == nil && n == 1 && name == segName(seq)
}

// readSegHeader returns the sequence number f's header names; ok is false
// when f has no header of this format and version.
func readSegHeader(f *os.File) (seq uint64, ok bool, err error) {
	h := make([]byte, segHeaderSize)
	if _, err := f.ReadAt(h, 0); err != nil {
		return 0, false, err
	}
	seq = binary.BigEndian.Uint64(h[8:])
	return seq, bytes.Equal(h, segHeader(seq)), nil
}

// segFiles returns the WAL's segment file names, live and spare, sorted.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range segs {
		segs[i] = filepath.Base(s)
	}
	sort.Strings(segs)
	return segs
}

// openSized opens the WAL in dir with segments of segBytes, closing it at
// test end.
func openSized(t *testing.T, dir string, segBytes int64) *Log {
	t.Helper()
	l, err := openWAL(dir, segBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestWALSegmentRotation: appends fill fixed-size segments; each sealed
// segment is truncated to its exact end; a reopen replays every record in
// order, through every segment.
func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l := openSized(t, dir, fourRecords)
	var want []fp.FP
	for i := range 10 {
		f, data := fixedRecord(i)
		if err := l.Append(f, uint32(len(data)), data); err != nil {
			t.Fatal(err)
		}
		want = append(want, f)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segFiles(t, dir)
	if len(segs) != 3 {
		t.Fatalf("10 records of 4 per segment left segments %v, want 3", segs)
	}
	for _, s := range segs[:2] {
		if st, err := os.Stat(filepath.Join(dir, s)); err != nil || st.Size() != fourRecords {
			t.Fatalf("sealed segment %s: size %v (%v), want %d", s, st.Size(), err, fourRecords)
		}
	}
	l2 := openSized(t, dir, fourRecords)
	if got := l2.Pending(); !slices.Equal(got, want) {
		t.Fatalf("reopen replayed %d records, want the 10 appended", len(got))
	}
	if walked := walkFPs(t, l2); !slices.Equal(walked, want) {
		t.Fatalf("walk saw %d records, want the 10 appended", len(walked))
	}
	for i, f := range want {
		_, data := fixedRecord(i)
		got, ok, err := l2.ReadChunk(f)
		if err != nil || !ok || !bytes.Equal(got, data) {
			t.Fatalf("ReadChunk(record %d) = %d bytes, %v, %v", i, len(got), ok, err)
		}
	}
}

// TestWALRecycleBound runs backup-sized rounds through a WAL of small
// segments: a drain that catches up retires every segment, keeps them as
// spares and the next round overwrites them, so the bytes on disk never
// grow past one round's worth plus a segment, however many rounds run;
// and a drain never keeps more spares than it retired.
func TestWALRecycleBound(t *testing.T) {
	dir := t.TempDir()
	l := openSized(t, dir, fourRecords)
	const round = 22 // records per round: 5 full segments and a partial one
	next := 0
	for r := range 10 {
		for range round {
			f, data := fixedRecord(next)
			next++
			if err := l.Append(f, uint32(len(data)), data); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		before, files := walSize(t, dir), len(segFiles(t, dir))
		if limit := int64(round/4+2) * fourRecords; before > limit {
			t.Fatalf("round %d: WAL holds %d bytes before its drain, want at most %d", r, before, limit)
		}
		if got, _ := drainTxn(t, l, nil); len(got) != round {
			t.Fatalf("round %d: drain got %d records, want %d", r, len(got), round)
		}
		if after := walSize(t, dir); after > before {
			t.Fatalf("round %d: caught-up drain grew the WAL %d -> %d bytes", r, before, after)
		}
		if n := len(segFiles(t, dir)); n > files {
			t.Fatalf("round %d: %d files after the drain, %d before", r, n, files)
		}
	}
	if got := l.Count(); got != 0 {
		t.Fatalf("Count = %d after caught-up drains, want 0", got)
	}

	// A drain that retires nothing keeps no spare: a round of 2 records,
	// drained while 1 more lands in the same segment, retires no segment.
	appendN(t, l, 1000, 2)
	drainTxn(t, l, func(*Txn) { appendN(t, l, 1002, 1) })
	if segs := segFiles(t, dir); len(segs) != 1 {
		t.Fatalf("drain that retired nothing left files %v, want the one live segment", segs)
	}
}

// TestWALAlignedStaleTail: a recycled segment still holds the records of
// its earlier life. When the next life appends the same records in the
// same order, the stale ones past the new end line up exactly on record
// boundaries; the checksum seeded with the segment's number still tells
// them apart, so a reopen after a short second life replays exactly the
// new records.
func TestWALAlignedStaleTail(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	var first []fp.FP
	for i := range n {
		f, data := fixedRecord(i)
		if err := l.Append(f, uint32(len(data)), data); err != nil {
			t.Fatal(err)
		}
		first = append(first, f)
	}
	if got, _ := drainTxn(t, l, nil); !slices.Equal(got, first) {
		t.Fatalf("drain got %d records, want %d", len(got), n)
	}
	if segs := segFiles(t, dir); len(segs) != 1 {
		t.Fatalf("caught-up drain left files %v, want its one segment recycled", segs)
	}
	// The second life appends the first three records again and stops.
	for i := range 3 {
		f, data := fixedRecord(i)
		if err := l.Append(f, uint32(len(data)), data); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segFiles(t, dir)[0])
	if st, err := os.Stat(seg); err != nil || st.Size() != segHeaderSize+n*(walHeader+64) {
		t.Fatalf("recycled segment holds %v bytes (%v), want the first life's %d", st.Size(), err, segHeaderSize+n*(walHeader+64))
	}
	l2, fps := reopenWAL(t, dir)
	if !slices.Equal(fps, first[:3]) {
		t.Fatalf("reopen replayed %d records, want exactly the 3 of the second life", len(fps))
	}
	if got := walkFPs(t, l2); !slices.Equal(got, first[:3]) {
		t.Fatalf("walk saw %d records, want 3", len(got))
	}
}

// TestWALSelectReadsOnlyKept: a drain's Select reads exactly the bytes of
// the records keep accepts, hands fn those records only, in WAL order,
// and reads nothing when keep accepts none.
func TestWALSelectReadsOnlyKept(t *testing.T) {
	l := openSized(t, t.TempDir(), fourRecords)
	var want []fp.FP
	var wantBytes int64
	for i := range 13 {
		f, data := fixedRecord(i)
		if err := l.Append(f, uint32(len(data)), data); err != nil {
			t.Fatal(err)
		}
		if i%3 != 1 {
			want = append(want, f)
			wantBytes += walHeader + int64(len(data))
		}
	}
	keepSet := make(map[fp.FP]bool)
	for _, f := range want {
		keepSet[f] = true
	}
	err := l.Drain(func(tx *Txn) error {
		var none []fp.FP
		if err := tx.Select(func(fp.FP, uint32) bool { return false }, func(r Record) error {
			none = append(none, r.FP)
			return nil
		}); err != nil {
			return err
		}
		if len(none) != 0 || tx.ReadBytes() != 0 {
			t.Fatalf("Select accepting nothing handed over %d records and read %d bytes", len(none), tx.ReadBytes())
		}
		var got []fp.FP
		var offered int
		if err := tx.Select(func(f fp.FP, size uint32) bool {
			offered++
			return keepSet[f]
		}, func(r Record) error {
			if fp.New(r.Data) != r.FP {
				t.Fatalf("record %s: data does not hash to its fingerprint", r.FP.Short())
			}
			got = append(got, r.FP)
			return nil
		}); err != nil {
			return err
		}
		if offered != 13 || !slices.Equal(got, want) {
			t.Fatalf("Select offered %d records and kept %d, want 13 and %d", offered, len(got), len(want))
		}
		if tx.ReadBytes() != wantBytes {
			t.Fatalf("Select read %d bytes, want the kept records' %d", tx.ReadBytes(), wantBytes)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWALReadChunk: a pending chunk reads back from the WAL byte for byte;
// a drained one reports false; a damaged record is an error, never wrong
// bytes.
func TestWALReadChunk(t *testing.T) {
	dir := t.TempDir()
	l := openSized(t, dir, fourRecords)
	appendN(t, l, 0, 6)
	for i := range 6 {
		want := []byte{byte(i), byte(i >> 8), 0x5A}
		got, ok, err := l.ReadChunk(fp.FromUint64(uint64(i)))
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("ReadChunk(%d) = %x, %v, %v; want %x", i, got, ok, err, want)
		}
	}
	if _, ok, err := l.ReadChunk(fp.FromUint64(99)); ok || err != nil {
		t.Fatalf("ReadChunk of an unlogged chunk = %v, %v; want false", ok, err)
	}
	drainTxn(t, l, func(*Txn) { appendN(t, l, 6, 1) })
	if _, ok, err := l.ReadChunk(fp.FromUint64(2)); ok || err != nil {
		t.Fatalf("ReadChunk of a drained chunk = %v, %v; want false", ok, err)
	}
	// Damage the payload of the pending record: the read fails.
	f, err := os.OpenFile(lastSegment(t, dir), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, segHeaderSize+6*(walHeader+3)+walHeader); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := l.ReadChunk(fp.FromUint64(6)); err == nil {
		t.Fatalf("ReadChunk of a damaged record = %x, %v; want an error", got, ok)
	}
}

// TestWALReadChunkRacesRecycle reads chunks while appenders fill small
// segments and drains retire and recycle them, under the race detector:
// every read returns the chunk's exact bytes or reports it drained, and
// a chunk reported drained was drained.
func TestWALReadChunkRacesRecycle(t *testing.T) {
	l := openSized(t, t.TempDir(), fourRecords)
	const total = 400
	var drained sync.Map
	stop, appended := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(appended)
		for i := range total {
			f, data := fixedRecord(i)
			if _, err := l.AppendNew(f, uint32(len(data)), data); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (k*7 + r*13) % total
				f, want := fixedRecord(i)
				got, ok, err := l.ReadChunk(f)
				switch {
				case err != nil:
					errs <- err
					return
				case ok && !bytes.Equal(got, want):
					errs <- fmt.Errorf("ReadChunk(record %d) returned wrong bytes", i)
					return
				}
			}
		}()
	}
	for {
		finished := false
		select {
		case <-appended:
			finished = true // this drain takes every append
		default:
		}
		if err := l.Drain(func(tx *Txn) error {
			for _, f := range tx.FPs {
				drained.Store(f, true)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if finished {
			break
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range total {
		f, _ := fixedRecord(i)
		if _, ok := drained.Load(f); !ok {
			t.Fatalf("record %d never drained", i)
		}
		if _, ok, _ := l.ReadChunk(f); ok {
			t.Fatalf("record %d still readable after its drain", i)
		}
	}
}

// TestDropLegacy: a format-1 WAL file (a golden one written by the last
// build that used the format) is refused with a *VersionError naming both
// versions and left byte for byte; an empty one, the state a caught-up
// pass left, is removed; a missing one is fine.
func TestDropLegacy(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "v1.wal"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, LegacyName)
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	var ve *VersionError
	if err := DropLegacy(path); !errors.As(err, &ve) || *ve != (VersionError{Found: 1, Want: 3}) {
		t.Fatalf("DropLegacy(v1 WAL) = %v, want *VersionError{1, 3}", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, golden) {
		t.Fatalf("refused WAL changed (%d -> %d bytes, err %v)", len(golden), len(got), err)
	}

	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := DropLegacy(path); err != nil {
		t.Fatalf("DropLegacy(empty) = %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("empty legacy WAL not removed: %v", err)
	}
	if err := DropLegacy(path); err != nil {
		t.Fatalf("DropLegacy(missing) = %v", err)
	}
}

// TestWALVersionRefused: a segment whose header carries another format
// version is refused with a *VersionError, and left as it is.
func TestWALVersionRefused(t *testing.T) {
	dir := t.TempDir()
	h := segHeader(1)
	binary.BigEndian.PutUint32(h[4:], 4)
	path := filepath.Join(dir, segName(1))
	if err := os.WriteFile(path, h, 0o644); err != nil {
		t.Fatal(err)
	}
	var ve *VersionError
	if _, err := OpenWAL(dir); !errors.As(err, &ve) || *ve != (VersionError{Found: 4, Want: 3}) {
		t.Fatalf("OpenWAL over a version-4 segment = %v, want *VersionError{4, 3}", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, h) {
		t.Fatal("refused segment changed")
	}
}

// TestWALSealedSegmentDamageRefused: damage in a sealed segment is not a
// torn tail: the open is refused instead of dropping the later segments.
func TestWALSealedSegmentDamageRefused(t *testing.T) {
	dir2 := t.TempDir()
	l2 := openSized(t, dir2, fourRecords)
	for i := range 6 {
		f, data := fixedRecord(i)
		if err := l2.Append(f, uint32(len(data)), data); err != nil {
			t.Fatal(err)
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	first := filepath.Join(dir2, segFiles(t, dir2)[0])
	f, err := os.OpenFile(first, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, segHeaderSize+walHeader+1); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if l3, err := openWAL(dir2, fourRecords); err == nil {
		l3.Close()
		t.Fatal("OpenWAL over a damaged sealed segment succeeded")
	}
}

// TestWALSyncAcrossRotation holds the flusher's fsync in flight while an
// append seals the segment it is syncing and a smaller append lands in
// the next one. The seal made everything that fsync covered durable, but
// not the new segment's record: the flusher must fsync again before a
// barrier returns.
func TestWALSyncAcrossRotation(t *testing.T) {
	l := openSized(t, t.TempDir(), fourRecords)
	appendFixed := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f, data := fixedRecord(i)
			if err := l.Append(f, uint32(len(data)), data); err != nil {
				t.Fatal(err)
			}
		}
	}
	var fsyncs atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	l.SetFaults(seglog.Faults{Sync: func() error {
		if fsyncs.Add(1) == 1 {
			close(entered)
			<-release
		}
		return nil
	}})
	appendFixed(0, 2)
	<-entered         // this fsync covers records 0 and 1 at most
	appendFixed(2, 5) // fills the segment, then seals it: the fifth opens the next
	close(release)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fsyncs.Load(); got < 2 {
		t.Fatalf("Sync returned after %d fsync: the new segment's record was left unsynced", got)
	}
}

// TestWALReadChunkAfterPartialDrain: a fingerprint logged twice, once
// before a drain and once during it, reads back from its second record
// once the drain has consumed the first.
func TestWALReadChunkAfterPartialDrain(t *testing.T) {
	l := openSized(t, t.TempDir(), fourRecords)
	f := fp.FromUint64(7)
	for _, data := range [][]byte{[]byte("first"), []byte("other")} {
		if err := l.Append(fp.New(data), uint32(len(data)), data); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Append(f, 5, []byte("early")); err != nil {
		t.Fatal(err)
	}
	drainTxn(t, l, func(*Txn) {
		if err := l.Append(fp.FromUint64(8), 3, []byte("mid")); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(f, 4, []byte("late")); err != nil {
			t.Fatal(err)
		}
	})
	got, ok, err := l.ReadChunk(f)
	if err != nil || !ok || string(got) != "late" {
		t.Fatalf("ReadChunk after the drain = %q, %v, %v; want the second record", got, ok, err)
	}
}

// TestPendingRecordFootprint pins what the log keeps per unconsumed
// record beyond its fingerprint: a 12-byte position and an 8-byte
// fingerprint entry. A server holds one of each per chunk no pass has
// stored yet.
func TestPendingRecordFootprint(t *testing.T) {
	if got := unsafe.Sizeof(recLoc{}); got != 12 {
		t.Fatalf("recLoc is %d bytes, want 12", got)
	}
	if got := unsafe.Sizeof(held{}); got != 8 {
		t.Fatalf("held is %d bytes, want 8", got)
	}
}

// copyGolden copies the golden WAL directory testdata/name to a new
// directory and returns it with the golden files' contents.
func copyGolden(t *testing.T, name string) (string, map[string][]byte) {
	t.Helper()
	src := filepath.Join("testdata", name)
	dir, files := t.TempDir(), make(map[string][]byte)
	for _, seg := range segFiles(t, src) {
		data, err := os.ReadFile(filepath.Join(src, seg))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, seg), data, 0o644); err != nil {
			t.Fatal(err)
		}
		files[seg] = data
	}
	if len(files) == 0 {
		t.Fatalf("no golden segment in %s", src)
	}
	return dir, files
}

// TestWALV2Refused: a format-2 WAL holding records (a golden one, three
// 16-byte chunks written by the last build that used the format) is
// refused with a *VersionError naming both versions and left byte for
// byte.
func TestWALV2Refused(t *testing.T) {
	dir, golden := copyGolden(t, "v2-wal")
	var ve *VersionError
	if l, err := OpenWAL(dir); !errors.As(err, &ve) || *ve != (VersionError{Found: 2, Want: 3}) {
		if err == nil {
			l.Close()
		}
		t.Fatalf("OpenWAL over a format-2 WAL = %v, want *VersionError{2, 3}", err)
	}
	if segs := segFiles(t, dir); len(segs) != len(golden) {
		t.Fatalf("refused WAL holds files %v, want the %d golden ones", segs, len(golden))
	}
	for seg, want := range golden {
		if got, err := os.ReadFile(filepath.Join(dir, seg)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("refused segment %s changed (%d -> %d bytes, err %v)", seg, len(want), len(got), err)
		}
	}
}

// TestWALV2EmptyReused: a format-2 WAL holding no record (a golden one,
// left by a caught-up drain: one recycled segment whose stale records
// fail their checksum) opens empty, and its file is reused as the first
// format-3 segment instead of a new one.
func TestWALV2EmptyReused(t *testing.T) {
	dir, golden := copyGolden(t, "v2-wal-empty")
	reused, created := obs.GetCounter("store_wal_segments_reused_total"), obs.GetCounter("store_wal_segments_created_total")
	r0, c0 := reused.Value(), created.Value()
	l, fps := reopenWAL(t, dir)
	if len(fps) != 0 {
		t.Fatalf("format-2 WAL without records replayed %d", len(fps))
	}
	if reused.Value() != r0+1 || created.Value() != c0 {
		t.Fatalf("open reused %d spares and created %d segments, want 1 and 0", reused.Value()-r0, created.Value()-c0)
	}
	if segs := segFiles(t, dir); len(segs) != len(golden) {
		t.Fatalf("WAL holds files %v, want its %d golden ones reused", segs, len(golden))
	}
	f, data := fixedRecord(1)
	if err := l.Append(f, uint32(len(data)), data); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, fps := reopenWAL(t, dir); !slices.Equal(fps, []fp.FP{f}) {
		t.Fatalf("reopen replayed %d records, want the 1 appended", len(fps))
	}
}

// TestWALDamagedHeaderRefused: a WAL with three synced records in its
// only segment whose header takes damage in any one byte is refused with
// a typed error, and every file is left byte for byte. Damage to the
// version that names a newer format is a *VersionError. Any other —
// magic, sequence number, or a version byte naming format 2, which holds
// no format-2 record — would make the file a spare, but its first record
// still passes its checksum under the file's number, so it is a live
// segment with a damaged header: a *seglog.CorruptError.
func TestWALDamagedHeaderRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		f, data := walRecord(i)
		if err := l.Append(f, uint32(len(data)), data); err != nil {
			t.Fatal(err)
		}
	}
	if err := errors.Join(l.Sync(), l.Close()); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	orig, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	type flip struct {
		at   int
		mask byte
	}
	flips := []flip{{7, 0x01}} // version 3 → 2
	for at := range seglog.HeaderSize {
		flips = append(flips, flip{at, 0xFF})
	}
	for _, fl := range flips {
		b := slices.Clone(orig)
		b[fl.at] ^= fl.mask
		if err := os.WriteFile(seg, b, 0o644); err != nil {
			t.Fatal(err)
		}
		var want any = new(*seglog.CorruptError)
		if fl.at >= 4 && fl.at < 8 && fl.mask == 0xFF { // a newer version
			want = new(*VersionError)
		}
		l, err := OpenWAL(dir)
		if err == nil {
			l.Close()
		}
		if !errors.As(err, want) {
			t.Fatalf("open with header byte %d ^ %#x = %v, want %T", fl.at, fl.mask, err, want)
		}
		if segs, _ := filepath.Glob(filepath.Join(dir, "*")); len(segs) != 1 || segs[0] != seg {
			t.Fatalf("refused open left %v, want only %s", segs, seg)
		}
		if got, err := os.ReadFile(seg); err != nil || !bytes.Equal(got, b) {
			t.Fatalf("refused open changed %s (err %v)", seg, err)
		}
	}
}
