package chunklog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"debar/internal/fp"
	"debar/internal/fsx"
	"debar/internal/obs"
)

// WAL metrics: append volume/latency and the fsync distribution. The
// fsync series pairs with store_commit_wal_* (group-commit scheduling)
// — fsyncs here are the syncs those windows resolve into. The segment
// counters split the segments brought up into recycled and new files.
var (
	mWALAppendBytes   = obs.GetCounter("store_wal_append_bytes_total")
	mWALAppendSeconds = obs.GetHistogram("store_wal_append_seconds", obs.DurationBuckets)
	mWALFsyncs        = obs.GetCounter("store_wal_fsyncs_total")
	mWALFsyncSeconds  = obs.GetHistogram("store_wal_fsync_seconds", obs.DurationBuckets)
	mWALSyncedBytes   = obs.GetCounter("store_wal_synced_bytes_total")
	mWALSegsReused    = obs.GetCounter("store_wal_segments_reused_total")
	mWALSegsCreated   = obs.GetCounter("store_wal_segments_created_total")
)

// WAL mode turns the chunk log into a durable write-ahead log: a
// directory of fixed-size segment files, wal-<seq>.log with a 16-digit
// sequence number, each starting with a 16-byte header
//
//	+------------+---------------+-----------+
//	| "DWAL" (4) | version (u32) | seq (u64) |
//	+------------+---------------+-----------+
//
// and followed by records framed
//
//	+-------------+---------+------------+----------------+
//	| crc32c (u32)| fp (20) | size (u32) | data (size B)  |
//	+-------------+---------+------------+----------------+
//
// The checksum covers fingerprint, size and data, seeded with the low 32
// bits of the segment's sequence number, so a record a recycled file
// still holds from an earlier life fails it under the file's new number,
// however exactly it lines up with the new records.
//
// Appends fill the last segment. A record that does not fit seals it —
// truncated to its exact end and fsynced — before the next segment comes
// up, so a sealed segment always parses exactly to its end. Recovery
// accepts the longest prefix of complete, checksum-valid records of the
// last segment and truncates the rest (a torn record, a zero-filled tail
// a crash can leave when the file size reached disk before the data, and
// stale records of a recycled file all fail the same scan); any damage in
// a sealed segment refuses the open.
//
// A drain retires every segment whose records it consumed. Retiring
// renames the file to the next unused sequence number without touching
// its header, and syncs the directory once: a file whose header names
// another sequence number holds no records, so it is a spare. The spares
// are kept for reuse, up to the number of segments the latest drain
// retired, and the rest deleted. Reusing a spare rewrites and fsyncs its
// header; only then does it take appends, and never while a failed
// directory sync has left its new name in doubt. A new file is created,
// given its header, fsynced and its directory synced before it takes
// appends.
// A crash anywhere in between leaves either a spare or an empty
// segment. So the WAL's bytes on disk stay within its unconsumed records
// plus what the latest drain retired, and a backup overwrites recycled
// blocks instead of allocating new ones.
//
// Append never fsyncs: the log's owner schedules Sync. In the storage
// engine that owner is the "wal" group committer, and the backup server
// answers BackupEnd only after a sync covering every chunk the run
// references, so a completed run's chunks are always recoverable — see
// internal/store/README.md ("Consistency model"). Rotation, retirement
// and Close always sync.

const (
	// walVersion is the WAL format this build reads and writes. Version 1
	// was a single file of unseeded records without a header.
	walVersion = 2

	// segmentBytes is a WAL segment's capacity. A record larger than a
	// whole segment gets a segment of its own.
	segmentBytes = 64 << 20

	segHeaderSize = 16
	walMagic      = "DWAL"

	// walHeader is the serialised record header: checksum + fingerprint + size.
	walHeader = 4 + fp.Size + 4

	// walMaxRecord bounds a sane record payload during recovery scanning: a
	// declared size beyond this is treated as a torn/corrupt tail rather
	// than followed into the void. Chunks are bounded by the container size
	// (8 MB default), so 256 MB is far above any legitimate record.
	walMaxRecord = 256 << 20

	// walWindow is the read window the WAL is streamed through: one
	// positional read per window rather than an allocation and two reads
	// per record. A record larger than the window grows it for the rest of
	// the walk.
	walWindow = 4 << 20
)

// LegacyName is the file name of the format-1 WAL, a single file kept
// beside the rest of a data directory.
const LegacyName = "chunklog.wal"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// VersionError reports a WAL in a format this build does not read.
type VersionError struct{ Found, Want int }

func (e *VersionError) Error() string {
	return fmt.Sprintf("chunklog: wal format version %d, this build reads version %d", e.Found, e.Want)
}

// segment is one live WAL segment file. seq, id, seed, f and path are
// fixed at creation; end is the append offset, written under the log's
// mu.
type segment struct {
	seq  uint64
	id   uint32 // counts the log's bring-ups: the live segments' ids are consecutive
	seed uint32 // the records' checksum seed
	f    *os.File
	path string
	end  int64
}

// segAt returns the segment with id among segs, consecutive live
// segments that include it.
func segAt(segs []*segment, id uint32) *segment { return segs[id-segs[0].id] }

// spare is a retired segment file waiting for reuse, already renamed to
// the sequence number it will take.
type spare struct {
	seq uint64
	f   *os.File
}

// recLoc is where a record lives: its segment's id, its offset in the
// segment file and its payload size. The log keeps one per unconsumed
// record, so it is kept small.
type recLoc struct{ seg, off, size uint32 }

// corruptRecord reports a record whose framing or checksum is invalid.
// Recovery truncates the last segment at off; a walk of a recovered log
// returns it as an error, since the damage happened after the log was
// opened.
type corruptRecord struct {
	path string
	off  int64
	why  string
}

func (e *corruptRecord) Error() string {
	return fmt.Sprintf("chunklog: %s: record at offset %d %s (media corruption?)", e.path, e.off, e.why)
}

// segName returns the file name of segment seq.
func segName(seq uint64) string { return fmt.Sprintf("wal-%016d.log", seq) }

// parseSegName returns the sequence number a segment file name carries.
func parseSegName(name string) (uint64, bool) {
	digits, ok := strings.CutPrefix(name, "wal-")
	if !ok {
		return 0, false
	}
	if digits, ok = strings.CutSuffix(digits, ".log"); !ok || len(digits) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(digits, 10, 64)
	return seq, err == nil
}

// segHeader returns the header of segment seq.
func segHeader(seq uint64) []byte {
	h := make([]byte, segHeaderSize)
	copy(h, walMagic)
	binary.BigEndian.PutUint32(h[4:], walVersion)
	binary.BigEndian.PutUint64(h[8:], seq)
	return h
}

// readSegHeader returns the sequence number f's header names; ok is false
// when f has no header of this format (too short, another magic). A
// header of another version is a *VersionError.
func readSegHeader(f *os.File) (seq uint64, ok bool, err error) {
	var h [segHeaderSize]byte
	if _, err := f.ReadAt(h[:], 0); errors.Is(err, io.EOF) {
		return 0, false, nil
	} else if err != nil {
		return 0, false, fmt.Errorf("chunklog: reading wal header: %w", err)
	}
	if string(h[:4]) != walMagic {
		return 0, false, nil
	}
	if v := binary.BigEndian.Uint32(h[4:]); v != walVersion {
		return 0, false, &VersionError{Found: int(v), Want: walVersion}
	}
	return binary.BigEndian.Uint64(h[8:]), true, nil
}

// DropLegacy clears the way for a WAL over a data directory that may
// still hold a format-1 WAL file at path: an empty one, the state a
// caught-up pass left, is removed; a non-empty one is refused with a
// *VersionError and left as it is. A missing file is fine.
func DropLegacy(path string) error {
	st, err := os.Stat(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	} else if err != nil {
		return fmt.Errorf("chunklog: %w", err)
	}
	if st.Size() > 0 {
		return fmt.Errorf("chunklog: %s: %w", path, &VersionError{Found: 1, Want: walVersion})
	}
	if err := os.Remove(path); err != nil {
		return fmt.Errorf("chunklog: removing empty legacy wal: %w", err)
	}
	return fsx.SyncDir(filepath.Dir(path))
}

// OpenWAL opens (creating if needed) a durable chunk-log WAL in the
// directory dir, recovering any existing records. Every recovered record
// is pending and Logged: records a drain consumed whose segment also held
// unconsumed ones replay too, and dedup-2 discards them as duplicates.
func OpenWAL(dir string) (*Log, error) { return openWAL(dir, segmentBytes) }

func openWAL(dir string, segBytes int64) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("chunklog: open wal: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("chunklog: open wal: %w", err)
	}
	l := &Log{dir: dir, segBytes: segBytes, index: make(map[fp.FP]held), nextSeq: 1}
	l.mu.Lock()
	defer l.mu.Unlock()
	err = l.recoverWAL(ents)
	if err == nil && len(l.segs) == 0 {
		err = l.bringUp()
	}
	if err != nil {
		return nil, errors.Join(err, l.closeFiles())
	}
	return l, nil
}

// recoverWAL sorts the segment files into live segments and spares,
// replays the live segments' records and truncates the last one after
// its longest valid prefix.
//
//debarvet:ignore guardedby -- recovery runs inside OpenWAL before the log is shared; no other goroutine exists yet
func (l *Log) recoverWAL(ents []os.DirEntry) error {
	for _, e := range ents { // by name, so by sequence number
		seq, ok := parseSegName(e.Name())
		if !ok {
			continue
		}
		l.nextSeq = max(l.nextSeq, seq+1)
		path := filepath.Join(l.dir, e.Name())
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			return fmt.Errorf("chunklog: open wal segment: %w", err)
		}
		named, valid, err := readSegHeader(f)
		if err != nil {
			return errors.Join(fmt.Errorf("%s: %w", path, err), f.Close())
		}
		if !valid || named != seq {
			l.free = append(l.free, spare{seq: seq, f: f})
			continue
		}
		l.segs = append(l.segs, &segment{seq: seq, id: l.nextID, seed: uint32(seq), f: f, path: path})
		l.nextID++
	}
	if n := len(l.segs); n > 0 {
		// Retirement numbers spares past every live segment, so a file
		// without a valid header below the last live one is damage.
		if last := l.segs[n-1].seq; len(l.free) > 0 && l.free[0].seq < last {
			return fmt.Errorf("chunklog: wal segment %s has no valid header but precedes segment %d (media corruption?)",
				segName(l.free[0].seq), last)
		}
	}
	// A spare found here may still hold records checksummed under the
	// number it is named after (its header damaged or half-written):
	// renumber every spare past every file, so reusing it can never make
	// those records valid again.
	for i, sp := range l.free {
		if err := os.Rename(filepath.Join(l.dir, segName(sp.seq)), filepath.Join(l.dir, segName(l.nextSeq))); err != nil {
			return fmt.Errorf("chunklog: renumbering wal spare: %w", err)
		}
		l.free[i].seq = l.nextSeq
		l.nextSeq++
	}
	if len(l.free) > 0 {
		if err := l.syncDir(); err != nil {
			return err
		}
	}
	for i, s := range l.segs {
		st, err := s.f.Stat()
		if err != nil {
			return fmt.Errorf("chunklog: wal stat: %w", err)
		}
		size := st.Size()
		s.end = segHeaderSize
		err = walkWAL(s.f, s.seed, segHeaderSize, size, func(off int64, r Record) error {
			if off > math.MaxUint32 {
				return &corruptRecord{s.path, off, "lies past any offset a segment reaches"}
			}
			h, ok := l.index[r.FP]
			if !ok {
				h.rec = uint32(len(l.locs))
			}
			h.n++
			l.index[r.FP] = h
			l.fps = append(l.fps, r.FP)
			l.locs = append(l.locs, recLoc{seg: s.id, off: uint32(off), size: r.Size})
			l.bytes += int64(r.Size)
			s.end = off + walHeader + int64(r.Size)
			return nil
		})
		if err != nil {
			if bad := (*corruptRecord)(nil); !errors.As(err, &bad) {
				return err
			}
			if i < len(l.segs)-1 {
				return fmt.Errorf("chunklog: sealed wal segment: %w", err)
			}
		}
		if s.end < size {
			// The last segment's tail is torn, zero-filled or stale:
			// truncate it so the next append lands at the logical end.
			if err := s.f.Truncate(s.end); err != nil {
				return fmt.Errorf("chunklog: wal truncating torn tail: %w", err)
			}
			if err := fsx.SyncData(s.f); err != nil {
				return fmt.Errorf("chunklog: wal sync after truncate: %w", err)
			}
		}
	}
	return nil
}

// appendWAL writes one checksummed record at the end of the last
// segment, bringing up the next segment first when the record does not
// fit. It never fsyncs the record: it is durable once a later Sync
// returns.
//
// debarvet:holds mu -- append enters WAL mode with l.mu held.
func (l *Log) appendWAL(f fp.FP, size uint32, data []byte) (recLoc, error) {
	defer mWALAppendSeconds.Since(time.Now())
	if l.closed {
		return recLoc{}, errors.New("chunklog: wal append after Close")
	}
	n := walHeader + len(data)
	if k := len(l.segs); k == 0 || l.segs[k-1].end > segHeaderSize && l.segs[k-1].end+int64(n) > l.segBytes {
		if err := l.rotate(); err != nil {
			return recLoc{}, err
		}
	}
	s := l.segs[len(l.segs)-1]
	if cap(l.frame) < n {
		l.frame = make([]byte, n)
	}
	rec := l.frame[:n]
	copy(rec[4:], f[:])
	binary.BigEndian.PutUint32(rec[4+fp.Size:], size)
	copy(rec[walHeader:], data)
	binary.BigEndian.PutUint32(rec[:4], crc32.Update(s.seed, castagnoli, rec[4:]))
	if _, err := s.f.WriteAt(rec, s.end); err != nil {
		return recLoc{}, fmt.Errorf("chunklog: wal append: %w", err)
	}
	loc := recLoc{seg: s.id, off: uint32(s.end), size: size}
	s.end += int64(n)
	l.dirty += n
	mWALAppendBytes.Add(int64(n))
	return loc, nil
}

// rotate seals the last segment, if any — truncated to its exact end and
// fsynced — and brings up the next one.
//
// debarvet:holds mu -- appendWAL enters with l.mu held.
func (l *Log) rotate() error {
	if k := len(l.segs); k > 0 {
		s := l.segs[k-1]
		if err := s.f.Truncate(s.end); err != nil {
			return fmt.Errorf("chunklog: sealing wal segment: %w", err)
		}
		if err := fsx.SyncData(s.f); err != nil {
			return fmt.Errorf("chunklog: sealing wal segment: %w", err)
		}
		l.dirty = 0 // every append so far is in a synced segment
		l.zeroed++
		if err := l.step("sealed"); err != nil {
			return err
		}
	}
	return l.bringUp()
}

// bringUp makes the next segment ready for appends: the lowest-numbered
// spare, its header rewritten and fsynced, or else a new file, created
// with its header, fsynced, and its directory synced.
//
// debarvet:holds mu -- rotate enters with l.mu held.
func (l *Log) bringUp() error {
	if len(l.free) > 0 {
		// A spare whose rename is not durable could come back after a
		// crash under its live name with a header naming another number,
		// and recovery would drop its records as a spare's: sync first.
		if l.renamed {
			if err := l.syncDir(); err != nil {
				return err
			}
		}
		sp := l.free[0]
		if _, err := sp.f.WriteAt(segHeader(sp.seq), 0); err != nil {
			return fmt.Errorf("chunklog: reusing wal segment: %w", err)
		}
		if err := l.step("header"); err != nil {
			return err
		}
		if err := fsx.SyncData(sp.f); err != nil {
			return fmt.Errorf("chunklog: reusing wal segment: %w", err)
		}
		l.free = l.free[1:]
		l.segs = append(l.segs, &segment{seq: sp.seq, id: l.nextID, seed: uint32(sp.seq), f: sp.f,
			path: filepath.Join(l.dir, segName(sp.seq)), end: segHeaderSize})
		l.nextID++
		mWALSegsReused.Inc()
		return nil
	}
	seq := l.nextSeq
	path := filepath.Join(l.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("chunklog: new wal segment: %w", err)
	}
	l.nextSeq++
	if err := l.step("created"); err != nil {
		return errors.Join(err, f.Close())
	}
	if _, err := f.WriteAt(segHeader(seq), 0); err != nil {
		return errors.Join(fmt.Errorf("chunklog: new wal segment: %w", err), f.Close())
	}
	if err := fsx.SyncData(f); err != nil {
		return errors.Join(fmt.Errorf("chunklog: new wal segment: %w", err), f.Close())
	}
	if err := l.syncDir(); err != nil {
		return errors.Join(err, f.Close())
	}
	l.segs = append(l.segs, &segment{seq: seq, id: l.nextID, seed: uint32(seq), f: f, path: path, end: segHeaderSize})
	l.nextID++
	mWALSegsCreated.Inc()
	return nil
}

// retireThrough retires the live segments up to last, and last itself
// unless an unconsumed record lives in it.
//
// debarvet:holds mu -- consume enters with l.mu held.
func (l *Log) retireThrough(last uint32) error {
	cut := int(last-l.segs[0].id) + 1
	if len(l.locs) > 0 && l.locs[0].seg == last {
		cut--
	}
	retired := l.segs[:cut:cut]
	l.segs = l.segs[cut:]
	err := l.recycle(retired)
	if len(l.segs) == 0 {
		// The last segment retired, its unsynced tail, if any, consumed
		// with it: bring up the next one now, so the next append does not
		// wait for it. (An append brings it up if this fails.)
		l.dirty = 0
		l.zeroed++
		err = errors.Join(err, l.bringUp())
	}
	return err
}

// recycle renames the retired segments into spares, numbered past every
// file in the WAL, deletes the spares beyond len(retired), and syncs the
// directory. Should that sync fail, no spare is reused before a later one
// succeeds (bringUp).
//
// debarvet:holds mu -- retireThrough enters with l.mu held.
func (l *Log) recycle(retired []*segment) error {
	var errs []error
	for _, s := range retired {
		seq := l.nextSeq
		if err := os.Rename(s.path, filepath.Join(l.dir, segName(seq))); err != nil {
			// Not recyclable: delete it, its records are consumed. (If that
			// fails too, a reopen replays them and dedup-2 discards them as
			// duplicates.)
			errs = append(errs, fmt.Errorf("chunklog: retiring wal segment: %w", err), s.f.Close(), os.Remove(s.path))
			continue
		}
		l.renamed = true
		l.nextSeq++
		l.free = append(l.free, spare{seq: seq, f: s.f})
		if err := l.step("renamed"); err != nil {
			return err
		}
	}
	for len(l.free) > len(retired) {
		sp := l.free[len(l.free)-1]
		l.free = l.free[:len(l.free)-1]
		errs = append(errs, sp.f.Close(), os.Remove(filepath.Join(l.dir, segName(sp.seq))))
	}
	if len(retired) > 0 {
		errs = append(errs, l.syncDir())
	}
	return errors.Join(errs...)
}

// syncDir syncs the WAL directory, making the names created, renamed and
// removed in it durable.
//
// debarvet:holds mu -- every caller holds l.mu (or owns the log during OpenWAL).
func (l *Log) syncDir() error {
	if l.dirFailFn != nil {
		if err := l.dirFailFn(); err != nil {
			return fmt.Errorf("chunklog: syncing wal directory: %w", err)
		}
	}
	if err := fsx.SyncDir(l.dir); err != nil {
		return fmt.Errorf("chunklog: syncing wal directory: %w", err)
	}
	l.renamed = false
	return nil
}

// step reports a step of rotation or recycling to the test hook, whose
// error aborts the step's operation.
//
// debarvet:holds mu -- every step runs with l.mu held.
func (l *Log) step(name string) error {
	if l.stepFn == nil {
		return nil
	}
	return l.stepFn(name)
}

// decode checks rec, the bytes read at loc in s, against loc and the
// fingerprint f logged for it, and returns the record, its Data aliasing
// rec.
func (s *segment) decode(loc recLoc, rec []byte, f fp.FP) (Record, error) {
	if size := binary.BigEndian.Uint32(rec[4+fp.Size:]); size != loc.size {
		return Record{}, &corruptRecord{s.path, int64(loc.off),
			fmt.Sprintf("declares %d payload bytes, %d were logged", size, loc.size)}
	}
	if binary.BigEndian.Uint32(rec) != crc32.Update(s.seed, castagnoli, rec[4:]) {
		return Record{}, &corruptRecord{s.path, int64(loc.off), "fails checksum"}
	}
	r := Record{Size: loc.size, Data: rec[walHeader:len(rec):len(rec)]}
	copy(r.FP[:], rec[4:])
	if r.FP != f {
		return Record{}, &corruptRecord{s.path, int64(loc.off),
			fmt.Sprintf("holds fingerprint %s, %s was logged", r.FP.Short(), f.Short())}
	}
	return r, nil
}

// readLocs reads the records at locs in segs, whose fingerprints are fps,
// in order, and hands fn each one keep accepts (every one when keep is nil),
// checked against its checksum and position. Runs of accepted records
// that lie back to back in one segment are read with one positional read
// per window, through one reused buffer; a rejected record is never
// read. Each Record's Data aliases the buffer and is valid only until fn
// returns. It returns the bytes read.
func readLocs(segs []*segment, locs []recLoc, fps []fp.FP, keep func(fp.FP, uint32) bool, fn func(Record) error) (int64, error) {
	var buf []byte
	var read int64
	// flush reads and visits locs[lo:hi], which lie back to back.
	flush := func(lo, hi int) error {
		first, last := locs[lo], locs[hi-1]
		s := segAt(segs, first.seg)
		n := int64(last.off) + walHeader + int64(last.size) - int64(first.off)
		if int64(cap(buf)) < n {
			buf = make([]byte, max(n, min(4*n, walWindow)))
		}
		b := buf[:n]
		if _, err := s.f.ReadAt(b, int64(first.off)); err != nil {
			return fmt.Errorf("chunklog: %s: read at offset %d: %w", s.path, first.off, err)
		}
		read += n
		for i := lo; i < hi; i++ {
			at := int64(locs[i].off - first.off)
			r, err := s.decode(locs[i], b[at:at+walHeader+int64(locs[i].size)], fps[i])
			if err != nil {
				return err
			}
			if err := fn(r); err != nil {
				return err
			}
		}
		return nil
	}
	lo := -1       // first record of the pending run, if any
	var next int64 // the offset just past the pending run
	for i, loc := range locs {
		off := int64(loc.off)
		if keep != nil && !keep(fps[i], loc.size) {
			if lo >= 0 {
				if err := flush(lo, i); err != nil {
					return read, err
				}
				lo = -1
			}
			continue
		}
		end := off + walHeader + int64(loc.size)
		if lo >= 0 && (loc.seg != locs[lo].seg || off != next || end-int64(locs[lo].off) > walWindow) {
			if err := flush(lo, i); err != nil {
				return read, err
			}
			lo = -1
		}
		if lo < 0 {
			lo = i
		}
		next = end
	}
	if lo >= 0 {
		if err := flush(lo, len(locs)); err != nil {
			return read, err
		}
	}
	return read, nil
}

// ReadChunk returns a copy of the payload of the unconsumed record that
// holds f, checked against its checksum and fingerprint. It reports false
// when no unconsumed record holds f: the chunk was never logged, or a
// drain consumed it and it is stored. A memory log always reports false.
// The read holds off segment retirement, so it never lands in a renamed
// or recycled file.
func (l *Log) ReadChunk(f fp.FP) ([]byte, bool, error) {
	if l.dir == "" {
		return nil, false, nil
	}
	l.retireMu.RLock()
	defer l.retireMu.RUnlock()
	l.mu.Lock()
	h, ok := l.index[f]
	var loc recLoc
	var s *segment
	if ok {
		loc = l.locs[h.rec-l.first]
		s = segAt(l.segs, loc.seg)
	}
	l.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	rec := make([]byte, walHeader+int64(loc.size))
	if _, err := s.f.ReadAt(rec, int64(loc.off)); err != nil {
		return nil, false, fmt.Errorf("chunklog: %s: read at offset %d: %w", s.path, loc.off, err)
	}
	r, err := s.decode(loc, rec, f)
	if err != nil {
		return nil, false, err
	}
	return r.Data, true, nil
}

// walkWAL replays the records of file in [start, end) in append order,
// streaming the file through one reused read window and verifying every
// record's checksum under seed in place. A record whose framing or
// checksum is invalid stops the walk with a *corruptRecord naming its
// offset; a declared size is bounded before anything is read or
// allocated for it. Each Record's Data aliases the window and is valid
// only until fn returns. Recovery walks each segment with it.
func walkWAL(file *os.File, seed uint32, start, end int64, fn func(off int64, r Record) error) error {
	buf := make([]byte, min(end-start, walWindow))
	base, filled := start, start // buf[:filled-base] holds file bytes [base, filled)
	// load makes buf hold file bytes [off, off+n), sliding the unread part
	// of the window to its front (at most one partial record) and
	// refilling the rest with one read.
	load := func(off, n int64) error {
		if off+n <= filled {
			return nil
		}
		keep := filled - off
		if n > int64(len(buf)) {
			grown := make([]byte, n)
			copy(grown, buf[off-base:filled-base])
			buf = grown
		} else {
			copy(buf, buf[off-base:filled-base])
		}
		base = off
		top := min(int64(len(buf)), end-base)
		if _, err := file.ReadAt(buf[keep:top], filled); err != nil {
			return fmt.Errorf("chunklog: %s: read at offset %d: %w", file.Name(), filled, err)
		}
		filled = base + top
		return nil
	}
	for off := start; off < end; {
		if off+walHeader > end {
			return &corruptRecord{file.Name(), off, "has a short header"}
		}
		if err := load(off, walHeader); err != nil {
			return err
		}
		size := int64(binary.BigEndian.Uint32(buf[off-base+4+fp.Size:]))
		if size > walMaxRecord || off+walHeader+size > end {
			return &corruptRecord{file.Name(), off, fmt.Sprintf("declares %d payload bytes (limit %d, %d left in the segment)",
				size, walMaxRecord, end-off-walHeader)}
		}
		n := walHeader + size
		if err := load(off, n); err != nil {
			return err
		}
		rec := buf[off-base : off-base+n]
		if binary.BigEndian.Uint32(rec) != crc32.Update(seed, castagnoli, rec[4:]) {
			return &corruptRecord{file.Name(), off, "fails checksum"}
		}
		r := Record{Size: uint32(size), Data: rec[walHeader:n:n]}
		copy(r.FP[:], rec[4:])
		if err := fn(off, r); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// Sync makes every append before the call durable. The fsync runs
// *outside* the append lock: it snapshots the dirty count and the last
// segment, syncs, and subtracts only what it observed, so appends from
// concurrent sessions proceed while the disk flushes and bytes appended
// mid-sync stay dirty for the next one. (Earlier segments were synced
// when they were sealed.) A failed sync subtracts nothing — the
// unflushed tail remains dirty and a later Sync retries it (a reset
// counter here would let a later Sync or Close silently skip the tail).
// Concurrent Sync callers are serialised by syncMu; segment retirement
// waits for the fsync.
func (l *Log) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.retireMu.RLock()
	defer l.retireMu.RUnlock()
	l.mu.Lock()
	dirty, zeroed := l.dirty, l.zeroed
	var file *os.File
	if k := len(l.segs); k > 0 {
		file = l.segs[k-1].f
	}
	failFn := l.syncFailFn
	l.mu.Unlock()
	if file == nil || dirty == 0 {
		return nil
	}
	if failFn != nil {
		if err := failFn(); err != nil {
			return fmt.Errorf("chunklog: sync: %w", err)
		}
	}
	start := time.Now()
	if err := fsx.SyncData(file); err != nil {
		return fmt.Errorf("chunklog: sync: %w", err)
	}
	mWALFsyncs.Inc()
	mWALFsyncSeconds.Since(start)
	mWALSyncedBytes.Add(int64(dirty))
	l.mu.Lock()
	// A seal or a retirement while the fsync was in flight zeroed the
	// counter, every byte it counted then durable or consumed: what it
	// counts now lies in a later segment, not yet synced.
	if l.zeroed == zeroed {
		l.dirty -= dirty
	}
	l.mu.Unlock()
	return nil
}

// Close syncs outstanding WAL appends and releases the segment files, if
// any. Appends after Close fail.
func (l *Log) Close() error {
	if l.dir == "" {
		return nil
	}
	err := l.Sync()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return errors.Join(err, l.closeFiles())
}

// closeFiles closes every segment and spare file. Their bytes were synced
// when they were written, sealed or retired, or by Close's Sync.
//
// debarvet:holds mu -- Close enters with l.mu held; OpenWAL before the log is shared.
func (l *Log) closeFiles() error {
	var errs []error
	for _, s := range l.segs {
		errs = append(errs, s.f.Close())
	}
	for _, sp := range l.free {
		errs = append(errs, sp.f.Close())
	}
	l.segs, l.free = nil, nil
	return errors.Join(errs...)
}
