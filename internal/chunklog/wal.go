package chunklog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"debar/internal/fp"
	"debar/internal/fsx"
	"debar/internal/obs"
	"debar/internal/seglog"
)

// WAL metrics: append volume and latency. The log's fsyncs and segment
// bring-ups are counted by internal/seglog under store_wal_*.
var (
	mWALAppendBytes   = obs.GetCounter("store_wal_append_bytes_total")
	mWALAppendSeconds = obs.GetHistogram("store_wal_append_seconds", obs.DurationBuckets)
	mLockSeconds      = obs.GetHistogram("store_wal_append_lock_seconds", obs.DurationBuckets)
)

// The chunk log is a durable write-ahead log: a segmented log
// (internal/seglog) of fixed-size segment files wal-<seq>.log whose
// frames are records
//
//	+--------------+-----------+---------+------------------+
//	| crc32c (u32) | len (u32) | fp (20) | data (len-20 B)  |
//	+--------------+-----------+---------+------------------+
//
// Rotation, torn-tail recovery, refusal of damage in a sealed segment and
// recycling are seglog's. A drain retires every segment whose records it
// consumed, so the WAL's bytes on disk stay within its unconsumed records
// plus what the latest drain retired, and a backup overwrites recycled
// blocks instead of allocating new ones.
//
// Append never fsyncs: seglog's flusher syncs the records in the
// background, and Sync is the barrier. The backup server answers
// BackupEnd only after a Sync covering every chunk the run references, so
// a completed run's chunks are always recoverable — see
// internal/store/README.md ("Consistency model").

const (
	// walVersion is the WAL format this build reads and writes. Version 1
	// was a single file of unseeded records without a header; version 2
	// framed records crc32c | fp | size | data.
	walVersion = 3

	// segmentBytes is a WAL segment's capacity. A record larger than a
	// whole segment gets a segment of its own.
	segmentBytes = 64 << 20

	// walHeader is a record's framing: the frame header and fingerprint.
	walHeader = seglog.FrameHeader + fp.Size

	// walWindow bounds one coalesced read of adjacent records.
	walWindow = seglog.Window
)

// LegacyName is the file name of the format-1 WAL, a single file kept
// beside the rest of a data directory.
const LegacyName = "chunklog.wal"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var walFormat = seglog.Format{Name: "wal", Prefix: "wal", Magic: "DWAL", Version: walVersion, Older: olderWAL}

// recLoc is where a record lives: its frame's position and its payload
// size. The log keeps one per unconsumed record, so it is kept small.
type recLoc struct {
	seglog.Pos
	size uint32
}

// VersionError reports a WAL in a format this build does not read.
type VersionError struct{ Found, Want int }

func (e *VersionError) Error() string {
	return fmt.Sprintf("chunklog: wal format version %d, this build reads version %d", e.Found, e.Want)
}

// olderWAL refuses a segment of an older format that holds a record. A
// format-2 segment (records crc32c | fp | size | data, checksummed like
// format 3's frames) whose first record is torn or fails its checksum
// holds none — format 2's recovery kept none of it, the state a caught-up
// pass leaves — and becomes a spare.
func olderWAL(r io.ReaderAt, version uint32, seq uint64) error {
	if version != 2 {
		return &VersionError{Found: int(version), Want: walVersion}
	}
	const v2MaxRecord = 256 << 20 // format 2's recovery bound
	var h [4 + fp.Size + 4]byte
	_, err := r.ReadAt(h[:], seglog.HeaderSize)
	size := int64(binary.BigEndian.Uint32(h[4+fp.Size:]))
	var rec []byte
	if err == nil && size <= v2MaxRecord {
		rec = make([]byte, int64(len(h))+size)
		_, err = r.ReadAt(rec, seglog.HeaderSize)
	}
	switch {
	case err != nil && !errors.Is(err, io.EOF):
		return err
	case err == nil && rec != nil && binary.BigEndian.Uint32(rec) == crc32.Update(uint32(seq), castagnoli, rec[4:]):
		return &VersionError{Found: 2, Want: walVersion}
	}
	return nil
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

// openWAL is OpenWAL with segments of segBytes.
//
//debarvet:ignore guardedby -- recovery fills the log before it is shared; no other goroutine exists yet
func openWAL(dir string, segBytes int64) (*Log, error) {
	l := &Log{index: make(map[fp.FP]held)}
	wal, err := seglog.Open(dir, walFormat, segBytes, func(p seglog.Pos, n uint32, payload []byte) bool {
		if n < fp.Size {
			return false
		}
		var f fp.FP
		copy(f[:], payload)
		h, ok := l.index[f]
		if !ok {
			h.rec = uint32(len(l.locs))
		}
		h.n++
		l.index[f] = h
		l.fps = append(l.fps, f)
		l.locs = append(l.locs, recLoc{Pos: p, size: n - fp.Size})
		return true
	})
	if ve := (*seglog.VersionError)(nil); errors.As(err, &ve) {
		return nil, fmt.Errorf("chunklog: %s: %w", ve.Path, &VersionError{Found: int(ve.Found), Want: int(ve.Want)})
	} else if err != nil {
		return nil, fmt.Errorf("chunklog: open wal: %w", err)
	}
	l.wal = wal
	return l, nil
}

// appendWAL writes the records of the chunks l.batch names, chunk i of
// fingerprint fps[i] and payload data[i], at the end of the log: laid out
// back to back in the log's frame buffer and written with one write per
// segment they land in. It returns how many, from the first, were
// written, and records where each of them lives. It never fsyncs the
// records: they are durable once a later Sync returns.
//
// debarvet:holds mu -- append enters with l.mu held.
func (l *Log) appendWAL(fps []fp.FP, data [][]byte) (int, error) {
	defer mWALAppendSeconds.Since(time.Now())
	total := 0
	l.sizes = l.sizes[:0]
	for _, i := range l.batch {
		l.sizes = append(l.sizes, walHeader+len(data[i]))
		total += walHeader + len(data[i])
	}
	if cap(l.frame) < total {
		l.frame = make([]byte, total)
	}
	buf := l.frame[:total]
	off := 0
	for k, i := range l.batch {
		copy(buf[off+seglog.FrameHeader:], fps[i][:])
		copy(buf[off+walHeader:], data[i])
		off += l.sizes[k]
	}
	l.pos = slices.Grow(l.pos[:0], len(l.sizes))[:len(l.sizes)]
	n, err := l.wal.AppendFrames(buf, l.sizes, l.pos)
	var appended int
	for k, p := range l.pos[:n] {
		l.locs = append(l.locs, recLoc{Pos: p, size: uint32(l.sizes[k] - walHeader)})
		appended += l.sizes[k]
	}
	mWALAppendBytes.Add(int64(appended))
	if err != nil {
		return n, fmt.Errorf("chunklog: wal append: %w", err)
	}
	return n, nil
}

// decode checks rec, the bytes read at loc in s, against its checksum
// and the fingerprint f logged for it, and returns the record, its Data
// aliasing rec.
func decode(s *seglog.Segment, loc recLoc, rec []byte, f fp.FP) (Record, error) {
	payload, err := s.Payload(int64(loc.Off), rec)
	if err != nil {
		return Record{}, err
	}
	r := Record{Size: loc.size, Data: payload[fp.Size:len(payload):len(payload)]}
	copy(r.FP[:], payload)
	if r.FP != f {
		return Record{}, fmt.Errorf("chunklog: record at offset %d holds fingerprint %s, %s was logged (media corruption?)",
			loc.Off, r.FP.Short(), f.Short())
	}
	return r, nil
}

// readLocs reads the records at locs in wal, whose fingerprints are fps,
// in order, and hands fn each one keep accepts (every one when keep is nil),
// checked against its checksum and position. Runs of accepted records
// that lie back to back in one segment are read with one positional read
// per window, through one reused buffer; a rejected record is never
// read. Each Record's Data aliases the buffer and is valid only until fn
// returns. It returns the bytes read.
func readLocs(wal *seglog.Log, locs []recLoc, fps []fp.FP, keep func(fp.FP, uint32) bool, fn func(Record) error) (int64, error) {
	var buf []byte
	var read int64
	// flush reads and visits locs[lo:hi], which lie back to back.
	flush := func(lo, hi int) error {
		first, last := locs[lo], locs[hi-1]
		s := wal.Segment(first.Seg)
		n := int64(last.Off) + walHeader + int64(last.size) - int64(first.Off)
		if int64(cap(buf)) < n {
			buf = make([]byte, max(n, min(4*n, walWindow)))
		}
		b := buf[:n]
		if err := s.ReadAt(b, int64(first.Off)); err != nil {
			return err
		}
		read += n
		for i := lo; i < hi; i++ {
			at := int64(locs[i].Off - first.Off)
			r, err := decode(s, locs[i], b[at:at+walHeader+int64(locs[i].size)], fps[i])
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
		off := int64(loc.Off)
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
		if lo >= 0 && (loc.Seg != locs[lo].Seg || off != next || end-int64(locs[lo].Off) > walWindow) {
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
// drain consumed it and it is stored. The read holds off segment
// retirement, so it never lands in a renamed or recycled file.
func (l *Log) ReadChunk(f fp.FP) ([]byte, bool, error) {
	l.retireMu.RLock()
	defer l.retireMu.RUnlock()
	l.mu.Lock()
	h, ok := l.index[f]
	var loc recLoc
	if ok {
		loc = l.locs[h.rec-l.first]
	}
	l.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	s := l.wal.Segment(loc.Seg)
	rec := make([]byte, walHeader+int64(loc.size))
	if err := s.ReadAt(rec, int64(loc.Off)); err != nil {
		return nil, false, err
	}
	r, err := decode(s, loc, rec, f)
	if err != nil {
		return nil, false, err
	}
	return r.Data, true, nil
}

// Sync is the WAL's barrier (seglog.Log.Sync): it returns once every
// append before the call is durable, or the first failed fsync.
func (l *Log) Sync() error { return l.wal.Sync() }

// Err returns the WAL's first failed fsync, nil while none has failed.
func (l *Log) Err() error { return l.wal.Err() }

// Close syncs outstanding appends, stops the WAL's flusher and releases
// the segment files. Appends after Close fail; after a failed fsync,
// Close returns that first error.
func (l *Log) Close() error {
	l.retireMu.RLock()
	defer l.retireMu.RUnlock()
	return l.wal.Close()
}
