package chunklog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"time"

	"debar/internal/fp"
	"debar/internal/fsx"
	"debar/internal/obs"
)

// WAL metrics: append volume/latency and the fsync distribution. The
// fsync series pairs with store_commit_wal_* (group-commit scheduling)
// — fsyncs here are the syncs those windows resolve into.
var (
	mWALAppendBytes   = obs.GetCounter("store_wal_append_bytes_total")
	mWALAppendSeconds = obs.GetHistogram("store_wal_append_seconds", obs.DurationBuckets)
	mWALFsyncs        = obs.GetCounter("store_wal_fsyncs_total")
	mWALFsyncSeconds  = obs.GetHistogram("store_wal_fsync_seconds", obs.DurationBuckets)
	mWALSyncedBytes   = obs.GetCounter("store_wal_synced_bytes_total")
)

// WAL mode turns the chunk log into a durable write-ahead log: every
// record is framed with a CRC32-C checksum so a torn tail (a crash mid
// append) is detected and truncated on open.
//
// WAL record framing:
//
//	+-------------+---------+------------+----------------+
//	| crc32c (u32)| fp (20) | size (u32) | data (size B)  |
//	+-------------+---------+------------+----------------+
//
// The checksum covers fingerprint, size and data. Recovery scans from the
// start of the file and truncates at the first record whose header is
// short, whose declared size is implausible, or whose checksum mismatches:
// everything before that point is a complete prefix of the appended
// stream (a zero-filled tail, which a crash can leave when the file size
// reached disk before the data did, fails the scan the same way a torn
// record does). Append never fsyncs: the log's owner schedules Sync. In
// the storage engine that owner is the "wal" group committer, and the
// backup server answers BackupEnd only after a sync covering every chunk
// the run references, so a completed run's chunks are always recoverable
// — see internal/store/README.md ("Consistency model"). A truncation (a Drain
// that caught up, or Reset) and Close always sync. The recovered prefix
// is always a consistent replay point.

// walHeader is the serialised record header: checksum + fingerprint + size.
const walHeader = 4 + fp.Size + 4

// walMaxRecord bounds a sane record payload during recovery scanning: a
// declared size beyond this is treated as a torn/corrupt tail rather than
// followed into the void. Chunks are bounded by the container size (8 MB
// default), so 256 MB is far above any legitimate record.
const walMaxRecord = 256 << 20

// walWindow is the read window walkWAL streams the log through: one
// positional read per window rather than an allocation and two reads per
// record. A record larger than the window grows it for the rest of the
// walk.
const walWindow = 4 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// corruptRecord reports a record whose framing or checksum is invalid.
// Recovery truncates the log at off; a walk of a recovered log returns it
// as an error, since the damage happened after the log was opened.
type corruptRecord struct {
	off int64
	why string
}

func (e *corruptRecord) Error() string {
	return fmt.Sprintf("chunklog: wal record at offset %d %s (media corruption?)", e.off, e.why)
}

// OpenWAL opens (creating if needed) a durable chunk-log WAL at path,
// recovering any existing records. Every recovered record is pending and
// Logged: the start cursor is not persisted, so records a drain consumed
// without truncating the file replay too, and dedup-2 discards them as
// duplicates.
func OpenWAL(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("chunklog: open wal: %w", err)
	}
	l := &Log{file: f, logged: make(map[fp.FP]int32)}
	if err := l.recoverWAL(); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return l, nil
}

// recoverWAL scans the WAL, accepting the longest prefix of complete,
// checksum-valid records and truncating the file after it.
//
//debarvet:ignore guardedby -- recovery runs inside OpenWAL before the log is shared; no other goroutine exists yet
func (l *Log) recoverWAL() error {
	st, err := l.file.Stat()
	if err != nil {
		return fmt.Errorf("chunklog: wal stat: %w", err)
	}
	fileSize := st.Size()
	err = walkWAL(l.file, 0, fileSize, func(r Record) error {
		l.fps = append(l.fps, r.FP)
		l.logged[r.FP]++
		l.bytes += int64(r.Size)
		return nil
	})
	off := fileSize
	var bad *corruptRecord
	if errors.As(err, &bad) {
		off = bad.off // short header, implausible length or bad checksum: torn tail
	} else if err != nil {
		return err
	}
	if off < fileSize {
		// Truncating covers both a torn tail and a zero-filled one (zeros
		// fail the checksum scan the same way), so the next append lands
		// at the logical end.
		if err := l.file.Truncate(off); err != nil {
			return fmt.Errorf("chunklog: wal truncating torn tail: %w", err)
		}
		if err := l.file.Sync(); err != nil {
			return fmt.Errorf("chunklog: wal sync after truncate: %w", err)
		}
	}
	l.end = off
	return nil
}

// appendWAL writes one checksummed record at the end of the WAL. It
// never fsyncs: the record is durable once a later Sync returns.
//
// debarvet:holds mu -- Append enters WAL mode with l.mu held.
func (l *Log) appendWAL(f fp.FP, size uint32, data []byte) error {
	defer mWALAppendSeconds.Since(time.Now())
	n := walHeader + len(data)
	if cap(l.frame) < n {
		l.frame = make([]byte, n)
	}
	rec := l.frame[:n]
	copy(rec[4:], f[:])
	binary.BigEndian.PutUint32(rec[4+fp.Size:], size)
	copy(rec[walHeader:], data)
	binary.BigEndian.PutUint32(rec[:4], crc32.Checksum(rec[4:], castagnoli))
	if _, err := l.file.WriteAt(rec, l.end); err != nil {
		return fmt.Errorf("chunklog: wal append: %w", err)
	}
	l.end += int64(len(rec))
	l.dirty += len(rec)
	mWALAppendBytes.Add(int64(len(rec)))
	return nil
}

// walkWAL replays the records of file in [start, end) in append order,
// streaming the file through one reused read window and verifying every
// record's checksum in place (corruption after recovery — bad sectors —
// surfaces here rather than as a wrong chunk in a container). A record
// whose framing or checksum is invalid stops the walk with a
// *corruptRecord naming its offset; a declared size is bounded before
// anything is read or allocated for it. Each Record's Data aliases the
// window and is valid only until fn returns. Recovery walks the whole
// file, Log.Iterate the unconsumed records below the append offset it
// snapshots, and a Txn its own records.
func walkWAL(file *os.File, start, end int64, fn func(Record) error) error {
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
			return fmt.Errorf("chunklog: wal read at offset %d: %w", filled, err)
		}
		filled = base + top
		return nil
	}
	for off := start; off < end; {
		if off+walHeader > end {
			return &corruptRecord{off, "has a short header"}
		}
		if err := load(off, walHeader); err != nil {
			return err
		}
		size := int64(binary.BigEndian.Uint32(buf[off-base+4+fp.Size:]))
		if size > walMaxRecord || off+walHeader+size > end {
			return &corruptRecord{off, fmt.Sprintf("declares %d payload bytes (limit %d, %d left in the log)",
				size, walMaxRecord, end-off-walHeader)}
		}
		n := walHeader + size
		if err := load(off, n); err != nil {
			return err
		}
		rec := buf[off-base : off-base+n]
		if binary.BigEndian.Uint32(rec) != crc32.Checksum(rec[4:], castagnoli) {
			return &corruptRecord{off, "fails checksum"}
		}
		r := Record{Size: uint32(size), Data: rec[walHeader:n:n]}
		copy(r.FP[:], rec[4:])
		if err := fn(r); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// Sync makes every append before the call durable. The fsync runs
// *outside* the append lock: it snapshots the dirty count, syncs, and
// subtracts only what it observed, so appends from concurrent sessions
// proceed while the disk flushes and bytes appended mid-sync stay dirty
// for the next one. A failed sync subtracts nothing — the unflushed
// tail remains dirty and a later Sync retries it (a reset counter here
// would let a later Sync or Close silently skip the tail). Concurrent
// Sync callers are serialised by syncMu.
func (l *Log) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	dirty := l.dirty
	file := l.file
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
	// Clamp rather than subtract blindly: a concurrent Reset may have
	// zeroed the counter while the fsync was in flight.
	if l.dirty >= dirty {
		l.dirty -= dirty
	} else {
		l.dirty = 0
	}
	l.mu.Unlock()
	return nil
}
