// Package chunklog implements the on-disk chunk log of dedup-1 (paper
// §5.1): chunks that pass the preliminary filter are appended to a local
// log as <F, D(F)> groups, to be read back sequentially by the chunk
// storing step of dedup-2 (§5.3). The log is strictly append-then-scan:
// dedup-1 appends, dedup-2 drains.
//
// A log can run in accounting mode (payload sizes recorded, bytes not
// retained), which is how the fingerprint-granularity experiments keep
// byte accounting exact without materialising terabytes (DESIGN.md §1.3).
package chunklog

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"debar/internal/disksim"
	"debar/internal/fp"
)

// Record is one <F, D(F)> group.
//
// Data is nil in accounting mode. A record handed to an Iterate callback
// borrows Data from the walk's read window: it is valid only until the
// callback returns, so a callback that keeps the payload copies it.
type Record struct {
	FP   fp.FP
	Size uint32
	Data []byte
}

const recordHeader = fp.Size + 4

// Log is a chunk log. Appends are serialised by a mutex. Iterate bounds
// its walk under that mutex and then walks without holding it, so the
// File Store (dedup-1 writer) keeps appending while the Chunk Store
// (dedup-2 reader) drains the log; records appended meanwhile lie past the
// bound and wait for the next pass. Consume and Reset must not run while a
// walk is in progress.
//
// The log is its own work queue: the records appended since the last
// Consume are exactly the chunks dedup-2 has yet to store. Pending
// snapshots their fingerprints together with a Mark bounding them, and
// Consume(mark) drops them once a pass has made them durable elsewhere.
//
// A Log is either memory-backed (NewMem) or a durable WAL (OpenWAL).
type Log struct {
	mu       sync.Mutex
	metaOnly bool
	recs     []Record // guarded by mu; memory log: the unconsumed records
	bytes    int64    // guarded by mu; payload bytes appended since the last truncation
	disk     *disksim.Disk
	file     *os.File // non-nil for WAL logs; set once at open

	// WAL mode (OpenWAL): checksummed record framing, owner-scheduled
	// fsync, torn-tail recovery. See wal.go.
	fps   []fp.FP // guarded by mu; fingerprints of the unconsumed records, in append order
	start int64   // guarded by mu; offset of the first unconsumed record
	end   int64   // guarded by mu; append offset
	dirty int     // guarded by mu; bytes appended since the last completed fsync

	// syncMu serialises Sync callers so the fsync itself runs outside mu
	// — appends proceed while the disk flushes — without two syncers
	// double-subtracting the same dirty bytes.
	syncMu sync.Mutex

	failFn     func() error // guarded by mu; fault injection: non-nil error fails the append
	syncFailFn func() error // guarded by mu; fault injection: non-nil error fails Sync
}

// SetFailFunc installs a fault-injection hook consulted before every
// append: a non-nil return fails the append with that error, simulating
// ENOSPC or media failure without touching the filesystem. nil clears
// the hook. Test-only; reads are unaffected.
func (l *Log) SetFailFunc(fn func() error) {
	l.mu.Lock()
	l.failFn = fn
	l.mu.Unlock()
}

// SetSyncFailFunc installs a fault-injection hook consulted by Sync
// before the fsync is issued: a non-nil return fails the Sync with that
// error, simulating a media failure at the sync layer. A failed Sync
// must leave the dirty counter intact — the unflushed tail still needs
// syncing — which is exactly the invariant the regression tests drive
// through this hook. nil clears it. Test-only.
func (l *Log) SetSyncFailFunc(fn func() error) {
	l.mu.Lock()
	l.syncFailFn = fn
	l.mu.Unlock()
}

// NewMem returns a memory-backed log. metaOnly drops payloads while
// keeping sizes. disk may be nil.
func NewMem(metaOnly bool, disk *disksim.Disk) *Log {
	return &Log{metaOnly: metaOnly, disk: disk}
}

// Append adds one <F, D(F)> group. size declares the payload length; data
// may be nil only in accounting mode. Charges a sequential write. The log
// takes a private copy of data; use AppendOwned when the caller hands
// over ownership and the copy can be skipped.
func (l *Log) Append(f fp.FP, size uint32, data []byte) error {
	return l.append(f, size, data, false)
}

// AppendOwned is Append for callers transferring ownership of data: the
// log retains the slice directly (memory-backed logs) instead of copying
// it. The caller must not modify data afterwards. The server's dedup-1
// path uses this to land network receive buffers in the log with zero
// copies.
func (l *Log) AppendOwned(f fp.FP, size uint32, data []byte) error {
	return l.append(f, size, data, true)
}

func (l *Log) append(f fp.FP, size uint32, data []byte, owned bool) error {
	if !l.metaOnly && len(data) != int(size) {
		return fmt.Errorf("chunklog: declared size %d != payload %d", size, len(data))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failFn != nil {
		if err := l.failFn(); err != nil {
			return fmt.Errorf("chunklog: append: %w", err)
		}
	}
	if l.file != nil {
		if err := l.appendWAL(f, size, data); err != nil {
			return err
		}
	} else {
		r := Record{FP: f, Size: size}
		if !l.metaOnly {
			if owned {
				r.Data = data
			} else {
				r.Data = append([]byte(nil), data...)
			}
		}
		l.recs = append(l.recs, r)
	}
	l.bytes += int64(size)
	if l.disk != nil {
		l.disk.SeqWrite(recordHeader + int64(size))
	}
	return nil
}

// Count returns the number of unconsumed records.
func (l *Log) Count() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(l.Len())
}

// Bytes returns the payload bytes appended since the log was last
// truncated.
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// Mark is a position in the log returned by Pending: it bounds the
// records whose fingerprints that call returned. A mark is only valid
// until the log is next truncated (Consume reaching the end, or Reset).
type Mark struct {
	off int64 // WAL: append offset when the mark was taken
	n   int   // unconsumed records the mark covers
}

// Pending returns the fingerprints of every record appended since the
// last Consume, in append order, and the Mark bounding them. Fingerprint
// and mark are taken together under the log's lock, so each appended
// record is in exactly one Pending snapshot before it is consumed. The
// returned slice must not be modified.
func (l *Log) Pending() ([]fp.FP, Mark) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file != nil {
		// Appends only ever write past len(l.fps), so the capped slice is
		// an immutable snapshot without a copy.
		n := len(l.fps)
		return l.fps[:n:n], Mark{off: l.end, n: n}
	}
	fps := make([]fp.FP, len(l.recs))
	for i, r := range l.recs {
		fps[i] = r.FP
	}
	return fps, Mark{n: len(l.recs)}
}

// Consume drops the records up to m: later Pending calls and walks start
// after them. When nothing was appended past m the log is empty and is
// truncated, durably for a WAL; otherwise the file is kept and only the
// in-memory start cursor moves, so a reopened WAL replays the consumed
// records too (their chunks are stored, and dedup-2 discards them as
// duplicates).
func (l *Log) Consume(m Mark) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if m.n == l.Len() {
		return l.truncate()
	}
	if l.file != nil {
		l.fps, l.start = l.fps[m.n:], m.off
	} else {
		l.recs = l.recs[m.n:]
	}
	return nil
}

// Iterate sequentially reads the unconsumed records, invoking fn per group
// in append order. Charges one sequential read over the log. Under the
// log's lock it only snapshots the walk's bounds — the start and append
// offsets of a WAL, the record slice of a memory log — and then walks the
// records appended before the call without the lock, so appends proceed
// while fn runs (they land past the bound and wait for the next walk) and
// concurrent Iterate calls do not serialise. The Record's Data is valid
// only during fn (see Record).
func (l *Log) Iterate(fn func(Record) error) error {
	l.mu.Lock()
	if l.disk != nil {
		l.disk.SeqRead(l.bytes + int64(l.Len())*recordHeader)
	}
	// Appends only ever append, so the slice header is an immutable prefix
	// even while the log grows underneath.
	start, end, recs := l.start, l.end, l.recs
	l.mu.Unlock()
	if l.file != nil {
		return walkWAL(l.file, start, end, fn)
	}
	for _, r := range recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the unconsumed record count without locking.
//
// debarvet:holds mu -- the caller holds l.mu.
func (l *Log) Len() int {
	if l.file != nil {
		return len(l.fps)
	}
	return len(l.recs)
}

// Reset discards all records. In WAL mode the truncation is made durable
// immediately, so a recovered WAL does not replay them.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncate()
}

// truncate empties the log and, for a WAL, durably truncates the file. A
// failed truncation leaves the log as it was; the state follows the file.
//
// debarvet:holds mu -- Reset and Consume enter with l.mu held.
func (l *Log) truncate() error {
	if l.file != nil {
		if err := l.file.Truncate(0); err != nil {
			return fmt.Errorf("chunklog: truncate: %w", err)
		}
	}
	l.recs, l.fps = nil, nil
	l.bytes = 0
	l.start, l.end = 0, 0
	l.dirty = 0
	if l.file != nil {
		if err := l.file.Sync(); err != nil {
			return fmt.Errorf("chunklog: truncate sync: %w", err)
		}
	}
	return nil
}

// Close syncs outstanding WAL appends and releases the file, if any.
func (l *Log) Close() error {
	if l.file == nil {
		return nil
	}
	return errors.Join(l.Sync(), l.file.Close())
}
