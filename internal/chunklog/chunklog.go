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
// bound and wait for the next pass. Reset must not run while a walk or a
// Drain is in progress.
//
// The log is its own work queue: the records appended since the last
// Drain are exactly the chunks dedup-2 has yet to store, and the log
// keeps their fingerprints as a set (Logged) so dedup-1 never transfers
// or logs a chunk twice. Drain runs one dedup-2 pass as a transaction
// over them.
//
// A Log is either memory-backed (NewMem) or a durable WAL (OpenWAL).
type Log struct {
	mu       sync.Mutex
	metaOnly bool
	recs     []Record        // guarded by mu; memory log: the unconsumed records
	fps      []fp.FP         // guarded by mu; fingerprints of the unconsumed records, in append order
	logged   map[fp.FP]int32 // guarded by mu; unconsumed records per fingerprint (no zero counts)
	bytes    int64           // guarded by mu; payload bytes appended since the last truncation
	disk     *disksim.Disk
	file     *os.File // non-nil for WAL logs; set once at open

	// WAL mode (OpenWAL): checksummed record framing, owner-scheduled
	// fsync, torn-tail recovery. See wal.go.
	start int64  // guarded by mu; offset of the first unconsumed record
	end   int64  // guarded by mu; append offset
	dirty int    // guarded by mu; bytes appended since the last completed fsync
	frame []byte // guarded by mu; appendWAL's record buffer, grown to the largest record

	// drainMu serialises Drain: one transaction at a time owns the
	// unconsumed records.
	drainMu sync.Mutex

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
	return &Log{metaOnly: metaOnly, disk: disk, logged: make(map[fp.FP]int32)}
}

// Append adds one <F, D(F)> group. size declares the payload length; data
// may be nil only in accounting mode. Charges a sequential write. The log
// takes a private copy of data; use AppendOwned when the caller hands
// over ownership and the copy can be skipped.
func (l *Log) Append(f fp.FP, size uint32, data []byte) error {
	_, err := l.append(f, size, data, false, false)
	return err
}

// AppendOwned is Append for callers transferring ownership of data: the
// log retains the slice directly (memory-backed logs) instead of copying
// it. The caller must not modify data afterwards.
func (l *Log) AppendOwned(f fp.FP, size uint32, data []byte) error {
	_, err := l.append(f, size, data, true, false)
	return err
}

// AppendNew is AppendOwned for a chunk the log does not hold yet: when an
// unconsumed record already has f's fingerprint it appends nothing and
// reports false. Check and append are one step under the log's lock, so
// concurrent sessions racing the same content log it once. The server's
// dedup-1 path uses this to land network receive buffers in the log.
func (l *Log) AppendNew(f fp.FP, size uint32, data []byte) (bool, error) {
	return l.append(f, size, data, true, true)
}

func (l *Log) append(f fp.FP, size uint32, data []byte, owned, once bool) (bool, error) {
	if !l.metaOnly && len(data) != int(size) {
		return false, fmt.Errorf("chunklog: declared size %d != payload %d", size, len(data))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if once && l.logged[f] > 0 {
		return false, nil
	}
	if l.failFn != nil {
		if err := l.failFn(); err != nil {
			return false, fmt.Errorf("chunklog: append: %w", err)
		}
	}
	if l.file != nil {
		if err := l.appendWAL(f, size, data); err != nil {
			return false, err
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
	l.fps = append(l.fps, f)
	l.logged[f]++
	l.bytes += int64(size)
	if l.disk != nil {
		l.disk.SeqWrite(recordHeader + int64(size))
	}
	return true, nil
}

// Logged reports, for each fingerprint, whether an unconsumed record
// holds its chunk. One lock acquisition answers the whole batch.
func (l *Log) Logged(fps []fp.FP) []bool {
	held := make([]bool, len(fps))
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, f := range fps {
		held[i] = l.logged[f] > 0
	}
	return held
}

// Count returns the number of unconsumed records.
func (l *Log) Count() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(len(l.fps))
}

// Bytes returns the payload bytes appended since the log was last
// truncated.
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// Pending returns the fingerprints of the unconsumed records, in append
// order. The returned slice must not be modified.
func (l *Log) Pending() []fp.FP {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Appends only ever write past len(l.fps), so the capped slice is an
	// immutable snapshot without a copy.
	return l.fps[:len(l.fps):len(l.fps)]
}

// Txn is one Drain's share of the log: the records that were unconsumed
// when the drain began. Records appended during the drain lie past it.
type Txn struct {
	FPs []fp.FP // the records' fingerprints, in append order

	l          *Log
	start, end int64    // WAL: the records' byte range
	recs       []Record // memory log: the records
}

// Iterate walks the transaction's records in append order, like
// Log.Iterate but bounded at the transaction's end, so a pass reads
// exactly the records it consumes.
func (t *Txn) Iterate(fn func(Record) error) error {
	return t.l.walk(t.start, t.end, t.recs, fn)
}

// Drain runs fn as one transaction over the unconsumed records: fn gets
// them as a Txn and may take as long as it needs, while appends continue
// past the transaction. When fn returns nil, the transaction's records
// are consumed: later Pending calls, walks and drains start after them,
// and their fingerprints leave the Logged set. If nothing was appended
// past them the log is then empty and is truncated, durably for a WAL;
// otherwise only the in-memory start cursor moves, so a reopened WAL
// replays the consumed records too (their chunks are stored, and dedup-2
// discards them as duplicates). When fn fails, nothing is consumed and
// the records wait for the next drain. Drains are serialised; fn must
// not call Drain.
func (l *Log) Drain(fn func(*Txn) error) error {
	l.drainMu.Lock()
	defer l.drainMu.Unlock()
	l.mu.Lock()
	n := len(l.fps)
	t := &Txn{FPs: l.fps[:n:n], l: l, start: l.start, end: l.end, recs: l.recs[:len(l.recs):len(l.recs)]}
	l.mu.Unlock()
	if err := fn(t); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n == len(l.fps) {
		return l.truncate()
	}
	for _, f := range t.FPs {
		if l.logged[f]--; l.logged[f] == 0 {
			delete(l.logged, f)
		}
	}
	l.fps, l.recs, l.start = l.fps[n:], l.recs[len(t.recs):], t.end
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
	// Appends only ever append, so the slice header is an immutable prefix
	// even while the log grows underneath.
	start, end, recs := l.start, l.end, l.recs
	l.mu.Unlock()
	return l.walk(start, end, recs, fn)
}

// walk visits the WAL records in [start, end), or the memory records
// recs, charging the memory log's simulated disk one sequential read.
func (l *Log) walk(start, end int64, recs []Record, fn func(Record) error) error {
	if l.file != nil {
		return walkWAL(l.file, start, end, fn)
	}
	if l.disk != nil {
		var n int64
		for _, r := range recs {
			n += recordHeader + int64(r.Size)
		}
		l.disk.SeqRead(n)
	}
	for _, r := range recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
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
// debarvet:holds mu -- Reset and Drain enter with l.mu held.
func (l *Log) truncate() error {
	if l.file != nil {
		if err := l.file.Truncate(0); err != nil {
			return fmt.Errorf("chunklog: truncate: %w", err)
		}
	}
	l.recs, l.fps = nil, nil
	l.logged = make(map[fp.FP]int32)
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
