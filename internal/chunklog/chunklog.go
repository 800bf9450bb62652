// Package chunklog implements the on-disk chunk log of dedup-1 (paper
// §5.1): chunks that pass the preliminary filter are appended to a local
// log as <F, D(F)> groups, to be read back by the chunk storing step of
// dedup-2 (§5.3). The log is strictly append-then-drain: dedup-1 appends,
// dedup-2 drains. A durable log knows where each unconsumed record lives,
// so a drain reads back only the records it keeps.
//
// A log can run in accounting mode (payload sizes recorded, bytes not
// retained), which is how the fingerprint-granularity experiments keep
// byte accounting exact without materialising terabytes (DESIGN.md §1.3).
package chunklog

import (
	"fmt"
	"sync"
	"time"

	"debar/internal/disksim"
	"debar/internal/fp"
	"debar/internal/seglog"
)

// Record is one <F, D(F)> group.
//
// Data is nil in accounting mode. A record handed to an Iterate or Select
// callback borrows Data from the walk's read window: it is valid only
// until the callback returns, so a callback that keeps the payload copies
// it.
type Record struct {
	FP   fp.FP
	Size uint32
	Data []byte
}

const recordHeader = fp.Size + 4

// held is the log's entry for a fingerprint with unconsumed records.
type held struct {
	n   int32  // unconsumed records of the fingerprint (never 0 in the map)
	rec uint32 // WAL: the number of the first of them (see Log.first)
}

// Log is a chunk log. Appends are serialised by a mutex. Iterate bounds
// its walk under that mutex and then walks without holding it, so the
// File Store (dedup-1 writer) keeps appending while the Chunk Store
// (dedup-2 reader) drains the log; records appended meanwhile lie past the
// bound and wait for the next pass. Reset must not run while a walk or a
// Drain is in progress.
//
// The log is its own work queue: the records appended since the last
// Drain are exactly the chunks dedup-2 has yet to store, and the log
// keeps their fingerprints (Logged), with each one's position in a WAL,
// so dedup-1 never transfers or logs a chunk twice and a restore can
// read a chunk no pass has stored yet (ReadChunk). Drain runs one dedup-2
// pass as a transaction over them.
//
// A Log is either memory-backed (NewMem) or a durable, segmented WAL
// (OpenWAL; see wal.go).
type Log struct {
	mu       sync.Mutex
	metaOnly bool
	recs     []Record       // guarded by mu; memory log: the unconsumed records
	fps      []fp.FP        // guarded by mu; fingerprints of the unconsumed records, in append order
	locs     []recLoc       // guarded by mu; WAL: positions of the unconsumed records, parallel to fps
	first    uint32         // guarded by mu; WAL: the number of the oldest unconsumed record, locs[0] (numbers wrap)
	index    map[fp.FP]held // guarded by mu; every fingerprint with an unconsumed record
	bytes    int64          // guarded by mu; payload bytes appended since the log was last emptied
	disk     *disksim.Disk

	// WAL mode (OpenWAL): a segmented log of records. See wal.go.
	wal *seglog.Log // set once at open; nil for a memory log

	// An append's scratch, reused so that a steady stream of batches
	// allocates nothing: the batch's chunks to log, and (WAL) their
	// records back to back, the records' sizes and their positions.
	batch []int        // guarded by mu
	frame []byte       // guarded by mu; grown to the largest batch
	sizes []int        // guarded by mu
	pos   []seglog.Pos // guarded by mu

	// drainMu serialises Drain: one transaction at a time owns the
	// unconsumed records.
	drainMu sync.Mutex

	// retireMu orders segment retirement after every use of a segment
	// file: ReadChunk, Iterate and Select hold it shared while they
	// resolve and read positions, Sync while it fsyncs, and a drain
	// retiring segments holds it exclusively, so no read lands in a
	// renamed or recycled file and no fsync in a closed one.
	retireMu sync.RWMutex

	failFn func() error // guarded by mu; fault injection: non-nil error fails the append
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

// SetSyncFailFunc installs a fault-injection hook consulted by a WAL's
// Sync before the fsync: a non-nil return fails the Sync as a media
// failure would, leaving the unsynced tail dirty. nil clears it.
// Test-only.
func (l *Log) SetSyncFailFunc(fn func() error) { l.wal.SetFaults(seglog.Faults{Sync: fn}) }

// NewMem returns a memory-backed log. metaOnly drops payloads while
// keeping sizes. disk may be nil.
func NewMem(metaOnly bool, disk *disksim.Disk) *Log {
	return &Log{metaOnly: metaOnly, disk: disk, index: make(map[fp.FP]held)}
}

// Append adds one <F, D(F)> group. size declares the payload length; data
// may be nil only in accounting mode. Charges a sequential write. The log
// takes a private copy of data; use AppendOwned when the caller hands
// over ownership and the copy can be skipped.
func (l *Log) Append(f fp.FP, size uint32, data []byte) error {
	_, _, err := l.append([]fp.FP{f}, []uint32{size}, [][]byte{data}, false, false)
	return err
}

// AppendOwned is Append for callers transferring ownership of data: the
// log retains the slice directly (memory-backed logs) instead of copying
// it. The caller must not modify data afterwards.
func (l *Log) AppendOwned(f fp.FP, size uint32, data []byte) error {
	_, _, err := l.append([]fp.FP{f}, []uint32{size}, [][]byte{data}, true, false)
	return err
}

// AppendNew is AppendOwned for a chunk the log does not hold yet: when an
// unconsumed record already has f's fingerprint it appends nothing and
// reports false. Check and append are one step under the log's lock, so
// concurrent sessions racing the same content log it once.
func (l *Log) AppendNew(f fp.FP, size uint32, data []byte) (bool, error) {
	n, _, err := l.append([]fp.FP{f}, []uint32{size}, [][]byte{data}, true, true)
	return n == 1, err
}

// AppendNewBatch is AppendNew for a batch of chunks, data[i] of
// fingerprint fps[i]: it logs, in order, each chunk that no unconsumed
// record holds and no earlier chunk of the batch repeats, and returns how
// many it logged and their payload bytes. The checks and appends of the
// whole batch are one step under the log's lock, and a WAL writes the
// batch's records with one write per segment they land in. A WAL copies
// every payload into its own buffer, so the caller may reuse data's
// memory once the call returns; a memory log retains the slices, like
// AppendOwned. After a failed write the log holds, and Logged reports,
// only the records written before it. The server's dedup-1 path logs
// each ChunkBatch with it.
func (l *Log) AppendNewBatch(fps []fp.FP, data [][]byte) (int, int64, error) {
	return l.append(fps, nil, data, true, true)
}

// append logs the chunks of one batch: chunk i has fingerprint fps[i],
// payload data[i] and declared size sizes[i] (len(data[i]) when sizes is
// nil). owned and once are AppendOwned's and AppendNew's. It returns the
// records appended and their payload bytes.
func (l *Log) append(fps []fp.FP, sizes []uint32, data [][]byte, owned, once bool) (int, int64, error) {
	if len(fps) != len(data) || sizes != nil && len(sizes) != len(fps) {
		return 0, 0, fmt.Errorf("chunklog: %d fingerprints for %d payloads", len(fps), len(data))
	}
	size := func(i int) uint32 {
		if sizes == nil {
			return uint32(len(data[i]))
		}
		return sizes[i]
	}
	for i := range fps {
		if !l.metaOnly && len(data[i]) != int(size(i)) {
			return 0, 0, fmt.Errorf("chunklog: declared size %d != payload %d", size(i), len(data[i]))
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wal != nil {
		defer mLockSeconds.Since(time.Now())
	}
	// Index the batch's records before anything is written, so that a
	// fingerprint the batch repeats is found; the records a failed write
	// leaves out are taken back out below.
	l.batch = l.batch[:0]
	for i, f := range fps {
		h, ok := l.index[f]
		if once && ok {
			continue
		}
		if !ok {
			h.rec = l.first + uint32(len(l.fps)+len(l.batch))
		}
		h.n++
		l.index[f] = h
		l.batch = append(l.batch, i)
	}
	if len(l.batch) == 0 {
		return 0, 0, nil
	}
	var err error
	if l.failFn != nil {
		err = l.failFn()
		if err != nil {
			err = fmt.Errorf("chunklog: append: %w", err)
		}
	}
	written := 0
	switch {
	case err != nil:
	case l.wal != nil:
		written, err = l.appendWAL(fps, data)
	default:
		for _, i := range l.batch {
			r := Record{FP: fps[i], Size: size(i)}
			if !l.metaOnly {
				if owned {
					r.Data = data[i]
				} else {
					r.Data = append([]byte(nil), data[i]...)
				}
			}
			l.recs = append(l.recs, r)
		}
		written = len(l.batch)
	}
	var bytes int64
	for k, i := range l.batch {
		if k >= written {
			h := l.index[fps[i]]
			if h.n--; h.n == 0 {
				delete(l.index, fps[i])
			} else {
				l.index[fps[i]] = h
			}
			continue
		}
		l.fps = append(l.fps, fps[i])
		bytes += int64(size(i))
		if l.disk != nil {
			l.disk.SeqWrite(recordHeader + int64(size(i)))
		}
	}
	l.bytes += bytes
	return written, bytes, err
}

// Logged reports, for each fingerprint, whether an unconsumed record
// holds its chunk. One lock acquisition answers the whole batch.
func (l *Log) Logged(fps []fp.FP) []bool {
	held := make([]bool, len(fps))
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, f := range fps {
		_, held[i] = l.index[f]
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
// emptied (by a drain that caught up, or Reset).
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

	l    *Log
	locs []recLoc // WAL: the records' positions
	recs []Record // memory log: the records
	read int64    // WAL bytes Iterate and Select read
}

// view returns the unconsumed records as a Txn. Appends only ever write
// past the ends of the log's slices, so the capped slices are an
// immutable snapshot without a copy.
//
// debarvet:holds mu -- Drain and Select call it with l.mu held.
func (l *Log) view() *Txn {
	return &Txn{FPs: l.fps[:len(l.fps):len(l.fps)], l: l,
		locs: l.locs[:len(l.locs):len(l.locs)], recs: l.recs[:len(l.recs):len(l.recs)]}
}

// Iterate walks the transaction's records in append order, like
// Log.Iterate but bounded at the transaction's end, so a pass reads
// exactly the records it consumes.
func (t *Txn) Iterate(fn func(Record) error) error {
	return t.Select(nil, fn)
}

// Select walks the transaction's records in append order and hands fn
// only those keep accepts; keep == nil accepts every record. keep sees
// each record's fingerprint and size exactly once, in order, before fn
// sees that record — and possibly before fn has seen the records before
// it. A WAL reads from disk only the records keep accepts, coalescing
// runs of adjacent ones into one read per window, and checks each one's
// checksum before fn sees it; a rejected record is never read.
func (t *Txn) Select(keep func(fp.FP, uint32) bool, fn func(Record) error) error {
	if t.l.wal == nil {
		return t.l.walkMem(t.recs, keep, fn)
	}
	n, err := readLocs(t.l.wal, t.locs, t.FPs, keep, fn)
	t.read += n
	return err
}

// ReadBytes returns the WAL bytes, record framing included, that the
// transaction's walks have read so far.
func (t *Txn) ReadBytes() int64 { return t.read }

// Drain runs fn as one transaction over the unconsumed records: fn gets
// them as a Txn and may take as long as it needs, while appends continue
// past the transaction. When fn returns nil, the transaction's records
// are consumed: later Pending calls, walks and drains start after them,
// and their fingerprints leave the Logged set. A WAL then retires every
// segment whose records are all consumed (wal.go): if nothing was
// appended past the transaction, that is every segment. Records that
// share a segment with unconsumed ones stay on disk, and a reopened WAL
// replays them (their chunks are stored, and dedup-2 discards them as
// duplicates). When fn fails, nothing is consumed and the records wait
// for the next drain. Drains are serialised; fn must not call Drain.
//
// A failed retirement is returned, but the records stay consumed: their
// chunks are stored.
func (l *Log) Drain(fn func(*Txn) error) error {
	l.drainMu.Lock()
	defer l.drainMu.Unlock()
	l.mu.Lock()
	t := l.view()
	l.mu.Unlock()
	if err := fn(t); err != nil {
		return err
	}
	if len(t.FPs) == 0 {
		return nil
	}
	l.retireMu.Lock()
	defer l.retireMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.consume(t.FPs)
}

// consume drops the first len(fps) unconsumed records, which hold fps,
// and retires the segments left without an unconsumed record.
//
// debarvet:holds mu -- Drain and Reset enter with l.mu (and retireMu) held.
func (l *Log) consume(fps []fp.FP) error {
	n := len(fps)
	moved := false
	for _, f := range fps {
		h := l.index[f]
		if h.n--; h.n == 0 {
			delete(l.index, f)
		} else {
			l.index[f] = h
			moved = true
		}
	}
	l.fps = l.fps[n:]
	old := l.first
	var last uint32 // WAL: the segment of the last consumed record
	if l.wal == nil {
		l.recs = l.recs[n:]
	} else {
		last = l.locs[n-1].Seg
		l.locs = l.locs[n:]
		l.first += uint32(n)
	}
	if len(l.fps) == 0 {
		// Empty: drop the backing arrays, and the map too, since a map
		// never shrinks.
		l.recs, l.fps, l.locs = nil, nil, nil
		l.index = make(map[fp.FP]held)
		l.bytes = 0
	} else if moved && l.wal != nil {
		// A fingerprint with records on both sides of the cut still names
		// a consumed one: point it at its first remaining record.
		for i, f := range l.fps {
			if h := l.index[f]; h.rec-old < uint32(n) {
				h.rec = l.first + uint32(i)
				l.index[f] = h
			}
		}
	}
	if l.wal == nil {
		return nil
	}
	// Retire the segments up to last, and last itself unless an
	// unconsumed record lives in it.
	if len(l.locs) == 0 || l.locs[0].Seg != last {
		last++
	}
	return l.wal.RetireBefore(last)
}

// Iterate sequentially reads the unconsumed records, invoking fn per group
// in append order. Charges one sequential read over the log. The Record's
// Data is valid only during fn (see Record).
func (l *Log) Iterate(fn func(Record) error) error { return l.Select(nil, fn) }

// Select walks the unconsumed records like Txn.Select. Under the log's
// lock it only snapshots the walk's bounds and then walks the records
// appended before the call without the lock, so appends proceed while fn
// runs (they land past the bound and wait for the next walk) and
// concurrent walks do not serialise. A WAL walk holds off segment
// retirement until it returns.
func (l *Log) Select(keep func(fp.FP, uint32) bool, fn func(Record) error) error {
	if l.wal != nil {
		l.retireMu.RLock()
		defer l.retireMu.RUnlock()
	}
	l.mu.Lock()
	t := l.view()
	l.mu.Unlock()
	return t.Select(keep, fn)
}

// walkMem visits the memory records recs that keep accepts (all of them
// when keep is nil), charging the simulated disk one sequential read over
// all of recs: the paper's chunk storing reads the whole log.
func (l *Log) walkMem(recs []Record, keep func(fp.FP, uint32) bool, fn func(Record) error) error {
	if l.disk != nil {
		var n int64
		for _, r := range recs {
			n += recordHeader + int64(r.Size)
		}
		l.disk.SeqRead(n)
	}
	for _, r := range recs {
		if keep != nil && !keep(r.FP, r.Size) {
			continue
		}
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// Reset discards all records. A WAL retires every segment that holds a
// record, durably, so a reopened WAL does not replay them.
func (l *Log) Reset() error {
	l.retireMu.Lock()
	defer l.retireMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.fps) == 0 {
		return nil
	}
	return l.consume(l.fps)
}
