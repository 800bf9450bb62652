// Package chunklog implements the chunk log of dedup-1 (paper §5.1):
// chunks that pass the preliminary filter are appended to a local log as
// <F, D(F)> groups, to be read back by the chunk storing step of dedup-2
// (§5.3). The log is strictly append-then-drain: dedup-1 appends, dedup-2
// drains.
//
// Log is the backup server's chunk log: a durable, segmented WAL that
// knows where each unconsumed record lives, so a drain reads back only
// the records it keeps (wal.go). Mem is the paper's log as the
// simulations model it: records in memory, charged to a simulated disk,
// optionally without their payloads (mem.go).
package chunklog

import (
	"fmt"
	"sync"
	"time"

	"debar/internal/fp"
	"debar/internal/seglog"
)

// Record is one <F, D(F)> group.
//
// Data is nil in a Mem's accounting mode. A record handed to a Log's
// Iterate or Select callback borrows Data from the walk's read window: it
// is valid only until the callback returns, so a callback that keeps the
// payload copies it.
type Record struct {
	FP   fp.FP
	Size uint32
	Data []byte
}

// held is the log's entry for a fingerprint with unconsumed records.
type held struct {
	n   int32  // unconsumed records of the fingerprint (never 0 in the map)
	rec uint32 // the number of the first of them (see Log.first)
}

// Log is the durable chunk log: a segmented WAL of records (wal.go).
// Appends are serialised by a mutex. Iterate bounds its walk under that
// mutex and then walks without holding it, so the File Store (dedup-1
// writer) keeps appending while the Chunk Store (dedup-2 reader) drains
// the log; records appended meanwhile lie past the bound and wait for the
// next pass. Reset must not run while a walk or a Drain is in progress.
//
// The log is its own work queue: the records appended since the last
// Drain are exactly the chunks dedup-2 has yet to store, and the log
// keeps their fingerprints (Logged) with each one's position, so dedup-1
// never transfers or logs a chunk twice and a restore can read a chunk no
// pass has stored yet (ReadChunk). Drain runs one dedup-2 pass as a
// transaction over them.
type Log struct {
	wal *seglog.Log // set once at open

	mu    sync.Mutex
	fps   []fp.FP        // guarded by mu; fingerprints of the unconsumed records, in append order
	locs  []recLoc       // guarded by mu; positions of the unconsumed records, parallel to fps
	first uint32         // guarded by mu; the number of the oldest unconsumed record, locs[0] (numbers wrap)
	index map[fp.FP]held // guarded by mu; every fingerprint with an unconsumed record

	// An append's scratch, reused so that a steady stream of batches
	// allocates nothing: the batch's chunks to log, their records back to
	// back, the records' sizes and their positions.
	batch []int        // guarded by mu
	frame []byte       // guarded by mu; grown to the largest batch
	sizes []int        // guarded by mu
	pos   []seglog.Pos // guarded by mu

	// drainMu serialises Drain: one transaction at a time owns the
	// unconsumed records.
	drainMu sync.Mutex

	// retireMu orders segment retirement after every read of a segment
	// file: ReadChunk, Iterate and Select hold it shared while they
	// resolve and read positions, and a drain retiring segments holds it
	// exclusively, so no read lands in a renamed or recycled file. Close
	// holds it shared too, so it never closes the files a retirement is
	// renaming.
	retireMu sync.RWMutex
}

// SetFaults installs the test hooks f on the WAL's segmented log (see
// seglog.Faults): f.Write fails appends, f.Sync fails syncs.
func (l *Log) SetFaults(f seglog.Faults) { l.wal.SetFaults(f) }

// Append adds one <F, D(F)> group; size declares the payload length. The
// log copies data into its own buffer.
func (l *Log) Append(f fp.FP, size uint32, data []byte) error {
	_, err := l.appendOne(f, size, data, false)
	return err
}

// AppendOwned is Append.
func (l *Log) AppendOwned(f fp.FP, size uint32, data []byte) error { return l.Append(f, size, data) }

// AppendNew is Append for a chunk the log does not hold yet: when an
// unconsumed record already has f's fingerprint it appends nothing and
// reports false. Check and append are one step under the log's lock, so
// concurrent sessions racing the same content log it once.
func (l *Log) AppendNew(f fp.FP, size uint32, data []byte) (bool, error) {
	return l.appendOne(f, size, data, true)
}

// appendOne logs one chunk whose declared size is size; once is
// AppendNew's.
func (l *Log) appendOne(f fp.FP, size uint32, data []byte, once bool) (bool, error) {
	if len(data) != int(size) {
		return false, fmt.Errorf("chunklog: declared size %d != payload %d", size, len(data))
	}
	n, err := l.append([]fp.FP{f}, [][]byte{data}, once)
	return n == 1, err
}

// AppendNewBatch is AppendNew for a batch of chunks, data[i] of
// fingerprint fps[i]: it logs, in order, each chunk that no unconsumed
// record holds and no earlier chunk of the batch repeats, and returns how
// many it logged. The checks and appends of the
// whole batch are one step under the log's lock, and the batch's records
// go out with one write per segment they land in. The log copies every
// payload into its own buffer, so the caller may reuse data's memory once
// the call returns. After a failed write the log holds, and Logged
// reports, only the records written before it. The server's dedup-1 path
// logs each ChunkBatch with it.
func (l *Log) AppendNewBatch(fps []fp.FP, data [][]byte) (int, error) {
	return l.append(fps, data, true)
}

// append logs the chunks of one batch, chunk i of fingerprint fps[i] and
// payload data[i]; once is AppendNew's. It returns the records appended.
func (l *Log) append(fps []fp.FP, data [][]byte, once bool) (int, error) {
	if len(fps) != len(data) {
		return 0, fmt.Errorf("chunklog: %d fingerprints for %d payloads", len(fps), len(data))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	defer mLockSeconds.Since(time.Now())
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
		return 0, nil
	}
	written, err := l.appendWAL(fps, data)
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
	}
	return written, err
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
	locs []recLoc // the records' positions
	read int64    // WAL bytes Iterate and Select read
}

// view returns the unconsumed records as a Txn. Appends only ever write
// past the ends of the log's slices, so the capped slices are an
// immutable snapshot without a copy.
//
// debarvet:holds mu -- Drain and Select call it with l.mu held.
func (l *Log) view() *Txn {
	return &Txn{FPs: l.fps[:len(l.fps):len(l.fps)], l: l, locs: l.locs[:len(l.locs):len(l.locs)]}
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
// it. Only the records keep accepts are read from disk, runs of adjacent
// ones coalesced into one read per window, and each one's checksum is
// checked before fn sees it; a rejected record is never read.
func (t *Txn) Select(keep func(fp.FP, uint32) bool, fn func(Record) error) error {
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
// and their fingerprints leave the Logged set. The log then retires every
// segment whose records are all consumed (wal.go): if nothing was
// appended past the transaction, that is every segment. Records that
// share a segment with unconsumed ones stay on disk, and a reopened log
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
	return l.consume(len(t.FPs))
}

// consume drops the first n unconsumed records and retires the segments
// left without an unconsumed record.
//
// debarvet:holds mu -- Drain and Reset enter with l.mu (and retireMu) held.
func (l *Log) consume(n int) error {
	moved := false
	for _, f := range l.fps[:n] {
		h := l.index[f]
		if h.n--; h.n == 0 {
			delete(l.index, f)
		} else {
			l.index[f] = h
			moved = true
		}
	}
	last := l.locs[n-1].Seg // the segment of the last consumed record
	l.fps, l.locs = l.fps[n:], l.locs[n:]
	old := l.first
	l.first += uint32(n)
	if len(l.fps) == 0 {
		// Empty: drop the backing arrays, and the map too, since a map
		// never shrinks.
		l.fps, l.locs = nil, nil
		l.index = make(map[fp.FP]held)
	} else if moved {
		// A fingerprint with records on both sides of the cut still names
		// a consumed one: point it at its first remaining record.
		for i, f := range l.fps {
			if h := l.index[f]; h.rec-old < uint32(n) {
				h.rec = l.first + uint32(i)
				l.index[f] = h
			}
		}
	}
	// Retire the segments up to last, and last itself unless an
	// unconsumed record lives in it.
	if len(l.locs) == 0 || l.locs[0].Seg != last {
		last++
	}
	return l.wal.RetireBefore(last)
}

// Iterate sequentially reads the unconsumed records, invoking fn per group
// in append order. The Record's Data is valid only during fn (see
// Record).
func (l *Log) Iterate(fn func(Record) error) error { return l.Select(nil, fn) }

// Select walks the unconsumed records like Txn.Select. Under the log's
// lock it only snapshots the walk's bounds and then walks the records
// appended before the call without the lock, so appends proceed while fn
// runs (they land past the bound and wait for the next walk) and
// concurrent walks do not serialise. The walk holds off segment
// retirement until it returns.
func (l *Log) Select(keep func(fp.FP, uint32) bool, fn func(Record) error) error {
	l.retireMu.RLock()
	defer l.retireMu.RUnlock()
	l.mu.Lock()
	t := l.view()
	l.mu.Unlock()
	return t.Select(keep, fn)
}

// Reset discards all records, retiring every segment that holds one,
// durably, so a reopened log does not replay them.
func (l *Log) Reset() error {
	l.retireMu.Lock()
	defer l.retireMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.fps) == 0 {
		return nil
	}
	return l.consume(len(l.fps))
}
