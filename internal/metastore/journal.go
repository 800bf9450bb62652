// Package metastore implements the director's metadata storage subsystem
// (paper §6.3): "a metadata storage subsystem for the DEBAR director that
// enables over 250 backup jobs to read or write their metadata
// concurrently with an aggregate metadata throughput of over 100MB/s".
//
// The store is an append-only journal and nothing else: it keeps no
// record in memory. Every Append writes one CRC32-C framed record tagged
// with its job's name through to the file (fsynced in batches and on
// Sync/Close); Open recovers the journal's longest valid prefix,
// truncating a torn tail, and Replay walks it again in append order so
// the director can rebuild its runs and file indexes after a crash. The §6.3 claim test (TestConcurrent250Jobs) measures this
// journal. See internal/store/README.md for the record framing.
package metastore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// Journal record framing:
//
//	+------------+--------+-------------+-------------+----------+----------+
//	| crc32c(u32)| op (u8)| jobLen (u16)| recLen (u32)| job bytes| rec bytes|
//	+------------+--------+-------------+-------------+----------+----------+
//
// The checksum covers everything after it. Replay accepts the longest
// prefix of complete, checksum-valid records and truncates the rest: a
// torn tail loses only the records that were never acknowledged durable.
// op is always 1 (append); any other op ends the valid prefix.
const (
	opAppend byte = 1

	journalHeader = 4 + 1 + 2 + 4

	// maxJournalRecord bounds a sane record during recovery scanning; a
	// file index entry is a path plus chunk fingerprints, far below 64 MB.
	maxJournalRecord = 64 << 20

	// journalSyncBytes batches fsyncs: the journal is synced once at
	// least this many bytes accumulate (and on Sync/Close).
	journalSyncBytes = 256 << 10
)

var journalCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// Store is an append-only metadata journal. All methods are safe for
// concurrent use.
type Store struct {
	mu           sync.Mutex
	f            *os.File     // set once at Open
	end          int64        // guarded by mu; append offset
	dirty        int          // guarded by mu; bytes appended since the last fsync
	syncFailFn   func() error // guarded by mu; fault injection: non-nil error fails the fsync
	appendFailFn func() error // guarded by mu; fault injection: non-nil error fails the append
}

// Open opens (creating if needed) the journal at path, locks it against a
// second opener and truncates anything after its longest valid prefix.
// The second argument is ignored: it sized an in-memory copy of the
// records that the store no longer keeps.
func Open(path string, _ int) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("metastore: open journal: %w", err)
	}
	if err := lockJournal(f); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	end, err := recoverJournal(f)
	if err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return &Store{f: f, end: end}, nil
}

// recoverJournal returns the end of f's longest valid prefix, truncating
// anything after it.
func recoverJournal(f *os.File) (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("metastore: journal stat: %w", err)
	}
	end, err := scan(f, st.Size(), nil)
	if err != nil {
		return 0, err
	}
	if end < st.Size() {
		if err := f.Truncate(end); err != nil {
			return 0, fmt.Errorf("metastore: truncating torn journal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return 0, fmt.Errorf("metastore: %w", err)
		}
	}
	return end, nil
}

// scan walks the frames of f[0:limit) in order and returns the offset just
// past the last complete, checksum-valid one. A non-nil fn receives each
// valid frame's job and record; rec is only valid during the call, and an
// error from fn stops the walk. No allocation exceeds the bytes left
// before limit, so a corrupt length field cannot balloon memory.
func scan(f *os.File, limit int64, fn func(job string, rec []byte) error) (int64, error) {
	r := bufio.NewReaderSize(io.NewSectionReader(f, 0, limit), 64<<10)
	var body []byte // op..rec of the current frame, reused across frames
	off := int64(0)
	for off+journalHeader <= limit {
		var hdr [journalHeader]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return off, fmt.Errorf("metastore: journal scan: %w", err)
		}
		jobLen := int64(binary.BigEndian.Uint16(hdr[5:]))
		recLen := int64(binary.BigEndian.Uint32(hdr[7:]))
		next := off + journalHeader + jobLen + recLen
		if hdr[4] != opAppend || jobLen == 0 || recLen > maxJournalRecord || next > limit {
			break // torn or corrupt tail
		}
		n := int(next - off - 4)
		if cap(body) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		copy(body, hdr[4:])
		if _, err := io.ReadFull(r, body[journalHeader-4:]); err != nil {
			return off, fmt.Errorf("metastore: journal scan: %w", err)
		}
		if binary.BigEndian.Uint32(hdr[:4]) != crc32.Checksum(body, journalCastagnoli) {
			break
		}
		if fn != nil {
			job := body[journalHeader-4 : journalHeader-4+jobLen]
			if err := fn(string(job), body[journalHeader-4+jobLen:]); err != nil {
				return off, err
			}
		}
		off = next
	}
	return off, nil
}

// Replay calls fn for every record appended before the call — the prefix
// Open recovered, then this store's appends — in journal order. rec is
// only valid during the call. An error from fn stops the replay and is
// returned.
func (s *Store) Replay(fn func(job string, rec []byte) error) error {
	s.mu.Lock()
	end := s.end
	s.mu.Unlock()
	// Frames below end are immutable, so the walk needs no lock.
	stop, err := scan(s.f, end, fn)
	if err != nil {
		return err
	}
	if stop != end {
		return fmt.Errorf("metastore: journal frame at offset %d no longer valid", stop)
	}
	return nil
}

// Append writes one metadata record to a job's stream. The record is
// on stable storage after the next Sync (or batched fsync).
func (s *Store) Append(job string, rec []byte) error {
	if job == "" {
		return fmt.Errorf("metastore: empty job name")
	}
	if len(job) > 1<<16-1 {
		return fmt.Errorf("metastore: job name %d bytes exceeds journal limit", len(job))
	}
	if len(rec) > maxJournalRecord {
		return fmt.Errorf("metastore: record %d bytes exceeds journal limit", len(rec))
	}
	frame := make([]byte, journalHeader+len(job)+len(rec))
	frame[4] = opAppend
	binary.BigEndian.PutUint16(frame[5:], uint16(len(job)))
	binary.BigEndian.PutUint32(frame[7:], uint32(len(rec)))
	copy(frame[journalHeader:], job)
	copy(frame[journalHeader+len(job):], rec)
	binary.BigEndian.PutUint32(frame[:4], crc32.Checksum(frame[4:], journalCastagnoli))

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.appendFailFn != nil {
		if err := s.appendFailFn(); err != nil {
			return fmt.Errorf("metastore: journal append: %w", err)
		}
	}
	if _, err := s.f.WriteAt(frame, s.end); err != nil {
		return fmt.Errorf("metastore: journal append: %w", err)
	}
	s.end += int64(len(frame))
	s.dirty += len(frame)
	if s.dirty >= journalSyncBytes {
		return s.syncLocked()
	}
	return nil
}

// SetSyncFailFunc installs a fault-injection hook consulted before every
// fsync: a non-nil return fails that sync with the error, as a media
// failure would, and leaves the unsynced bytes dirty for the next one.
// nil clears it. Test-only.
func (s *Store) SetSyncFailFunc(fn func() error) {
	s.mu.Lock()
	s.syncFailFn = fn
	s.mu.Unlock()
}

// SetAppendFailFunc installs a fault-injection hook consulted before
// every append: a non-nil return fails that append with the error,
// writing nothing, as a full or failing disk would. nil clears it.
// Test-only.
func (s *Store) SetAppendFailFunc(fn func() error) {
	s.mu.Lock()
	s.appendFailFn = fn
	s.mu.Unlock()
}

// Sync makes every record appended before the call durable.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

// syncLocked fsyncs the journal if anything is unsynced.
//
//debarvet:holds mu
func (s *Store) syncLocked() error {
	if s.dirty == 0 {
		return nil
	}
	if s.syncFailFn != nil {
		if err := s.syncFailFn(); err != nil {
			return fmt.Errorf("metastore: journal sync: %w", err)
		}
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("metastore: journal sync: %w", err)
	}
	s.dirty = 0
	return nil
}

// Close syncs and closes the journal.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.syncLocked(); err != nil {
		return errors.Join(err, s.f.Close())
	}
	return s.f.Close()
}
