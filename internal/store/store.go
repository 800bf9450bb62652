// Package store is DEBAR's durable on-disk storage engine: it owns a data
// directory holding everything a backup server must not lose across a
// restart or crash — the segmented container log (the chunk repository,
// §3.4), the disk index file (§4), and the dedup-1 chunk-log WAL (§5.1) —
// plus a superblock (MANIFEST) pinning the format version and index
// geometry.
//
// Recovery on Open:
//
//  1. the container log (containers/, a segmented log, internal/seglog)
//     keeps the longest checksum-valid prefix of its last segment and
//     truncates any torn tail (crash mid-append); sealed segments are
//     walked by frame and container headers to rebuild the container
//     location table, and any damage in them refuses the open;
//  2. the chunk-log WAL (wal/, a segmented log of recycled segments)
//     recovers the same way, checksumming its sealed segments too; every
//     recovered record is pending dedup-2 work, so an interrupted pass
//     simply re-runs. A format-1 WAL file is removed when empty and
//     refused otherwise;
//  3. the disk index is reopened as-is only when the clean marker written
//     by the last Checkpoint is present; otherwise (crash while the index
//     was being written, or the file deleted) it is rebuilt from container
//     metadata via diskindex.Rebuild — the paper's §4.1 recovery path.
//
// See README.md in this directory for the on-disk format.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"debar/internal/chunklog"
	"debar/internal/container"
	"debar/internal/diskindex"
	"debar/internal/fp"
	"debar/internal/fsx"
	"debar/internal/obs"
	"debar/internal/seglog"
)

// FormatVersion is the on-disk format this engine reads and writes.
const FormatVersion = 1

const manifestMagic = "DEBAR-STORE"

// Options sizes a new engine. On reopen the manifest's recorded geometry
// wins; explicitly conflicting options are an error.
type Options struct {
	IndexBits uint // disk index bucket bits (default 16)
}

func (o Options) withDefaults() Options {
	if o.IndexBits == 0 {
		o.IndexBits = 16
	}
	return o
}

// indexBlocks is a new store's bucket size in 512-byte blocks. MANIFEST
// records it, and an existing store keeps the size it was created with.
const indexBlocks = 1

// manifest is the engine superblock, serialised as JSON in <dir>/MANIFEST.
// SegmentBytes is the container-log segment capacity the store was
// created with.
type manifest struct {
	Magic        string `json:"magic"`
	Version      int    `json:"version"`
	IndexBits    uint   `json:"index_bits"`
	IndexBlocks  int    `json:"index_blocks"`
	SegmentBytes int64  `json:"segment_bytes"`
}

// Engine is one opened data directory.
type Engine struct {
	dir  string
	man  manifest
	repo *SegRepo
	ix   *diskindex.Index
	ist  *trackedStore
	wal  *chunklog.Log

	rebuilt bool // index was rebuilt from container metadata
	lock    *os.File

	roMu  sync.Mutex
	roErr error // guarded by roMu; non-nil: engine is read-only (see Fail)

	closeOnce sync.Once
	closeErr  error
}

// Fail switches the engine into read-only mode, recording the write fault
// that caused it (ENOSPC, media error). Reads — restores, verifies, index
// lookups — keep working; the server refuses new writes while ReadOnlyErr
// is non-nil. The first fault wins; the mode persists until the engine is
// reopened with the fault cleared, because a store that just failed a
// write cannot trust any further appends.
func (e *Engine) Fail(err error) {
	if err == nil {
		return
	}
	e.roMu.Lock()
	if e.roErr == nil {
		e.roErr = err
		mReadOnlyLatched.Inc()
	}
	e.roMu.Unlock()
}

// mReadOnlyLatched counts engines latching read-only after a write
// fault — any non-zero value here is an operator page.
var mReadOnlyLatched = obs.GetCounter("store_readonly_latched_total")

// ReadOnlyErr returns the write fault that switched the engine read-only,
// or nil when the engine accepts writes. A failed fsync of either durable
// log is such a fault, waited on or not: the log keeps it (seglog's
// sticky rule), and the engine latches it here.
func (e *Engine) ReadOnlyErr() error {
	e.Fail(errors.Join(e.wal.Err(), e.repo.Err()))
	e.roMu.Lock()
	defer e.roMu.Unlock()
	return e.roErr
}

// InjectWriteFault installs fn as the Write fault hook of both durable
// logs (chunk-log WAL appends and container appends), in place of any
// hooks installed before: a non-nil return fails the write with that
// error. nil clears the hooks. Used by the chaos test suite to simulate a
// disk filling up; read paths are never affected.
func (e *Engine) InjectWriteFault(fn func() error) {
	e.wal.SetFaults(seglog.Faults{Write: fn})
	e.repo.SetFaults(seglog.Faults{Write: fn})
}

const (
	manifestName = "MANIFEST"
	indexName    = "index.db"
	markerName   = "index.clean"
	walDir       = "wal"
)

// Open opens (creating if needed) the storage engine at dir.
func Open(dir string, o Options) (*Engine, error) { return open(dir, o, segmentBytes) }

// open is Open creating a store whose container-log segments hold
// segBytes.
func open(dir string, o Options, segBytes int64) (*Engine, error) {
	o = o.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// Exclusive advisory lock: two engines over one data dir would
	// interleave writes and corrupt acked backups.
	lock, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := lockFile(lock); err != nil {
		return nil, errors.Join(err, lock.Close())
	}
	man, err := loadOrCreateManifest(dir, o, segBytes)
	if err != nil {
		return nil, errors.Join(err, lock.Close())
	}
	e := &Engine{dir: dir, man: man, lock: lock}

	if e.repo, err = openSegRepo(filepath.Join(dir, "containers"), man.SegmentBytes); err != nil {
		return nil, errors.Join(err, lock.Close())
	}
	if err := chunklog.DropLegacy(filepath.Join(dir, chunklog.LegacyName)); err != nil {
		return nil, errors.Join(fmt.Errorf("store: %w", err), e.repo.Close(), lock.Close())
	}
	if e.wal, err = chunklog.OpenWAL(filepath.Join(dir, walDir)); err != nil {
		return nil, errors.Join(err, e.repo.Close(), lock.Close())
	}
	if err := e.openIndex(); err != nil {
		return nil, errors.Join(err, e.wal.Close(), e.repo.Close(), lock.Close())
	}
	return e, nil
}

func loadOrCreateManifest(dir string, o Options, segBytes int64) (manifest, error) {
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		man := manifest{
			Magic:        manifestMagic,
			Version:      FormatVersion,
			IndexBits:    o.IndexBits,
			IndexBlocks:  indexBlocks,
			SegmentBytes: segBytes,
		}
		buf, err := json.MarshalIndent(man, "", "  ")
		if err != nil {
			return man, err
		}
		if err := writeFileAtomic(path, append(buf, '\n')); err != nil {
			return man, fmt.Errorf("store: writing manifest: %w", err)
		}
		return man, nil
	}
	if err != nil {
		return manifest{}, fmt.Errorf("store: reading manifest: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil || man.Magic != manifestMagic {
		return man, fmt.Errorf("store: %s is not a DEBAR store manifest", path)
	}
	if man.Version != FormatVersion {
		return man, fmt.Errorf("store: format version %d not supported (want %d)", man.Version, FormatVersion)
	}
	// The manifest pins the geometry; a caller explicitly asking for a
	// different one is a misconfiguration, not a migration.
	defaults := Options{}.withDefaults()
	if o.IndexBits != defaults.IndexBits && o.IndexBits != man.IndexBits {
		return man, fmt.Errorf("store: index bits %d conflicts with existing store (%d)", o.IndexBits, man.IndexBits)
	}
	return man, nil
}

// writeFileAtomic writes data to path via a same-directory rename and
// fsyncs the directory so the rename survives a crash.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Sync(); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if err := fsx.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// trackedStore wraps the index's FileStore and drops the clean marker on
// the first mutation after a checkpoint: a crash mid-write then leaves no
// marker, and the next Open rebuilds the index instead of trusting a torn
// file.
type trackedStore struct {
	*diskindex.FileStore
	marker string
	mu     sync.Mutex
	clean  bool // guarded by mu
}

func (t *trackedStore) invalidate() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.clean {
		return nil
	}
	if err := os.Remove(t.marker); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	// The unlink must hit disk before any index write does: a lost
	// removal would let a crash reopen a torn index as clean.
	if err := fsx.SyncDir(filepath.Dir(t.marker)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	t.clean = false
	return nil
}

func (t *trackedStore) WriteAt(p []byte, off int64) error {
	if err := t.invalidate(); err != nil {
		return err
	}
	return t.FileStore.WriteAt(p, off)
}

func (t *trackedStore) Truncate(size int64) error {
	// Resizing to the current size is the no-op New() performs on every
	// open; it must not invalidate the marker we are about to trust.
	if size == t.FileStore.Size() {
		return nil
	}
	if err := t.invalidate(); err != nil {
		return err
	}
	return t.FileStore.Truncate(size)
}

// markClean fsyncs the index file and writes the marker (entry count
// inside, so reopen restores the occupancy statistic).
func (t *trackedStore) markClean(count int64) error {
	if err := t.FileStore.Sync(); err != nil {
		return err
	}
	if err := writeFileAtomic(t.marker, []byte(strconv.FormatInt(count, 10)+"\n")); err != nil {
		return err
	}
	t.mu.Lock()
	t.clean = true
	t.mu.Unlock()
	return nil
}

func (e *Engine) indexConfig() diskindex.Config {
	return diskindex.Config{BucketBits: e.man.IndexBits, BucketBlocks: e.man.IndexBlocks}
}

// openIndex reopens a cleanly checkpointed index file, or rebuilds the
// index from container metadata when the file is missing, torn, or was
// never checkpointed.
func (e *Engine) openIndex() error {
	cfg := e.indexConfig()
	indexPath := filepath.Join(e.dir, indexName)
	markerPath := filepath.Join(e.dir, markerName)

	count, clean := readMarker(markerPath)
	if st, err := os.Stat(indexPath); err != nil || st.Size() != cfg.SizeBytes() {
		clean = false // missing or mis-sized index file
	}
	if clean {
		fs, err := diskindex.OpenFileStore(indexPath)
		if err != nil {
			return err
		}
		e.ist = &trackedStore{FileStore: fs, marker: markerPath, clean: true}
		ix, err := diskindex.New(e.ist, cfg, nil)
		if err != nil {
			return errors.Join(err, fs.Close())
		}
		ix.SetCount(count)
		e.ix = ix
		return nil
	}
	return e.rebuildIndex()
}

// rebuildIndex reconstructs the disk index by scanning container metadata
// (§4.1: "scan the chunk repository to extract necessary information from
// the containers") and checkpoints the result.
func (e *Engine) rebuildIndex() error {
	indexPath := filepath.Join(e.dir, indexName)
	markerPath := filepath.Join(e.dir, markerName)
	if err := os.Remove(indexPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: clearing stale index: %w", err)
	}
	if err := os.Remove(markerPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: %w", err)
	}
	fs, err := diskindex.OpenFileStore(indexPath)
	if err != nil {
		return err
	}
	e.ist = &trackedStore{FileStore: fs, marker: markerPath}

	var entries []fp.Entry
	err = e.repo.ForEachMeta(func(id fp.ContainerID, metas []container.ChunkMeta) error {
		for _, m := range metas {
			entries = append(entries, fp.Entry{FP: m.FP, CID: id})
		}
		return nil
	})
	if err != nil {
		return errors.Join(fmt.Errorf("store: walking containers for index rebuild: %w", err), fs.Close())
	}
	ix, err := diskindex.Rebuild(e.ist, e.indexConfig(), entries)
	if err != nil {
		return errors.Join(fmt.Errorf("store: index rebuild: %w", err), fs.Close())
	}
	e.ix = ix
	e.rebuilt = true
	return e.ist.markClean(ix.Count())
}

func readMarker(path string) (int64, bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	n, err := strconv.ParseInt(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Dir returns the engine's data directory.
func (e *Engine) Dir() string { return e.dir }

// Repo returns the durable chunk repository.
func (e *Engine) Repo() container.Repository { return e.repo }

// SegRepo returns the concrete segmented repository (stats, tests).
func (e *Engine) SegRepo() *SegRepo { return e.repo }

// Index returns the disk index over the index file.
func (e *Engine) Index() *diskindex.Index { return e.ix }

// ChunkLog returns the durable chunk-log WAL. Its records recovered on
// open are pending (chunklog.Log.Pending): dedup-2's work after a crash.
func (e *Engine) ChunkLog() *chunklog.Log { return e.wal }

// IndexRebuilt reports whether Open had to rebuild the index from
// container metadata.
func (e *Engine) IndexRebuilt() bool { return e.rebuilt }

// Ticket is a claim on the chunk-log WAL's durability.
type Ticket struct{ wal *chunklog.Log }

// Wait is the WAL's barrier (chunklog.Log.Sync): it returns once every
// WAL append made before it is durable, or the WAL's first failed fsync.
func (t Ticket) Wait() error { return t.wal.Sync() }

// WALTicket returns a Ticket on the WAL for n bytes the caller appended.
// The WAL counts its own bytes, so n only documents the call.
func (e *Engine) WALTicket(n int64) Ticket { return Ticket{e.wal} }

// Checkpoint makes the engine's state durable and consistent: it waits
// on the WAL's and the container log's barriers, fsyncs the index file,
// and writes the clean marker so the next Open trusts the index file
// instead of rebuilding. The container barrier must precede the marker
// (and any WAL retirement the caller performs): the index entries and the
// WAL retirement are only trustworthy once every container they
// reference is durable. After a failed fsync of either log, Checkpoint
// returns that first error. The server calls this after every dedup-2
// SIU.
func (e *Engine) Checkpoint() error {
	if err := e.wal.Sync(); err != nil {
		return err
	}
	if err := e.repo.Flush(); err != nil {
		return err
	}
	if err := e.ist.markClean(e.ix.Count()); err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	return nil
}

// Close checkpoints and releases every component. Idempotent; zero-copy
// container slices become invalid.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		err := e.Checkpoint()
		// Each log's Close stops its flusher before its files close.
		if werr := e.wal.Close(); err == nil {
			err = werr
		}
		if serr := e.ist.Close(); err == nil {
			err = serr
		}
		if rerr := e.repo.Close(); err == nil {
			err = rerr
		}
		if lerr := e.lock.Close(); err == nil { // releases the flock
			err = lerr
		}
		e.closeErr = err
	})
	return e.closeErr
}
