package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"debar/internal/container"
	"debar/internal/fp"
	"debar/internal/fsx"
	"debar/internal/obs"
)

// Container-log metrics: append volume and segment rotations (each
// rotation is a seal + fsync + directory sync on the append path).
var (
	mRepoAppends      = obs.GetCounter("store_container_appends_total")
	mRepoAppendBytes  = obs.GetCounter("store_container_append_bytes_total")
	mSegmentRotations = obs.GetCounter("store_segment_rotations_total")
)

// SegRepo is the durable chunk repository: a container log split into
// fixed-capacity segment files under <dir>/containers/, each a sequence of
// CRC-framed container records. Sealed segments and the active tail are
// memory-mapped read-only, so Load/LoadMeta return zero-copy slices into
// the mapping for the LPC/restore path; appends go through pread-coherent
// WriteAt on the active segment.
//
// Durability is group-committed: Append writes the frame and *stages* it
// with the repository's "repo" committer, whose flusher syncs the active
// segment in coalesced windows. A container ID is durable once its
// window has synced or Flush has returned; the engine's Checkpoint calls
// Flush before truncating the WAL or trusting the index. A crash between
// Append and the covering sync can lose (or tear) trailing containers;
// recovery truncates the damage and the un-truncated WAL replays their
// chunks, so nothing acknowledged is lost.
//
// Record framing inside a segment:
//
//	+------------+-----------+------------+------------------+
//	| magic (u32)| len (u32) | crc32c(u32)| container image  |
//	+------------+-----------+------------+------------------+
//
// The checksum covers the serialised container image. On open, sealed
// segments are walked by frame headers (their tails were fsynced before
// rotation); the last segment is re-verified record by record and
// truncated at the first torn or corrupt frame.
type SegRepo struct {
	dir      string
	segBytes int64

	mu     sync.RWMutex
	segs   []*segment                // guarded by mu
	loc    map[fp.ContainerID]segLoc // guarded by mu
	next   fp.ContainerID            // guarded by mu
	bytes  int64                     // guarded by mu; data-section bytes stored
	end    int64                     // guarded by mu; append offset in the active segment
	closed bool                      // guarded by mu

	gc *Committer // group-commit scheduler over syncActive; set once at open

	failFn func() error // guarded by mu; fault injection: non-nil error fails Append
}

// SetFailFunc installs a fault-injection hook consulted before every
// container Append: a non-nil return fails the append with that error,
// simulating ENOSPC or media failure. nil clears the hook. Test-only;
// reads are unaffected.
func (r *SegRepo) SetFailFunc(fn func() error) {
	r.mu.Lock()
	r.failFn = fn
	r.mu.Unlock()
}

type segment struct {
	path string
	f    *os.File
	m    []byte // read-only mapping; nil → pread fallback
	size int64  // bytes of valid records
}

type segLoc struct {
	seg    int
	off    int64 // offset of the frame header
	imgLen int64
}

const (
	segFrameMagic = 0xDB5E6001
	segFrameHdr   = 12 // magic | image length | crc32c
	// DefaultSegmentBytes rotates the container log every 256 MB (32
	// default containers), keeping any single file bounded and recovery
	// scans short.
	DefaultSegmentBytes = 256 << 20
)

var segCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrRepoCorrupt reports unrecoverable container-log damage (a sealed
// segment with a malformed interior — torn tails on the last segment are
// recovered, not reported).
var ErrRepoCorrupt = errors.New("store: container log corrupt")

// OpenSegRepo opens (creating if needed) the segmented container log under
// dir, recovering existing segments. segBytes caps one segment's size; 0
// selects DefaultSegmentBytes.
func OpenSegRepo(dir string, segBytes int64) (*SegRepo, error) {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	r := &SegRepo{dir: dir, segBytes: segBytes, loc: make(map[fp.ContainerID]segLoc)}
	r.gc = NewNamedCommitter("repo", r.syncActive, DefaultCommitHold, DefaultCommitMaxBytes)
	if err := r.recover(); err != nil {
		return nil, errors.Join(err, r.Close())
	}
	return r, nil
}

func segPath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%08d.log", n))
}

// recover opens every existing segment in order, validates record framing,
// truncates a torn tail on the last segment, and rebuilds the container
// location table.
//
//debarvet:ignore guardedby -- recovery runs inside OpenSegRepo before the repo is shared; no other goroutine exists yet
func (r *SegRepo) recover() error {
	names, err := filepath.Glob(filepath.Join(r.dir, "seg-*.log"))
	if err != nil {
		return fmt.Errorf("store: listing segments: %w", err)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return r.addSegment(0)
	}
	for i, path := range names {
		if path != segPath(r.dir, i) {
			return fmt.Errorf("%w: segment files not contiguous (%s)", ErrRepoCorrupt, path)
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("store: opening segment: %w", err)
		}
		seg := &segment{path: path, f: f}
		r.segs = append(r.segs, seg)
		last := i == len(names)-1
		end, err := r.scanSegment(i, seg, last)
		if err != nil {
			return err
		}
		seg.size = end
		if last {
			// Drop any torn or zero-filled tail so the next append lands
			// on a clean edge.
			st, err := f.Stat()
			if err != nil {
				return fmt.Errorf("store: %w", err)
			}
			if st.Size() > end {
				if err := f.Truncate(end); err != nil {
					return fmt.Errorf("store: truncating torn container tail: %w", err)
				}
				if err := f.Sync(); err != nil {
					return fmt.Errorf("store: %w", err)
				}
			}
			r.end = end
		}
		mapLen := seg.size
		if last && r.segBytes > mapLen {
			mapLen = r.segBytes // headroom for appends through the mapping
		}
		if seg.m, err = mmapFile(f, mapLen); err != nil {
			return err
		}
	}
	return nil
}

// scanSegment walks one segment's frames, registering every container. For
// the last (active) segment each record's checksum is re-verified and the
// first invalid frame marks the recovered end; in a sealed segment any
// malformed frame is unrecoverable corruption.
//
//debarvet:ignore guardedby -- called only from recover, before the repo is shared
func (r *SegRepo) scanSegment(idx int, seg *segment, last bool) (int64, error) {
	st, err := seg.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	fileSize := st.Size()
	var hdr [segFrameHdr]byte
	var chdr [container.HeaderSize]byte
	off := int64(0)
	for {
		if off+segFrameHdr > fileSize {
			if !last && off != fileSize {
				return 0, fmt.Errorf("%w: trailing garbage in sealed segment %s", ErrRepoCorrupt, seg.path)
			}
			return off, nil
		}
		if _, err := seg.f.ReadAt(hdr[:], off); err != nil {
			return 0, fmt.Errorf("store: scanning %s: %w", seg.path, err)
		}
		imgLen := int64(binary.BigEndian.Uint32(hdr[4:]))
		bad := binary.BigEndian.Uint32(hdr[0:]) != segFrameMagic ||
			imgLen < container.HeaderSize || off+segFrameHdr+imgLen > fileSize
		if !bad && last {
			// Verify the record checksum: a crash mid-append can leave a
			// complete frame header over a partially written image.
			img := make([]byte, imgLen)
			if _, err := seg.f.ReadAt(img, off+segFrameHdr); err != nil {
				return 0, fmt.Errorf("store: scanning %s: %w", seg.path, err)
			}
			bad = binary.BigEndian.Uint32(hdr[8:]) != crc32.Checksum(img, segCastagnoli)
		}
		if bad {
			if !last {
				return 0, fmt.Errorf("%w: malformed frame at %s offset %d", ErrRepoCorrupt, seg.path, off)
			}
			return off, nil
		}
		if _, err := seg.f.ReadAt(chdr[:], off+segFrameHdr); err != nil {
			return 0, fmt.Errorf("store: scanning %s: %w", seg.path, err)
		}
		ch, err := container.ParseHeader(chdr[:])
		if err == nil && ch.RecordLen() != imgLen {
			// A frame always wraps exactly one container image; any other
			// declared geometry is damage (and would let an implausible
			// NumMeta walk past the image during meta decoding).
			err = fmt.Errorf("%w: record length %d != frame %d", container.ErrCorrupt, ch.RecordLen(), imgLen)
		}
		if err != nil {
			if !last {
				return 0, fmt.Errorf("%w: %s offset %d: %v", ErrRepoCorrupt, seg.path, off, err)
			}
			return off, nil
		}
		r.loc[ch.ID] = segLoc{seg: idx, off: off, imgLen: imgLen}
		r.bytes += ch.DataLen
		if ch.ID >= r.next {
			r.next = ch.ID + 1
		}
		off += segFrameHdr + imgLen
	}
}

// addSegment creates segment n and makes it active. minMap raises the
// mapping length when one oversized record needs more room than segBytes.
//
// debarvet:holds mu -- rotation happens under Append's lock; the recover
// path calls it before the repo is shared.
func (r *SegRepo) addSegmentSized(n int, minMap int64) error {
	f, err := os.OpenFile(segPath(r.dir, n), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating segment: %w", err)
	}
	// A leftover file from a crash mid-rotation holds no published
	// containers; start it clean.
	if err := f.Truncate(0); err != nil {
		return errors.Join(fmt.Errorf("store: %w", err), f.Close())
	}
	// Persist the directory entry: without this a crash can lose the
	// whole segment file even though its record data was fsynced.
	if err := fsx.SyncDir(r.dir); err != nil {
		return errors.Join(fmt.Errorf("store: %w", err), f.Close())
	}
	mapLen := r.segBytes
	if minMap > mapLen {
		mapLen = minMap
	}
	m, err := mmapFile(f, mapLen)
	if err != nil {
		return errors.Join(err, f.Close())
	}
	r.segs = append(r.segs, &segment{path: segPath(r.dir, n), f: f, m: m})
	r.end = 0
	return nil
}

func (r *SegRepo) addSegment(n int) error { return r.addSegmentSized(n, 0) }

// active returns the segment appends land in.
//
// debarvet:holds mu -- the caller holds r.mu.
func (r *SegRepo) active() *segment { return r.segs[len(r.segs)-1] }

// Append implements container.Repository: it assigns the next container
// ID, frames and appends the image to the active segment (rotating first
// when the segment is full), and stages the frame with the committer. The
// returned ID is durable once the covering window syncs or Flush returns.
func (r *SegRepo) Append(c *container.Container) (fp.ContainerID, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, errors.New("store: repository closed")
	}
	if r.failFn != nil {
		if err := r.failFn(); err != nil {
			return 0, fmt.Errorf("store: appending container: %w", err)
		}
	}
	id := r.next
	if id > fp.MaxContainerID {
		return 0, fmt.Errorf("store: repository full (40-bit ID space exhausted)")
	}
	stored := &container.Container{ID: id, Meta: c.Meta, Data: c.Data}
	head := stored.MarshalHead()
	imgLen := int64(len(head) + len(c.Data))
	frameLen := segFrameHdr + imgLen
	if r.end > 0 && r.end+frameLen > r.segBytes {
		// Seal the active segment: shrink it to its exact record length
		// (dropping any bytes a failed partial write left past r.end —
		// sealed segments must scan exactly to their end on recovery) and
		// fsync data + size before the next segment exists, so a crash
		// anywhere in the rotation leaves either a fully sealed segment or
		// this one still last.
		// The mapping (with append headroom) is kept as-is for the life
		// of the repository: remapping would invalidate zero-copy slices
		// already handed out to the LPC cache and in-flight restores.
		act := r.active()
		if err := act.f.Truncate(r.end); err != nil {
			return 0, fmt.Errorf("store: sealing segment: %w", err)
		}
		if err := act.f.Sync(); err != nil {
			return 0, fmt.Errorf("store: sealing segment: %w", err)
		}
		if err := r.addSegmentSized(len(r.segs), frameLen); err != nil {
			return 0, err
		}
		mSegmentRotations.Inc()
	}
	seg := r.active()
	// The image is never assembled: frame header and container head go
	// out in one write, the data section straight from the caller's buffer
	// in a second, and the checksum runs over both in image order.
	crc := crc32.Update(crc32.Checksum(head, segCastagnoli), segCastagnoli, c.Data)
	frame := make([]byte, segFrameHdr, segFrameHdr+len(head))
	binary.BigEndian.PutUint32(frame[0:], segFrameMagic)
	binary.BigEndian.PutUint32(frame[4:], uint32(imgLen))
	binary.BigEndian.PutUint32(frame[8:], crc)
	frame = append(frame, head...)
	if _, err := seg.f.WriteAt(frame, r.end); err != nil {
		return 0, fmt.Errorf("store: appending container %v: %w", id, err)
	}
	if _, err := seg.f.WriteAt(c.Data, r.end+int64(len(frame))); err != nil {
		return 0, fmt.Errorf("store: appending container %v: %w", id, err)
	}
	r.gc.Enqueue(frameLen)
	r.loc[id] = segLoc{seg: len(r.segs) - 1, off: r.end, imgLen: imgLen}
	r.end += frameLen
	seg.size = r.end
	r.bytes += stored.DataBytes()
	r.next++
	mRepoAppends.Inc()
	mRepoAppendBytes.Add(frameLen)
	return id, nil
}

// Flush blocks until every container appended before the call is durable:
// the commit barrier.
func (r *SegRepo) Flush() error { return r.gc.Commit(0) }

// syncActive is the group committer's sync function: it flushes the
// active segment's written data outside the repository lock, so appends
// (and rotations — which fsync the sealing segment themselves before a
// new one becomes active) proceed while the disk flushes. Any frame
// staged before this call started is either in the segment synced here
// or in one already sealed (synced) by rotation.
func (r *SegRepo) syncActive() error {
	r.mu.RLock()
	if r.closed || len(r.segs) == 0 {
		r.mu.RUnlock()
		return nil
	}
	f := r.active().f
	r.mu.RUnlock()
	if err := fsx.SyncData(f); err != nil {
		return fmt.Errorf("store: syncing container log: %w", err)
	}
	return nil
}

// locate snapshots a container's location under a short read lock. The
// record bytes are immutable once published, so callers read them without
// any lock afterwards.
func (r *SegRepo) locate(id fp.ContainerID) (*segment, segLoc, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	l, ok := r.loc[id]
	if !ok {
		return nil, segLoc{}, fmt.Errorf("%w: container %v", container.ErrNotFound, id)
	}
	return r.segs[l.seg], l, nil
}

// image returns the serialised container record. From a mapped segment the
// slice aliases the mapping (zero copy, shared=true); otherwise it is a
// fresh pread copy.
func (r *SegRepo) image(id fp.ContainerID) ([]byte, bool, error) {
	seg, l, err := r.locate(id)
	if err != nil {
		return nil, false, err
	}
	start := l.off + segFrameHdr
	if seg.m != nil && start+l.imgLen <= int64(len(seg.m)) {
		return seg.m[start : start+l.imgLen : start+l.imgLen], true, nil
	}
	buf := make([]byte, l.imgLen)
	if _, err := seg.f.ReadAt(buf, start); err != nil {
		return nil, false, fmt.Errorf("store: loading container %v: %w", id, err)
	}
	return buf, false, nil
}

// Load implements container.Repository. On mmap-capable platforms the
// returned container's Data aliases the segment mapping — zero copies into
// the LPC/restore path — and remains valid until the repository is closed.
func (r *SegRepo) Load(id fp.ContainerID) (*container.Container, error) {
	img, shared, err := r.image(id)
	if err != nil {
		return nil, err
	}
	if shared {
		return container.UnmarshalShared(img)
	}
	return container.Unmarshal(img)
}

// LoadMeta implements container.Repository, reading and decoding only the
// header and metadata section (never the data section).
func (r *SegRepo) LoadMeta(id fp.ContainerID) ([]container.ChunkMeta, error) {
	seg, l, err := r.locate(id)
	if err != nil {
		return nil, err
	}
	start := l.off + segFrameHdr
	if seg.m != nil && start+l.imgLen <= int64(len(seg.m)) {
		img := seg.m[start : start+l.imgLen]
		h, err := container.ParseHeader(img)
		if err != nil {
			return nil, err
		}
		if h.RecordLen()-h.DataLen > int64(len(img)) {
			return nil, fmt.Errorf("%w: container %v metadata overruns its record", container.ErrCorrupt, id)
		}
		return container.DecodeMetas(img[container.HeaderSize:], h.NumMeta), nil
	}
	// pread fallback: two small reads instead of the whole (8 MB) image.
	var chdr [container.HeaderSize]byte
	if _, err := seg.f.ReadAt(chdr[:], start); err != nil {
		return nil, fmt.Errorf("store: loading container %v meta: %w", id, err)
	}
	h, err := container.ParseHeader(chdr[:])
	if err != nil {
		return nil, err
	}
	metaLen := h.RecordLen() - h.DataLen - container.HeaderSize
	if container.HeaderSize+metaLen > l.imgLen {
		return nil, fmt.Errorf("%w: container %v metadata overruns its record", container.ErrCorrupt, id)
	}
	buf := make([]byte, metaLen)
	if _, err := seg.f.ReadAt(buf, start+container.HeaderSize); err != nil {
		return nil, fmt.Errorf("store: loading container %v meta: %w", id, err)
	}
	return container.DecodeMetas(buf, h.NumMeta), nil
}

// Containers implements container.Repository.
func (r *SegRepo) Containers() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return int64(len(r.loc))
}

// Bytes implements container.Repository.
func (r *SegRepo) Bytes() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.bytes
}

// Segments returns the number of segment files (for tests and stats).
func (r *SegRepo) Segments() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.segs)
}

// Mapped reports whether reads are served from memory mappings.
func (r *SegRepo) Mapped() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.segs) > 0 && r.segs[0].m != nil
}

// ForEachMeta visits every stored container's metadata in ascending ID
// order: the index-rebuild walk (§4.1 recovery).
func (r *SegRepo) ForEachMeta(fn func(id fp.ContainerID, metas []container.ChunkMeta) error) error {
	r.mu.RLock()
	ids := make([]fp.ContainerID, 0, len(r.loc))
	for id := range r.loc {
		ids = append(ids, id)
	}
	r.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		metas, err := r.LoadMeta(id)
		if err != nil {
			return err
		}
		if err := fn(id, metas); err != nil {
			return err
		}
	}
	return nil
}

// Close stops the committer, then syncs, unmaps and closes every segment.
// Zero-copy slices handed out by Load become invalid.
func (r *SegRepo) Close() error {
	// Outside r.mu: the flusher's syncActive takes the read lock.
	r.gc.Close()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	var first error
	for _, seg := range r.segs {
		if err := munmapFile(seg.m); err != nil && first == nil {
			first = err
		}
		seg.m = nil
		if seg.f != nil {
			if err := seg.f.Sync(); err != nil && first == nil && !errors.Is(err, io.EOF) {
				first = err
			}
			if err := seg.f.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

var _ container.Repository = (*SegRepo)(nil)
