package store

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"debar/internal/container"
	"debar/internal/fp"
	"debar/internal/obs"
	"debar/internal/seglog"
)

// Container-log metrics: append volume. Its fsyncs and segment
// bring-ups are counted by internal/seglog under store_container_*.
var (
	mRepoAppends     = obs.GetCounter("store_container_appends_total")
	mRepoAppendBytes = obs.GetCounter("store_container_append_bytes_total")
)

// SegRepo is the durable chunk repository: the container log, a
// segmented log (internal/seglog) under <dir>/containers/ whose frames
// each hold one container image. Segments are memory-mapped read-only,
// so Load returns zero-copy slices into the mapping for the LPC/restore
// path; LoadMeta, the index rebuild's read, copies with pread and maps
// nothing in.
//
// Residency: a mapped page stays in the process once a read touched it,
// so the mapped pages a SegRepo keeps are those of the containers the
// restorer's LPC holds. When the LPC evicts a container, Release drops
// its pages (madvise on Linux), and Close unmaps everything.
//
// Durability is the log's group commit: Append writes the frame and the
// log's flusher syncs it in the background. A container ID is durable
// once Flush, the log's barrier, has returned; the engine's Checkpoint
// flushes before dedup-2 retires WAL segments or trusts the index, so
// the WAL replays the chunks of any container a crash tears off.
// Opening reads only the frame and container headers of sealed segments,
// never a data section. Container IDs are consecutive through the log,
// so a lost sealed segment refuses the open.
type SegRepo struct {
	log      *seglog.Log // set once at open
	segBytes int64       // set once at open: segment capacity

	mu     sync.RWMutex
	maps   [][]byte                  // guarded by mu; per segment id, its read-only mapping; nil → pread
	loc    map[fp.ContainerID]segLoc // guarded by mu
	next   fp.ContainerID            // guarded by mu
	bytes  int64                     // guarded by mu; data-section bytes stored
	closed bool                      // guarded by mu
}

// SetFaults installs the test hooks f on the container log's segmented
// log (see seglog.Faults): f.Write fails container appends.
func (r *SegRepo) SetFaults(f seglog.Faults) { r.log.SetFaults(f) }

// segLoc is where a container's frame lives, and its image length.
type segLoc struct {
	pos    seglog.Pos
	imgLen int64
}

// segmentBytes is a container-log segment's capacity (32 default
// containers), keeping any single file bounded and recovery scans short.
// One oversized container gets a segment of its own.
const segmentBytes = 256 << 20

var repoFormat = seglog.Format{Name: "container", Prefix: "seg", Magic: "DCON", Version: 1, Peek: container.HeaderSize}

// ErrRepoCorrupt reports unrecoverable container-log damage that seglog
// cannot see: container IDs that are not consecutive through the log.
var ErrRepoCorrupt = errors.New("store: container log corrupt")

// openSegRepo opens (creating if needed) the container log under dir,
// with segments of segBytes, recovering existing segments.
//
//debarvet:ignore guardedby -- recovery fills the repository with r.mu held, before it is shared
func openSegRepo(dir string, segBytes int64) (*SegRepo, error) {
	r := &SegRepo{segBytes: segBytes, loc: make(map[fp.ContainerID]segLoc)}
	r.mu.Lock()
	defer r.mu.Unlock()
	var err error
	r.log, err = seglog.Open(dir, repoFormat, segBytes, func(p seglog.Pos, n uint32, payload []byte) bool {
		ch, err := container.ParseHeader(payload)
		// A frame always wraps exactly one container image; any other
		// declared geometry is damage (and would let an implausible
		// NumMeta walk past the image during meta decoding).
		if err != nil || ch.RecordLen() != int64(n) {
			return false
		}
		r.loc[ch.ID] = segLoc{pos: p, imgLen: int64(n)}
		r.bytes += ch.DataLen
		r.next = max(r.next, ch.ID+1)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("store: container log: %w", err)
	}
	if int64(len(r.loc)) != int64(r.next) {
		return nil, errors.Join(fmt.Errorf("%w: %d containers hold IDs up to %v (a segment lost?)", ErrRepoCorrupt, len(r.loc), r.next-1),
			r.log.Close())
	}
	last := r.log.Last()
	for id := uint32(0); id <= last; id++ {
		r.mapSegment(id, r.log.End(id))
	}
	return r, nil
}

// mapSegment maps segment id, which holds end bytes: a sealed one at its
// exact size, the active one with headroom for appends to become readable
// through the mapping as the file grows (the unified page cache keeps
// writes and the mapping coherent).
//
// debarvet:holds mu -- openSegRepo and Append enter with r.mu held.
func (r *SegRepo) mapSegment(id uint32, end int64) {
	if id == r.log.Last() {
		end = max(end, r.segBytes)
	}
	r.maps = append(r.maps, mmapFile(r.log.Segment(id).File(), end))
}

// Append implements container.Repository: it assigns the next container
// ID, appends its image as one frame (the log rotates first when the
// segment is full). The returned ID is durable once Flush returns.
func (r *SegRepo) Append(c *container.Container) (fp.ContainerID, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, errors.New("store: repository closed")
	}
	id := r.next
	if id > fp.MaxContainerID {
		return 0, fmt.Errorf("store: repository full (40-bit ID space exhausted)")
	}
	stored := &container.Container{ID: id, Meta: c.Meta, Data: c.Data}
	// The image is never assembled: frame header and container head go
	// out in one write, the data section straight from the caller's
	// buffer in a second.
	head := stored.MarshalHead()
	frame := append(make([]byte, seglog.FrameHeader, seglog.FrameHeader+len(head)), head...)
	p, err := r.log.Append(frame, c.Data)
	if err != nil {
		return 0, fmt.Errorf("store: appending container %v: %w", id, err)
	}
	imgLen := int64(len(head) + len(c.Data))
	frameLen := seglog.FrameHeader + imgLen
	grew := frameLen // the bytes the append adds to the log's files
	for seg := uint32(len(r.maps)); seg <= p.Seg; seg++ {
		// The log rotated: map the new segment, whose header the append
		// added too. Earlier mappings stay as they are, so zero-copy
		// slices already handed out stay valid.
		r.mapSegment(seg, r.log.End(seg))
		grew += seglog.HeaderSize
	}
	r.loc[id] = segLoc{pos: p, imgLen: imgLen}
	r.bytes += stored.DataBytes()
	r.next++
	mRepoAppends.Inc()
	mRepoAppendBytes.Add(grew)
	return id, nil
}

// Flush blocks until every container appended before the call is durable:
// the log's barrier. After a failed fsync it returns that first error.
func (r *SegRepo) Flush() error { return r.log.Sync() }

// Err returns the container log's first failed fsync, nil while none has
// failed.
func (r *SegRepo) Err() error { return r.log.Err() }

// locate snapshots a container's location and its segment's mapping
// under a short read lock. The record bytes are immutable once
// published, so callers read them without any lock afterwards.
func (r *SegRepo) locate(id fp.ContainerID) (segLoc, []byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	l, ok := r.loc[id]
	if !ok {
		return segLoc{}, nil, fmt.Errorf("%w: container %v", container.ErrNotFound, id)
	}
	return l, r.maps[l.pos.Seg], nil
}

// read returns n bytes of container id's image from off, n < 0 meaning
// the rest of it. With zeroCopy set and the segment mapped, the slice
// aliases the mapping (shared=true); otherwise it is a fresh pread copy,
// which leaves no page of the mapping resident.
func (r *SegRepo) read(id fp.ContainerID, off, n int64, zeroCopy bool) ([]byte, bool, error) {
	l, m, err := r.locate(id)
	if err != nil {
		return nil, false, err
	}
	if n < 0 {
		n = l.imgLen - off
	} else if off+n > l.imgLen {
		return nil, false, fmt.Errorf("%w: container %v metadata overruns its record", container.ErrCorrupt, id)
	}
	start := int64(l.pos.Off) + seglog.FrameHeader + off
	if end := start + n; zeroCopy && m != nil && end <= int64(len(m)) {
		return m[start:end:end], true, nil
	}
	buf := make([]byte, n)
	if err := r.log.Segment(l.pos.Seg).ReadAt(buf, start); err != nil {
		return nil, false, fmt.Errorf("store: loading container %v: %w", id, err)
	}
	return buf, false, nil
}

// Load implements container.Repository. On mmap-capable platforms the
// returned container's Data aliases the segment mapping — zero copies into
// the LPC/restore path — and remains valid until the repository is
// closed, across Release too.
func (r *SegRepo) Load(id fp.ContainerID) (*container.Container, error) {
	img, shared, err := r.read(id, 0, -1, true)
	if err != nil {
		return nil, err
	}
	if shared {
		return container.UnmarshalShared(img)
	}
	return container.Unmarshal(img)
}

// LoadMeta implements container.Repository, reading and decoding only the
// header and metadata section (never the data section) with two small
// preads, so that a walk over every container (ForEachMeta) leaves none
// of their pages mapped in.
func (r *SegRepo) LoadMeta(id fp.ContainerID) ([]container.ChunkMeta, error) {
	head, _, err := r.read(id, 0, container.HeaderSize, false)
	if err != nil {
		return nil, err
	}
	h, err := container.ParseHeader(head)
	if err != nil {
		return nil, err
	}
	metas, _, err := r.read(id, container.HeaderSize, h.RecordLen()-h.DataLen-container.HeaderSize, false)
	if err != nil {
		return nil, err
	}
	return container.DecodeMetas(metas, h.NumMeta), nil
}

// Release implements container.Repository: it drops the mapped pages of
// container id's frame from the process, rounded out to whole pages (a
// neighbour's boundary page faults back in when next read) and clipped to
// the segment's mapping. Slices Load handed out stay valid: a read-only
// shared file mapping faults a released page back in from the page cache.
// A no-op on the pread fallback, off Linux, after Close and for an
// unknown ID.
func (r *SegRepo) Release(id fp.ContainerID) {
	// The read lock is held across the madvise: Close unmaps under the
	// write lock, and the runtime may reuse unmapped addresses, where
	// MADV_DONTNEED would zero live memory.
	r.mu.RLock()
	defer r.mu.RUnlock()
	l, ok := r.loc[id]
	if r.closed || !ok {
		return
	}
	m := r.maps[l.pos.Seg] // nil on the pread fallback: end clips to 0
	page := int64(os.Getpagesize())
	start := int64(l.pos.Off) / page * page
	end := min(int64(len(m)), (int64(l.pos.Off)+seglog.FrameHeader+l.imgLen+page-1)/page*page)
	if start < end {
		releasePages(m[start:end])
	}
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
	return len(r.maps)
}

// Mapped reports whether reads are served from memory mappings.
func (r *SegRepo) Mapped() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.maps) > 0 && r.maps[0] != nil
}

// ForEachMeta visits every stored container's metadata in ascending ID
// order: the index-rebuild walk (§4.1 recovery).
func (r *SegRepo) ForEachMeta(fn func(id fp.ContainerID, metas []container.ChunkMeta) error) error {
	r.mu.RLock()
	n := r.next // IDs run from 0 to next-1, without gaps
	r.mu.RUnlock()
	for id := fp.ContainerID(0); id < n; id++ {
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

// Close unmaps every segment and closes the log, which syncs what its
// flusher has not and stops it. Zero-copy slices handed out by Load
// become invalid; a later Release is a no-op.
func (r *SegRepo) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	var errs []error
	for _, m := range r.maps {
		errs = append(errs, munmapFile(m))
	}
	r.maps = nil
	return errors.Join(append(errs, r.log.Close())...)
}

var _ container.Repository = (*SegRepo)(nil)
