// Package seglog is the segmented, checksummed append log under DEBAR's
// two durable logs: the dedup-1 chunk-log WAL (internal/chunklog, paper
// §5.1) and the container log (internal/store, §3.4). A log is a
// directory of segment files <prefix>-<seq>.log, named by a 16-digit
// sequence number, each starting with a header
//
//	+-----------+---------------+-----------+
//	| magic (4) | version (u32) | seq (u64) |
//	+-----------+---------------+-----------+
//
// followed by frames around the caller's payloads
//
//	+--------------+-----------+-----------------+
//	| crc32c (u32) | len (u32) | payload (len B) |
//	+--------------+-----------+-----------------+
//
// The checksum covers len and payload, seeded with the low 32 bits of the
// segment's sequence number, so a frame a recycled file still holds from
// an earlier life fails it, however exactly it lines up with the new
// frames. Appends fill the last segment; a frame that does not fit seals
// it — truncated to its exact end and fsynced — before the next segment
// comes up. Recovery keeps the longest valid prefix of the last segment
// and truncates the rest (a torn frame, a zero-filled tail, stale frames
// of a recycled file); any damage in a sealed segment refuses the open,
// and so does a header that does not name its file over a first frame
// valid under the file's number: a live segment whose header took damage.
//
// Retiring a segment renames it to the next unused sequence number,
// header untouched, and syncs the directory: a file whose header names
// another number holds no frames, so it is a spare, kept for reuse up to
// the number of segments the latest retirement retired. Reusing a spare
// rewrites and fsyncs its header, never while a failed directory sync
// leaves its new name in doubt; a new file gets its header, an fsync and
// a directory sync. Only then does a segment take appends, so a crash
// anywhere in between leaves a spare or an empty segment.
//
// Group commit is the log's own: Append never fsyncs, it wakes the log's
// flusher, one goroutine started on demand that fsyncs the last segment
// until every append is durable and then exits. Sync is the barrier: it
// returns once a sync covering every earlier append has completed, so
// concurrent callers share one fsync. A failed fsync is sticky: the
// kernel may have dropped the dirty pages, so a later fsync that succeeds
// proves nothing about them, and every later Sync and Close returns the
// first error (Err). Rotation, retirement and Close always sync, every
// sync through internal/fsx.
package seglog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"debar/internal/fsx"
	"debar/internal/obs"
)

const (
	// HeaderSize is the size of a segment's header: frames start past it.
	HeaderSize = 16

	// FrameHeader is the size of a frame's checksum and length.
	FrameHeader = 8

	// Window is the read window recovery streams a segment through, one
	// positional read per window; a larger frame grows it.
	Window = 4 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Format describes one log's files.
type Format struct {
	Name    string // names the log in metrics (store_<Name>_...) and errors
	Prefix  string // segment files are <Prefix>-<16-digit seq>.log
	Magic   string // the header's 4-byte magic
	Version uint32 // the format version this build reads and writes

	// Peek > 0: recovery reads only the header and first Peek payload
	// bytes of a sealed segment's frames, unchecked (a sealed segment was
	// fsynced whole). The last segment's frames are always checksummed.
	Peek int

	// Older judges a segment of an older version whose header names its
	// own file: nil makes it a spare (it holds no frames), an error
	// refuses the open. With no Older, it is a *VersionError.
	Older func(r io.ReaderAt, version uint32, seq uint64) error
}

// Pos is where a frame starts: its segment's id, which counts the log's
// bring-ups since it was opened, and its offset in the segment file.
type Pos struct{ Seg, Off uint32 }

// VersionError reports a segment in a format this build does not read.
// Found is 0 for a file written before its log's segments had headers.
type VersionError struct {
	Path        string
	Found, Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("seglog: %s: format version %d, this build reads version %d", e.Path, e.Found, e.Want)
}

// CorruptError reports a frame whose framing, checksum or payload is
// invalid.
type CorruptError struct {
	Path string
	Off  int64
	Why  string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("seglog: %s: frame at offset %d %s (media corruption?)", e.Path, e.Off, e.Why)
}

// Segment is one live segment file. Only end changes, under the log's mu.
type Segment struct {
	seq  uint64
	id   uint32
	seed uint32 // the frames' checksum seed
	f    *os.File
	path string
	end  int64
}

// spare is a retired segment file waiting for reuse, already renamed to
// the sequence number it will take.
type spare struct {
	seq uint64
	f   *os.File
}

// Log is one segmented log.
type Log struct {
	dir      string // set once at open
	format   Format // set once at open
	segBytes int64  // set once at open: segment capacity

	mu      sync.Mutex
	segs    []*Segment // guarded by mu; live segments in sequence order, the last takes appends
	free    []spare    // guarded by mu; retired segment files kept for reuse, in sequence order
	nextSeq uint64     // guarded by mu; sequence number the next new or retired file takes
	nextID  uint32     // guarded by mu; id the next segment brought up takes
	renamed bool       // guarded by mu; a retirement renamed files and no directory sync has succeeded since
	closed  bool       // guarded by mu; Close ran: appends fail

	// Group commit. Every byte before synced is durable or retired, and
	// the bytes from synced to appended all lie in the last segment, since
	// sealing a segment syncs it.
	cond     *sync.Cond // on mu: synced moved, failed was set, or the flusher exited
	appended int64      // guarded by mu; frame bytes appended since open
	synced   int64      // guarded by mu; appended as of the last completed sync
	flushing bool       // guarded by mu; the flusher goroutine runs
	retiring bool       // guarded by mu; a retirement may close files: no flusher starts
	failed   error      // guarded by mu; the first failed fsync, returned by every later Sync and Close

	faults Faults // guarded by mu

	mFsyncs, mSyncedBytes, mReused, mCreated *obs.Counter
	mFsyncSeconds                            *obs.Histogram
}

// Open opens (creating if needed) the log in dir, with segments of
// segBytes, and recovers it. visit sees every recovered frame in order:
// its position, payload length n and payload (in a sealed segment, its
// first Format.Peek bytes). False marks the payload invalid: a torn tail
// in the last segment, a refusal in a sealed one.
func Open(dir string, f Format, segBytes int64, visit func(p Pos, n uint32, payload []byte) bool) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("seglog: open %s: %w", f.Name, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("seglog: open %s: %w", f.Name, err)
	}
	p := "store_" + f.Name + "_"
	l := &Log{dir: dir, format: f, segBytes: segBytes, nextSeq: 1,
		mFsyncs:       obs.GetCounter(p + "fsyncs_total"),
		mFsyncSeconds: obs.GetHistogram(p+"fsync_seconds", obs.DurationBuckets),
		mSyncedBytes:  obs.GetCounter(p + "synced_bytes_total"),
		mReused:       obs.GetCounter(p + "segments_reused_total"),
		mCreated:      obs.GetCounter(p + "segments_created_total"),
	}
	l.cond = sync.NewCond(&l.mu)
	l.mu.Lock()
	defer l.mu.Unlock()
	err = l.recover(ents, visit)
	if err == nil && len(l.segs) == 0 {
		err = l.bringUp()
	}
	if err != nil {
		return nil, errors.Join(err, l.closeFiles())
	}
	return l, nil
}

// name returns the file name of segment seq.
func (l *Log) name(seq uint64) string { return fmt.Sprintf("%s-%016d.log", l.format.Prefix, seq) }

// parseName returns the sequence number a segment file name carries. A
// name of the log's pattern but another shape — a segment of a format
// before headers — is a *VersionError, never skipped.
func (l *Log) parseName(name string) (uint64, bool, error) {
	if ok, _ := filepath.Match(l.format.Prefix+"-*.log", name); !ok {
		return 0, false, nil
	}
	seq, err := strconv.ParseUint(name[len(l.format.Prefix)+1:len(name)-4], 10, 64)
	if err != nil || name != l.name(seq) {
		return 0, false, &VersionError{Path: filepath.Join(l.dir, name), Want: l.format.Version}
	}
	return seq, true, nil
}

// header returns the header of segment seq.
func (l *Log) header(seq uint64) []byte {
	h := make([]byte, HeaderSize)
	copy(h, l.format.Magic)
	binary.BigEndian.PutUint32(h[4:], l.format.Version)
	binary.BigEndian.PutUint64(h[8:], seq)
	return h
}

// live reports whether f, named seq, is a live segment: its header, of
// this format, names seq. A header of a newer version, or of an older one
// naming seq that Format.Older refuses, refuses the open. Anything else
// is a spare — unless its first frame passes its checksum under seq: then
// it is a live segment whose header took damage, and the open is refused
// with a *CorruptError. A genuine spare never passes, since retirement
// keeps its header and its frames' checksum seed.
func (l *Log) live(f *os.File, seq uint64) (bool, error) {
	var h [HeaderSize]byte
	if _, err := f.ReadAt(h[:], 0); errors.Is(err, io.EOF) {
		return false, nil
	} else if err != nil {
		return false, fmt.Errorf("seglog: reading header: %w", err)
	}
	if string(h[:4]) == l.format.Magic {
		v, named := binary.BigEndian.Uint32(h[4:]), binary.BigEndian.Uint64(h[8:])
		switch {
		case v == l.format.Version && named == seq:
			return true, nil
		case v > l.format.Version || v < l.format.Version && named == seq && l.format.Older == nil:
			return false, &VersionError{Path: f.Name(), Found: v, Want: l.format.Version}
		case v < l.format.Version && named == seq:
			if err := l.format.Older(f, v, seq); err != nil {
				return false, err
			}
		}
	}
	ok, err := firstFrameValid(f, seq)
	if ok {
		err = &CorruptError{Path: f.Name(), Why: "is a damaged segment header over a valid first frame"}
	}
	return false, err
}

// firstFrameValid reports whether the first frame of f, named seq, is
// whole and passes its checksum under seq. Its declared length is
// bounded by the file before anything is read for it.
func firstFrameValid(f *os.File, seq uint64) (bool, error) {
	st, err := f.Stat()
	if err != nil {
		return false, fmt.Errorf("seglog: stat: %w", err)
	}
	var h [FrameHeader]byte
	if st.Size() < HeaderSize+FrameHeader {
		return false, nil
	} else if _, err := f.ReadAt(h[:], HeaderSize); err != nil {
		return false, fmt.Errorf("seglog: reading first frame: %w", err)
	}
	n := int64(binary.BigEndian.Uint32(h[4:]))
	if HeaderSize+FrameHeader+n > st.Size() {
		return false, nil
	}
	frame := make([]byte, FrameHeader+n)
	if _, err := f.ReadAt(frame, HeaderSize); err != nil {
		return false, fmt.Errorf("seglog: reading first frame: %w", err)
	}
	return binary.BigEndian.Uint32(frame) == crc32.Update(uint32(seq), castagnoli, frame[4:]), nil
}

// recover sorts the segment files into live segments and spares, visits
// the live segments' frames and truncates the last one after its longest
// valid prefix. Nothing is renamed or truncated before every file is
// sorted, so a refused log is left as it is.
//
//debarvet:ignore guardedby -- recovery runs inside Open with l.mu held, before the log is shared
func (l *Log) recover(ents []os.DirEntry, visit func(Pos, uint32, []byte) bool) error {
	for _, e := range ents { // by name, so by sequence number
		seq, ok, err := l.parseName(e.Name())
		if err != nil {
			return err
		} else if !ok {
			continue
		}
		l.nextSeq = max(l.nextSeq, seq+1)
		path := filepath.Join(l.dir, e.Name())
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			return fmt.Errorf("seglog: open segment: %w", err)
		}
		live, err := l.live(f, seq)
		if err != nil {
			return errors.Join(fmt.Errorf("%s: %w", path, err), f.Close())
		}
		if !live {
			l.free = append(l.free, spare{seq: seq, f: f})
			continue
		}
		l.segs = append(l.segs, &Segment{seq: seq, id: l.nextID, seed: uint32(seq), f: f, path: path})
		l.nextID++
	}
	if n := len(l.segs); n > 0 {
		// Retirement numbers spares past every live segment, so a file
		// without a valid header below the last live one is damage.
		if last := l.segs[n-1].seq; len(l.free) > 0 && l.free[0].seq < last {
			return fmt.Errorf("seglog: %s has no valid header but precedes segment %d (media corruption?)",
				l.name(l.free[0].seq), last)
		}
	}
	// A spare found here may still hold frames checksummed under the
	// number it is named after (its header damaged or half-written):
	// renumber every spare past every file, so reusing it can never make
	// those frames valid again.
	for i, sp := range l.free {
		if err := os.Rename(filepath.Join(l.dir, l.name(sp.seq)), filepath.Join(l.dir, l.name(l.nextSeq))); err != nil {
			return fmt.Errorf("seglog: renumbering spare: %w", err)
		}
		l.free[i].seq = l.nextSeq
		l.nextSeq++
	}
	if len(l.free) > 0 {
		if err := l.syncDir(); err != nil {
			return err
		}
	}
	for i, s := range l.segs {
		st, err := s.f.Stat()
		if err != nil {
			return fmt.Errorf("seglog: stat: %w", err)
		}
		size := st.Size()
		peek := l.format.Peek
		if i == len(l.segs)-1 {
			peek = 0
		}
		s.end, err = s.walk(size, peek, visit)
		if bad := (*CorruptError)(nil); errors.As(err, &bad) && i < len(l.segs)-1 {
			return fmt.Errorf("seglog: sealed %s segment: %w", l.format.Name, err)
		} else if err != nil && bad == nil {
			return err
		}
		if s.end < size {
			// The last segment's tail is torn, zero-filled or stale:
			// truncate it so the next append lands at the logical end.
			if err := s.f.Truncate(s.end); err != nil {
				return fmt.Errorf("seglog: truncating torn tail: %w", err)
			}
			if err := fsx.SyncData(s.f); err != nil {
				return fmt.Errorf("seglog: sync after truncate: %w", err)
			}
		}
	}
	return nil
}

// walk visits the frames of s in [HeaderSize, size) in order, streaming
// the file through one reused read window and checking every frame's
// checksum in place — or, with peek > 0, reading only each frame's header
// and first peek payload bytes. It returns the offset past the last valid
// frame and, if that is short of size, a *CorruptError naming the first
// invalid one. A declared length is bounded by the file before anything
// is read or allocated for it.
func (s *Segment) walk(size int64, peek int, visit func(Pos, uint32, []byte) bool) (int64, error) {
	buf := make([]byte, FrameHeader+peek)
	if peek == 0 {
		buf = make([]byte, min(size-HeaderSize, Window))
	}
	base, filled := int64(HeaderSize), int64(HeaderSize) // buf[:filled-base] holds file bytes [base, filled)
	// load makes buf hold file bytes [off, off+n), sliding the part of
	// the window past off to its front and refilling the rest with one
	// read: the whole window, or with peek only [off, off+n).
	load := func(off, n int64) error {
		if off+n <= filled {
			return nil
		}
		if off > filled {
			base, filled = off, off // a skipped payload: nothing to keep
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
		top := min(int64(len(buf)), size-base)
		if peek > 0 {
			top = n
		}
		if _, err := s.f.ReadAt(buf[keep:top], filled); err != nil {
			return fmt.Errorf("seglog: %s: read at offset %d: %w", s.path, filled, err)
		}
		filled = base + top
		return nil
	}
	for off := int64(HeaderSize); off < size; {
		if off+FrameHeader > size {
			return off, s.corrupt(off, "has a short header")
		}
		if off > math.MaxUint32 {
			return off, s.corrupt(off, "lies past any offset a segment reaches")
		}
		if err := load(off, min(FrameHeader+int64(peek), size-off)); err != nil {
			return off, err
		}
		n := int64(binary.BigEndian.Uint32(buf[off-base+4:]))
		if off+FrameHeader+n > size {
			return off, s.corrupt(off, fmt.Sprintf("declares %d payload bytes, %d left in the segment", n, size-off-FrameHeader))
		}
		var payload []byte
		if peek > 0 {
			at := off - base + FrameHeader
			payload = buf[at : at+min(int64(peek), n)]
		} else {
			if err := load(off, FrameHeader+n); err != nil {
				return off, err
			}
			frame := buf[off-base : off-base+FrameHeader+n]
			if binary.BigEndian.Uint32(frame) != crc32.Update(s.seed, castagnoli, frame[4:]) {
				return off, s.corrupt(off, "fails checksum")
			}
			payload = frame[FrameHeader:]
		}
		if !visit(Pos{s.id, uint32(off)}, uint32(n), payload) {
			return off, s.corrupt(off, "holds an invalid payload")
		}
		off += FrameHeader + n
	}
	return size, nil
}

func (s *Segment) corrupt(off int64, why string) error {
	return &CorruptError{Path: s.path, Off: off, Why: why}
}

// ReadAt reads len(b) bytes of the segment at off: a frame, or a run of
// frames, that an append or recovery returned the position of.
func (s *Segment) ReadAt(b []byte, off int64) error {
	if _, err := s.f.ReadAt(b, off); err != nil {
		return fmt.Errorf("seglog: %s: read at offset %d: %w", s.path, off, err)
	}
	return nil
}

// Payload checks frame, the bytes read at off, against its checksum and
// length, and returns its payload, which aliases frame.
func (s *Segment) Payload(off int64, frame []byte) ([]byte, error) {
	if n := binary.BigEndian.Uint32(frame[4:]); int64(n) != int64(len(frame))-FrameHeader {
		return nil, s.corrupt(off, fmt.Sprintf("declares %d payload bytes, %d were logged", n, len(frame)-FrameHeader))
	}
	if binary.BigEndian.Uint32(frame) != crc32.Update(s.seed, castagnoli, frame[4:]) {
		return nil, s.corrupt(off, "fails checksum")
	}
	return frame[FrameHeader:], nil
}

// File returns the segment's file for read-only mappings: writes,
// truncation and syncs belong to the log.
func (s *Segment) File() *os.File { return s.f }

// Segment returns the live segment with id. The caller orders the call
// and its reads before any retirement of the segment.
func (l *Log) Segment(id uint32) *Segment {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[id-l.segs[0].id]
}

// Last returns the id of the segment that takes appends.
func (l *Log) Last() uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[len(l.segs)-1].id
}

// End returns the offset past the last frame of live segment id.
func (l *Log) End(id uint32) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[id-l.segs[0].id].end
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Append writes one frame at the end of the last segment, bringing up the
// next segment first when it does not fit, and returns its position. The
// payload is frame[FrameHeader:] followed by tail; Append fills in
// frame[:FrameHeader]. frame goes out in one write and tail, if any, in a
// second, straight from the caller's buffer. It never fsyncs the frame:
// the flusher does, and it is durable once a later Sync returns.
func (l *Log) Append(frame, tail []byte) (Pos, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	defer l.kick()
	if err := l.writable(); err != nil {
		return Pos{}, err
	}
	s, err := l.place(0, frame, tail, nil)
	if err != nil {
		return Pos{}, err
	}
	if _, err := s.f.WriteAt(frame, s.end); err != nil {
		return Pos{}, fmt.Errorf("seglog: %s append: %w", l.format.Name, err)
	}
	if len(tail) > 0 {
		if _, err := s.f.WriteAt(tail, s.end+int64(len(frame))); err != nil {
			return Pos{}, fmt.Errorf("seglog: %s append: %w", l.format.Name, err)
		}
	}
	p := Pos{Seg: s.id, Off: uint32(s.end)}
	n := int64(len(frame) + len(tail))
	s.end += n
	l.appended += n
	return p, nil
}

// AppendFrames writes frames packed back to back in buf, frame i sizes[i]
// bytes with its header, at the end of the log, and sets pos[i] to each
// one's position. It fills in every frame's header like Append, and
// writes each run of frames that lands in one segment with one write. It
// returns how many frames, from the first, were written: all of them, or
// on an error those before the failed write. Like Append, it never
// fsyncs.
func (l *Log) AppendFrames(buf []byte, sizes []int, pos []Pos) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	defer l.kick()
	if err := l.writable(); err != nil {
		return 0, err
	}
	i, done, lo, off := 0, 0, 0, 0 // frames [done, i) wait in buf[lo:off] for one write
	write := func() error {
		if err := l.writeRun(buf[lo:off]); err != nil {
			return err
		}
		done, lo = i, off
		return nil
	}
	for ; i < len(sizes); i++ {
		s, err := l.place(int64(off-lo), buf[off:off+sizes[i]], nil, write)
		if err != nil {
			return done, err
		}
		pos[i] = Pos{Seg: s.id, Off: uint32(s.end + int64(off-lo))}
		off += sizes[i]
	}
	err := write()
	return done, err
}

// writeRun writes run, whole frames back to back, at the end of the last
// segment, with one write.
//
// debarvet:holds mu -- AppendFrames enters with l.mu held.
func (l *Log) writeRun(run []byte) error {
	if len(run) == 0 {
		return nil
	}
	s := l.segs[len(l.segs)-1]
	if _, err := s.f.WriteAt(run, s.end); err != nil {
		return fmt.Errorf("seglog: %s append: %w", l.format.Name, err)
	}
	s.end += int64(len(run))
	l.appended += int64(len(run))
	return nil
}

// place fills in the header of a frame — payload frame[FrameHeader:]
// followed by tail — for the segment it lands in, pending bytes past the
// last segment's end, and returns that segment. A frame that does not
// fit there goes to the next segment, brought up once write (if any) has
// written the pending bytes; an empty segment takes any frame, so one
// larger than a segment gets a segment of its own.
//
// debarvet:holds mu -- Append and AppendFrames enter with l.mu held.
func (l *Log) place(pending int64, frame, tail []byte, write func() error) (*Segment, error) {
	n := int64(len(frame) + len(tail))
	if k := len(l.segs); k == 0 || l.segs[k-1].end+pending > HeaderSize && l.segs[k-1].end+pending+n > l.segBytes {
		if write != nil {
			if err := write(); err != nil {
				return nil, err
			}
		}
		if err := l.rotate(); err != nil {
			return nil, err
		}
	}
	s := l.segs[len(l.segs)-1]
	binary.BigEndian.PutUint32(frame[4:], uint32(n-FrameHeader))
	crc := crc32.Update(s.seed, castagnoli, frame[4:])
	binary.BigEndian.PutUint32(frame, crc32.Update(crc, castagnoli, tail))
	return s, nil
}

// rotate seals the last segment, if any — truncated to its exact end and
// fsynced — and brings up the next one.
//
// debarvet:holds mu -- place enters with l.mu held.
func (l *Log) rotate() error {
	if k := len(l.segs); k > 0 {
		s := l.segs[k-1]
		if err := s.f.Truncate(s.end); err != nil {
			return fmt.Errorf("seglog: sealing %s segment: %w", l.format.Name, err)
		}
		if err := fsx.SyncData(s.f); err != nil {
			err = fmt.Errorf("seglog: sealing %s segment: %w", l.format.Name, err)
			l.fail(err)
			return err
		}
		l.synced = l.appended // every append so far is in a synced segment
		l.cond.Broadcast()
		if err := l.step("sealed"); err != nil {
			return err
		}
	}
	return l.bringUp()
}

// bringUp makes the next segment ready for appends: the lowest-numbered
// spare, its header rewritten and fsynced, or else a new file, created
// with its header, fsynced, and its directory synced.
//
// debarvet:holds mu -- rotate, retire and Open enter with l.mu held.
func (l *Log) bringUp() error {
	if len(l.free) > 0 {
		// A spare whose rename is not durable could come back after a
		// crash under its live name with a header naming another number,
		// and recovery would drop its frames as a spare's: sync first.
		if l.renamed {
			if err := l.syncDir(); err != nil {
				return err
			}
		}
		sp := l.free[0]
		if _, err := sp.f.WriteAt(l.header(sp.seq), 0); err != nil {
			return fmt.Errorf("seglog: reusing %s segment: %w", l.format.Name, err)
		}
		if err := l.step("header"); err != nil {
			return err
		}
		if err := fsx.SyncData(sp.f); err != nil {
			return fmt.Errorf("seglog: reusing %s segment: %w", l.format.Name, err)
		}
		l.free = l.free[1:]
		l.segs = append(l.segs, &Segment{seq: sp.seq, id: l.nextID, seed: uint32(sp.seq), f: sp.f,
			path: filepath.Join(l.dir, l.name(sp.seq)), end: HeaderSize})
		l.nextID++
		l.mReused.Inc()
		return nil
	}
	seq := l.nextSeq
	path := filepath.Join(l.dir, l.name(seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: new %s segment: %w", l.format.Name, err)
	}
	l.nextSeq++
	if err := l.step("created"); err != nil {
		return errors.Join(err, f.Close())
	}
	if _, err := f.WriteAt(l.header(seq), 0); err != nil {
		return errors.Join(fmt.Errorf("seglog: new %s segment: %w", l.format.Name, err), f.Close())
	}
	if err := fsx.SyncData(f); err != nil {
		return errors.Join(fmt.Errorf("seglog: new %s segment: %w", l.format.Name, err), f.Close())
	}
	if err := l.syncDir(); err != nil {
		return errors.Join(err, f.Close())
	}
	l.segs = append(l.segs, &Segment{seq: seq, id: l.nextID, seed: uint32(seq), f: f, path: path, end: HeaderSize})
	l.nextID++
	l.mCreated.Inc()
	return nil
}

// RetireBefore retires every live segment whose id is below id: their
// files become spares (see the package comment). When that retires the
// segment taking appends, its unsynced tail retired with it, the next
// segment comes up at once. The caller orders retirement after every
// read of the retired segments; the log orders it after the flusher's
// fsync, which may be on one of them.
func (l *Log) RetireBefore(id uint32) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.retiring = true
	for l.flushing {
		l.cond.Wait()
	}
	err := l.retire(id)
	l.retiring = false
	l.kick()
	return err
}

// retire is RetireBefore once no fsync is in flight.
//
// debarvet:holds mu -- RetireBefore enters with l.mu held.
func (l *Log) retire(id uint32) error {
	cut := int(id - l.segs[0].id)
	retired := l.segs[:cut:cut]
	l.segs = l.segs[cut:]
	err := l.recycle(retired)
	if len(l.segs) == 0 {
		// Bring up the next segment now, so the next append does not wait
		// for it. (An append brings it up if this fails.)
		l.synced = l.appended
		l.cond.Broadcast()
		err = errors.Join(err, l.bringUp())
	}
	return err
}

// recycle renames the retired segments into spares, numbered past every
// file in the log, deletes the spares beyond len(retired), and syncs the
// directory. Should that sync fail, no spare is reused before a later one
// succeeds (bringUp).
//
// debarvet:holds mu -- retire enters with l.mu held.
func (l *Log) recycle(retired []*Segment) error {
	var errs []error
	for _, s := range retired {
		seq := l.nextSeq
		if err := os.Rename(s.path, filepath.Join(l.dir, l.name(seq))); err != nil {
			// Not recyclable: delete it, its frames are retired. (If that
			// fails too, a reopen replays them.)
			errs = append(errs, fmt.Errorf("seglog: retiring %s segment: %w", l.format.Name, err), s.f.Close(), os.Remove(s.path))
			continue
		}
		l.renamed = true
		l.nextSeq++
		l.free = append(l.free, spare{seq: seq, f: s.f})
		if err := l.step("renamed"); err != nil {
			return err
		}
	}
	for len(l.free) > len(retired) {
		sp := l.free[len(l.free)-1]
		l.free = l.free[:len(l.free)-1]
		errs = append(errs, sp.f.Close(), os.Remove(filepath.Join(l.dir, l.name(sp.seq))))
	}
	if len(retired) > 0 {
		errs = append(errs, l.syncDir())
	}
	return errors.Join(errs...)
}

// syncDir syncs the log's directory, making the names created, renamed
// and removed in it durable.
//
// debarvet:holds mu -- every caller holds l.mu.
func (l *Log) syncDir() error {
	if l.faults.Dir != nil {
		if err := l.faults.Dir(); err != nil {
			return fmt.Errorf("seglog: syncing %s directory: %w", l.format.Name, err)
		}
	}
	if err := fsx.SyncDir(l.dir); err != nil {
		return fmt.Errorf("seglog: syncing %s directory: %w", l.format.Name, err)
	}
	l.renamed = false
	return nil
}

// step reports a step of rotation or recycling to the test hook.
//
// debarvet:holds mu -- every step runs with l.mu held.
func (l *Log) step(name string) error {
	if l.faults.Step == nil {
		return nil
	}
	return l.faults.Step(name)
}

// writable refuses an append after Close, and one the Write hook fails,
// before anything is written.
//
// debarvet:holds mu -- Append and AppendFrames enter with l.mu held.
func (l *Log) writable() error {
	if l.closed {
		return fmt.Errorf("seglog: %s append after Close", l.format.Name)
	}
	if l.faults.Write == nil {
		return nil
	}
	if err := l.faults.Write(); err != nil {
		return fmt.Errorf("seglog: %s append: %w", l.format.Name, err)
	}
	return nil
}

// Faults are test hooks. Step is called at each step of rotation and
// recycling — "sealed", "created", "renamed", "header" — and its error
// aborts the step's operation, as a crash there would. Write is called
// before each Append or AppendFrames writes or rotates anything, Sync
// before each of the flusher's fsyncs and Dir before each directory
// sync; an error from any of them fails that operation as the medium
// would.
type Faults struct {
	Step             func(step string) error
	Write, Sync, Dir func() error
}

// SetFaults installs f in place of the hooks installed before.
func (l *Log) SetFaults(f Faults) {
	l.mu.Lock()
	l.faults = f
	l.mu.Unlock()
}

// kick starts the flusher when appends wait for a sync and none runs.
//
// debarvet:holds mu -- every caller holds l.mu.
func (l *Log) kick() {
	if !l.flushing && !l.retiring && l.failed == nil && l.synced < l.appended {
		l.flushing = true
		go l.flush()
	}
}

// flush is the flusher: it fsyncs the last segment, outside the append
// lock so appends proceed meanwhile, until every append is durable, a
// sync fails or a retirement holds it off. Bytes appended during an fsync
// wait for the next one; a seal during it has synced them already.
func (l *Log) flush() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for !l.retiring && l.failed == nil && l.synced < l.appended {
		target, file, hook := l.appended, l.segs[len(l.segs)-1].f, l.faults.Sync
		l.mu.Unlock()
		err := l.fsync(file, hook)
		l.mu.Lock()
		if err != nil {
			l.fail(fmt.Errorf("seglog: %s sync: %w", l.format.Name, err))
		} else if target > l.synced {
			l.mSyncedBytes.Add(target - l.synced)
			l.synced = target
		}
		l.cond.Broadcast()
	}
	l.flushing = false
	l.cond.Broadcast()
}

// fsync runs the Sync hook, if any, and then the fsync of file.
func (l *Log) fsync(file *os.File, hook func() error) error {
	if hook != nil {
		if err := hook(); err != nil {
			return err
		}
	}
	start := time.Now()
	if err := fsx.SyncData(file); err != nil {
		return err
	}
	l.mFsyncs.Inc()
	l.mFsyncSeconds.Since(start)
	return nil
}

// fail records err as the log's sticky failure unless one is recorded.
//
// debarvet:holds mu -- every caller holds l.mu.
func (l *Log) fail(err error) {
	if l.failed == nil {
		l.failed = err
		l.cond.Broadcast()
	}
}

// Err returns the log's first failed fsync, nil while none has failed.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Sync is the log's barrier: it returns once a sync covering every
// append before the call has completed, sharing the flusher's fsyncs with
// every concurrent caller. After a failed fsync it returns that first
// error, whatever the call would cover.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.await()
}

// await waits until every append so far is durable or an fsync has
// failed, and returns the failure.
//
// debarvet:holds mu -- Sync and Close enter with l.mu held.
func (l *Log) await() error {
	target := l.appended
	l.kick()
	for l.failed == nil && l.synced < target {
		l.cond.Wait()
	}
	return l.failed
}

// Close syncs outstanding appends, waits for the flusher to exit and
// releases the segment files. Appends after Close fail; after a failed
// fsync, Close still releases the files and returns the first error.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	err := l.await()
	for l.flushing {
		l.cond.Wait()
	}
	return errors.Join(err, l.closeFiles())
}

// closeFiles closes every segment and spare file. Their bytes were synced
// when they were written, sealed or retired, or by Close's Sync.
//
// debarvet:holds mu -- Close and Open enter with l.mu held.
func (l *Log) closeFiles() error {
	var errs []error
	for _, s := range l.segs {
		errs = append(errs, s.f.Close())
	}
	for _, sp := range l.free {
		errs = append(errs, sp.f.Close())
	}
	l.segs, l.free = nil, nil
	return errors.Join(errs...)
}
