// Package proto defines the wire protocol spoken between DEBAR's backup
// clients, backup servers and the director (paper §2, §3).
//
// # Wire format
//
// Every message travels in one length-prefixed frame:
//
//	+-----+----------------+----------------------+
//	| tag | length (u32 BE)| payload (length bytes)|
//	+-----+----------------+----------------------+
//
// The one-byte tag names the message type; each type has its own
// hand-rolled binary layout (codec.go), big-endian throughout, with
// pooled encode/decode buffers. Strings and lists carry a 4-byte length
// or count, except a FileEntry's path, which carries a 2-byte length;
// fingerprints travel as raw 20-byte arrays. An encoder never wraps a
// length: Send returns an error for a string or list that does not fit
// its field. Chunk payloads (ChunkBatch, RestoreChunkBatch) are sliced
// out of the receive buffer without copying, and RecvInto lets a
// receiver reuse that buffer from one bulk frame to the next.
//
// Every decoder bounds each count by the bytes left before it allocates,
// rejects trailing bytes, and treats an unknown tag as fatal to the
// connection.
//
// Marshal and Unmarshal write and read a record: a frame without its
// length field, the tag byte followed by the payload. The director
// journals the control frames it applies as records.
//
// # Backup path
//
// The dedup-1 exchange for one backup session is fingerprint-first: no
// chunk byte moves before the server has asked for it.
//
//	client                                  server
//	  │ ── BackupStart{job, client, ver, caps} ──▶ │
//	  │ ◀── BackupStartOK{session, ver, caps} ──── │  (caps = intersection)
//	  │ ── FPBatch{seq=0, fps, sizes} ───────────▶ │
//	  │ ── FPBatch{seq=1, ...}        ───────────▶ │  (window of batches in flight)
//	  │ ◀── FPVerdicts{seq=0, verdicts} ────────── │
//	  │ ── ChunkBatch{fps, data} ────────────────▶ │  (only VerdictSend chunks; no reply)
//	  │ ── FileMeta{entry} ──────────────────────▶ │  (per completed file)
//	  │ ◀── Ack ────────────────────────────────── │
//	  │ ── BackupEnd ────────────────────────────▶ │
//	  │ ◀── BackupDone{totals} ─────────────────── │  (after an fsync covering the run)
//
// Each FPBatch is answered by one FPVerdicts carrying a per-chunk
// verdict: VerdictSend (transfer the chunk payload) or
// VerdictSkipDuplicate (the server already holds the chunk — in its
// chunk log, its preliminary filter, or, when CapInlineDedup was
// negotiated, its disk index/LPC — so the client records the fingerprint
// in the file entry and ships nothing).
//
// Replies come back in request order, with one exception: an accepted
// ChunkBatch gets no reply at all. The server logs its chunks, which the
// chunk log syncs in the background, without waiting for the fsync;
// BackupDone is the durability point, sent only after an fsync that
// covers every chunk the run references. A refused ChunkBatch (read-only
// store, fingerprint mismatch, unknown session) is answered with a typed
// Ack{OK: false}, which therefore may arrive in place of the reply to
// any later request; a client treats it as fatal to the backup attempt.
// FPVerdicts echo their FPBatch's Seq, which the client checks.
//
// # Protocol versioning and capabilities
//
// BackupStart carries the client's ProtocolVersion and a Caps bitset;
// BackupStartOK echoes the server's version and the negotiated
// intersection of the two cap sets. The rules:
//
//   - ProtocolVersion is the minimum either end accepts. A BackupStart
//     with a lower Version is refused with a CodeUnsupportedVersion Ack
//     before any session exists, and a client refuses a BackupStartOK
//     with a lower Version.
//   - Peers at version 3 or older sent every control message as a gob
//     stream under tag 0. Recv skips such a frame without decoding it and
//     returns ErrLegacyFrame; the server and the director answer it with
//     LegacyRefusal, a CodeUnsupportedVersion Ack (the Ack frame is
//     unchanged since version 1, so the old peer decodes it), and hang
//     up.
//   - A capability-gated behaviour may be used only after BOTH ends
//     advertised it (the negotiated intersection from BackupStartOK).
//   - CapInlineDedup gates the server's inline duplicate detection
//     against its disk index. Every session, with or without it, gets
//     verdicts in the 2-bit packed FPVerdicts frame (tag 8).
//
// # Frame evolution policy
//
// No frame is field-extensible: decoders reject trailing bytes, and an
// unknown tag is a connection-fatal decode error. A new field, like a new
// frame form, therefore takes a new tag plus either a capability bit
// (emitted only toward peers that advertised it) or a raised
// ProtocolVersion. An old form is not kept forever: it is retired by
// raising the minimum version, after which its tag stays reserved and
// decodes as unknown (tag 2, the version-1 bitmap verdict frame, went
// this way; tag 0, the gob control frame, went in version 4 and is only
// recognised to refuse its sender). A change to which frames are answered
// is a version bump too: version 3 made an accepted ChunkBatch one-way,
// so neither end talks to a version-2 peer, which would send or expect a
// ChunkBatch Ack. The same applies to enum ranges inside a frame: a
// decoder rejects verdict values it does not know, so new Verdict values
// require a capability bit or a version bump.
//
// # Restore streaming
//
// Restore is chunk-streamed with receiver-driven flow control, mirroring
// the windowed backup pipeline. The exchange for one file:
//
//	client                                server
//	  │ ── RestoreFile{job, path, batch, win} ──▶ │
//	  │ ◀── RestoreBegin{entry, batch, win} ───── │  (or Ack{OK:false})
//	  │ ◀── RestoreChunkBatch{seq=0, data} ────── │
//	  │ ◀── RestoreChunkBatch{seq=1, data} ────── │
//	  │ ── RestoreAck{seq=0} ──────────────────▶  │
//	  │            ... repeat ...                 │
//	  │ ◀── RestoreDone{chunks, bytes} ────────── │  (Err aborts mid-stream)
//
// RestoreChunkBatch frames carry consecutive chunk payloads in file
// order; the client appends them to the destination file as they arrive
// and acknowledges every batch. The server keeps at most the granted
// window of unacknowledged batches in flight, so neither end ever
// buffers more than window × batch bytes: arbitrarily large files
// restore with bounded memory. Batches are cut at the granted chunk
// count or at a server-side byte budget, whichever comes first, keeping
// every frame far below MaxFrame. A server-side failure mid-stream is
// reported in-band via RestoreDone.Err after which the server drains the
// outstanding acks, leaving the connection usable for the next request.
// RestoreMeta fetches only the FileEntry (answered with a body-less
// RestoreBegin), which is how verify compares fingerprints without
// moving chunk data.
//
// Conn.Send and Conn.Recv are each safe for use by one goroutine at a
// time; sends and receives may proceed concurrently with each other,
// which is what the client's pipelined backup path relies on (decoupled
// send and receive goroutines over one connection).
//
// # Bounded I/O
//
// Nothing in the protocol may wait forever. DialTimeout bounds connection
// establishment and Conn.SetTimeouts arms per-I/O read/write deadlines:
// each individual transport read or write must complete within the
// configured duration or fail with a timeout error. The deadline is
// re-armed before every syscall, so a slow-but-moving bulk transfer never
// trips it — only a genuinely stalled peer does. Transports without
// deadline support (in-memory pipes, buffers in tests) are accepted;
// SetTimeouts is then a no-op.
//
// # Resumable restores
//
// RestoreFile.StartChunk lets a reconnecting client resume a file restore
// mid-stream: the server skips the first StartChunk chunks of the entry
// and streams the rest, echoing the granted StartChunk in RestoreBegin.
// RestoreDone totals count only the streamed tail.
//
// # Typed failure frames
//
// Ack carries an ErrCode alongside the message, so clients can
// distinguish permanent conditions (e.g. CodeReadOnly: the store took a
// write fault and refuses backups) from transient ones. AckError converts
// a refused Ack into a *RemoteError, which retry logic treats as
// permanent: the peer answered, so retrying the same request is futile.
package proto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"debar/internal/fp"
)

// ProtocolVersion is the protocol revision this build speaks, and the
// minimum it accepts. Version 1 predates the Version/Caps fields and used
// the retired bitmap verdict frame; version 2 introduced capability
// negotiation and the packed verdict frame; version 3 stopped
// acknowledging accepted ChunkBatch frames; version 4 replaced the gob
// control frame with one binary frame per message type. Optional
// behaviours are gated by capability bit; the version only retires frame
// forms and reply obligations.
const ProtocolVersion = 4

// ErrLegacyFrame is returned by Recv for a tag-0 frame: the gob-encoded
// control message of a peer at protocol version 3 or older. Recv skips
// the payload without decoding it; the peer cannot speak this protocol,
// so the connection is done once it has been answered with
// LegacyRefusal.
var ErrLegacyFrame = errors.New("proto: recv: gob frame from a peer at protocol version 3 or older")

// LegacyRefusal is the reply to a frame that failed with ErrLegacyFrame.
func LegacyRefusal() Ack {
	return Ack{Code: CodeUnsupportedVersion, Err: fmt.Sprintf(
		"protocol version 3 or older unsupported, need %d", ProtocolVersion)}
}

// Caps is a capability bitset exchanged in BackupStart/BackupStartOK.
// Each bit names an optional protocol behaviour; a behaviour may be used
// only when both ends advertised its bit (the client proposes its set,
// the server answers with the intersection).
type Caps uint64

const (
	// CapInlineDedup: the server answers FPBatch with inline duplicate
	// detection against its disk index/LPC, so confirmed duplicates are
	// never transferred.
	CapInlineDedup Caps = 1 << iota
)

// Has reports whether every capability in want is present in c.
func (c Caps) Has(want Caps) bool { return c&want == want }

// MaxFrame bounds a frame payload (1 GB): a defence against corrupt or
// hostile length prefixes, far above any legitimate batch. No message
// scales with file size any more — restores stream bounded chunk batches
// — so legitimate frames sit orders of magnitude below this limit.
const MaxFrame = 1 << 30

// bufPool recycles encode/decode scratch buffers across connections.
var bufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 64<<10); return &b },
}

func getBuf(n int) *[]byte {
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, 0, n)
	}
	return bp
}

func putBuf(bp *[]byte) {
	if cap(*bp) > 8<<20 {
		return // don't let one huge batch pin memory in the pool
	}
	*bp = (*bp)[:0]
	bufPool.Put(bp)
}

// deadliner is the subset of net.Conn the timeout layer needs. Transports
// that don't implement it (pipes, buffers in tests) get no deadlines.
type deadliner interface {
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// timeoutRW arms a fresh read/write deadline before every underlying I/O
// operation, so a single stalled syscall — not a long transfer making
// steady progress — fails with a timeout. Timeouts are stored atomically:
// SetTimeouts may race with in-flight Send/Recv goroutines.
type timeoutRW struct {
	rw      io.ReadWriteCloser
	dl      deadliner // nil when rw has no deadline support
	readTO  atomic.Int64
	writeTO atomic.Int64
}

func (t *timeoutRW) Read(p []byte) (int, error) {
	if t.dl != nil {
		if to := time.Duration(t.readTO.Load()); to > 0 {
			t.dl.SetReadDeadline(time.Now().Add(to))
		}
	}
	return t.rw.Read(p)
}

func (t *timeoutRW) Write(p []byte) (int, error) {
	if t.dl != nil {
		if to := time.Duration(t.writeTO.Load()); to > 0 {
			t.dl.SetWriteDeadline(time.Now().Add(to))
		}
	}
	return t.rw.Write(p)
}

func (t *timeoutRW) Close() error { return t.rw.Close() }

// Conn wraps a transport with framed encoding of protocol messages.
type Conn struct {
	wmu sync.Mutex
	bw  *bufio.Writer
	rmu sync.Mutex
	br  *bufio.Reader
	trw *timeoutRW
}

// NewConn wraps an established transport.
func NewConn(rw io.ReadWriteCloser) *Conn {
	trw := &timeoutRW{rw: rw}
	if dl, ok := rw.(deadliner); ok {
		trw.dl = dl
	}
	return &Conn{
		bw:  bufio.NewWriterSize(trw, 64<<10),
		br:  bufio.NewReaderSize(trw, 64<<10),
		trw: trw,
	}
}

// SetTimeouts arms per-I/O deadlines on the connection: every subsequent
// transport read (write) must complete within the read (write) duration.
// Zero or negative disables that direction's deadline. A no-op when the
// underlying transport has no deadline support.
func (c *Conn) SetTimeouts(read, write time.Duration) {
	if read < 0 {
		read = 0
	}
	if write < 0 {
		write = 0
	}
	c.trw.readTO.Store(int64(read))
	c.trw.writeTO.Store(int64(write))
	if c.trw.dl != nil {
		// Clear any deadline armed by a previous configuration so a
		// disabled direction cannot trip on a stale timer.
		if read == 0 {
			c.trw.dl.SetReadDeadline(time.Time{})
		}
		if write == 0 {
			c.trw.dl.SetWriteDeadline(time.Time{})
		}
	}
}

// DefaultDialTimeout bounds Dial's connection establishment.
const DefaultDialTimeout = 10 * time.Second

// Dial connects to a DEBAR endpoint with the default dial timeout.
func Dial(addr string) (*Conn, error) {
	return DialTimeout(addr, DefaultDialTimeout)
}

// DialTimeout connects to a DEBAR endpoint, failing if the connection
// cannot be established within timeout (<= 0 selects the default).
func DialTimeout(addr string, timeout time.Duration) (*Conn, error) {
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("proto: dial %s: %w", addr, err)
	}
	return NewConn(c), nil
}

// Send writes one message. Safe to call concurrently with Recv (but not
// with another Send on the same Conn from a second goroutine; a mutex
// serialises writers regardless).
func (c *Conn) Send(msg any) error {
	bp := getBuf(0)
	defer putBuf(bp)
	// The payload is encoded behind room for the frame header, so the
	// whole frame goes out in one write.
	tag, frame, err := encodeMsg(append((*bp)[:0], 0, 0, 0, 0, 0), msg)
	*bp = frame // retain the grown buffer for the pool
	if err != nil {
		return fmt.Errorf("proto: send: %w", err)
	}
	n := len(frame) - 5
	if n > MaxFrame {
		return fmt.Errorf("proto: send: frame of %d bytes exceeds limit", n)
	}
	frame[0] = tag
	binary.BigEndian.PutUint32(frame[1:], uint32(n))

	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.bw.Write(frame); err != nil {
		return fmt.Errorf("proto: send: %w", err)
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("proto: send: %w", err)
	}
	return nil
}

// Recv reads the next message. Safe to call concurrently with Send. The
// chunk payloads of a ChunkBatch or RestoreChunkBatch alias a new buffer
// of their own.
func (c *Conn) Recv() (any, error) { return c.RecvInto(nil) }

// RecvInto is Recv for a caller that lends the receive buffer of the two
// bulk frames, ChunkBatch and RestoreChunkBatch: such a frame's payload
// is read into *buf, grown when it is short, and the message's chunk
// payloads alias it. They lie back to back, in order, at the end of
// *buf, so a receiver can pass a whole batch on with one write. The
// caller must not lend *buf again, or write to it, while it still uses
// such a message. Every other frame decodes as in Recv and leaves *buf
// alone; a nil buf reads a bulk payload into a new buffer.
func (c *Conn) RecvInto(buf *[]byte) (any, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()

	var hdr [5]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return nil, err
	}
	tag := hdr[0]
	n := int(binary.BigEndian.Uint32(hdr[1:]))
	if n > MaxFrame {
		return nil, fmt.Errorf("proto: recv: frame of %d bytes exceeds limit", n)
	}
	if tag == tagLegacyGob {
		// Consumed, so that closing after the refusal does not reset the
		// connection before the old peer reads it.
		if _, err := c.br.Discard(n); err != nil {
			return nil, fmt.Errorf("proto: recv: %w", err)
		}
		return nil, ErrLegacyFrame
	}
	// Checked before the payload is read, so a garbage header costs no
	// payload buffer.
	if int(tag) >= len(decoders) || decoders[tag] == nil {
		return nil, fmt.Errorf("proto: recv: unknown frame tag %#x", tag)
	}

	var payload []byte
	switch {
	case tag != tagChunkBatch && tag != tagRestoreChunkBatch:
		// Every other decoder copies what it keeps.
		bp := getBuf(n)
		defer putBuf(bp)
		payload = (*bp)[:n]
	case buf == nil:
		payload = make([]byte, n)
	default:
		// Zero-copy into the caller's buffer: the message's Data slices
		// alias it, so it stays the caller's, never the pool's.
		*buf = slices.Grow((*buf)[:0], n)[:n]
		payload = *buf
	}
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return nil, fmt.Errorf("proto: recv: %w", err)
	}
	msg, err := decodeMsg(tag, payload)
	if err != nil {
		return nil, fmt.Errorf("proto: recv: %w", err)
	}
	return msg, nil
}

// Close closes the transport.
func (c *Conn) Close() error { return c.trw.Close() }

// ---- message types ----

// FileEntry is one file's metadata and index: the sequence of fingerprints
// referencing the file's chunks (§3.1: "a file index ... is a sequence of
// fingerprints that reference to the file chunks").
type FileEntry struct {
	Path   string
	Mode   uint32
	Size   int64
	Chunks []fp.FP
	Sizes  []uint32 // per-chunk sizes, parallel to Chunks
}

// ---- client ↔ backup server ----

// BackupStart opens a backup session for one job run. Version and Caps
// open capability negotiation: Caps is the full set the client is
// willing to use.
type BackupStart struct {
	JobName string
	Client  string
	Version int
	Caps    Caps
}

// BackupStartOK acknowledges the session. Caps is the negotiated
// intersection of the client's offer and the server's own set; both ends
// must restrict themselves to it for the whole session.
type BackupStartOK struct {
	SessionID uint64
	Version   int
	Caps      Caps
}

// FPBatch offers a batch of fingerprints for preliminary filtering. Seq
// numbers the batch within its session's stream; the server echoes it in
// the FPVerdicts reply so a pipelining client with several batches in
// flight can match verdicts to batches.
type FPBatch struct {
	SessionID uint64
	Seq       uint64
	FPs       []fp.FP
	Sizes     []uint32
}

// Verdict is the server's per-chunk answer to an offered fingerprint.
type Verdict uint8

const (
	// VerdictSend: transfer the chunk payload in a ChunkBatch.
	VerdictSend Verdict = iota
	// VerdictSkipDuplicate: the server already stores this chunk; record
	// the fingerprint in the file entry and do not transfer the payload.
	VerdictSkipDuplicate
	// verdictMax bounds the known verdict range; decode rejects values at
	// or above it (new values require a new capability bit — see the
	// frame evolution policy).
	verdictMax
)

// FPVerdicts answers an FPBatch with one verdict per offered chunk. Seq
// echoes the FPBatch it answers.
type FPVerdicts struct {
	Seq      uint64
	Verdicts []Verdict
}

// NeedsTransfer reports whether chunk i must be shipped in a ChunkBatch.
func (m FPVerdicts) NeedsTransfer(i int) bool {
	return m.Verdicts[i] == VerdictSend
}

// ChunkBatch carries chunk payloads that passed the filter.
type ChunkBatch struct {
	SessionID uint64
	FPs       []fp.FP
	Data      [][]byte
}

// ErrCode classifies a refused request beyond the human-readable Err
// string, so clients can react to specific conditions programmatically.
type ErrCode byte

const (
	// CodeNone is an unclassified failure.
	CodeNone ErrCode = iota
	// CodeReadOnly: the server's store took a write fault (ENOSPC, I/O
	// error) and is serving reads only; backups are refused until the
	// operator restarts the server with the fault cleared.
	CodeReadOnly
	// CodeUnsupportedVersion: the BackupStart carried a Version below the
	// server's minimum (ProtocolVersion); the peer must upgrade.
	CodeUnsupportedVersion
)

// Ack is a generic success/failure reply.
type Ack struct {
	OK   bool
	Code ErrCode
	Err  string
}

// RemoteError is a failure the peer reported in-band (a refused Ack or an
// error carried in a reply message). It is permanent from retry logic's
// point of view: the peer received and answered the request, so retrying
// the identical request cannot succeed.
type RemoteError struct {
	Code ErrCode
	Msg  string
}

func (e *RemoteError) Error() string {
	if e.Code == CodeReadOnly {
		return "remote: [read-only] " + e.Msg
	}
	return "remote: " + e.Msg
}

// Permanent marks the error as non-retryable for retry.Transient.
func (e *RemoteError) Permanent() bool { return true }

// AckError converts an Ack into an error: nil when OK, otherwise a
// *RemoteError carrying the peer's code and message.
func AckError(a Ack) error {
	if a.OK {
		return nil
	}
	return &RemoteError{Code: a.Code, Msg: a.Err}
}

// IsReadOnly reports whether err (anywhere in its chain) is a remote
// refusal because the peer's store is in read-only mode.
func IsReadOnly(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Code == CodeReadOnly
}

// FileMeta records one completed file's metadata and index.
type FileMeta struct {
	SessionID uint64
	Entry     FileEntry
}

// BackupEnd closes the session.
type BackupEnd struct {
	SessionID uint64
}

// BackupDone reports session statistics. InlineSkippedBytes counts
// logical bytes the inline dedup fast path elided from the wire
// (CapInlineDedup sessions; zero otherwise).
type BackupDone struct {
	LogicalBytes       int64
	TransferredBytes   int64
	NewFingerprints    int64
	InlineSkippedBytes int64
}

// RestoreFile asks for a file's content from a previous job run, opening
// a chunk-streamed restore exchange (see the package comment). The
// receiver sizes its own flow control: BatchChunks bounds the chunks per
// RestoreChunkBatch and Window the unacknowledged batches the server may
// keep in flight. Zero selects the server defaults; the server clamps
// both and echoes the granted values in RestoreBegin. StartChunk resumes
// an interrupted restore: the server skips that many leading chunks of
// the entry and streams the remainder.
type RestoreFile struct {
	JobName     string
	Path        string
	BatchChunks int
	Window      int
	StartChunk  uint64
}

// RestoreMeta asks for a file's entry only — metadata plus the chunk
// fingerprint index, no chunk data. Answered with a RestoreBegin carrying
// the entry (no stream follows). Verify uses this to compare a multi-GB
// job while moving kilobytes.
type RestoreMeta struct {
	JobName string
	Path    string
}

// RestoreBegin opens a restore stream (or answers RestoreMeta): the
// file's entry plus the granted flow-control parameters. StartChunk
// echoes the resume offset the server honoured (0 on a fresh restore);
// the stream carries the entry's chunks from StartChunk onward.
type RestoreBegin struct {
	Entry       FileEntry
	BatchChunks int
	Window      int
	StartChunk  uint64
}

// RestoreChunkBatch carries consecutive chunk payloads of the file being
// restored, in file order. Seq numbers batches from 0 within one
// exchange; the client acknowledges each batch by its Seq.
type RestoreChunkBatch struct {
	Seq  uint64
	Data [][]byte
}

// RestoreAck credits one received restore batch back to the server,
// opening the window for another batch.
type RestoreAck struct {
	Seq uint64
}

// RestoreDone ends a restore stream with the totals the client should
// have seen. A non-empty Err aborts the stream: the file could not be
// fully read back and the client must discard the partial content.
type RestoreDone struct {
	Chunks int64
	Bytes  int64
	Err    string
}

// ListFiles asks which files a job's latest run contains.
type ListFiles struct {
	JobName string
}

// FileList answers ListFiles.
type FileList struct {
	Paths []string
}

// Dedup2Request asks a backup server to run dedup-2 now (director-issued).
// A pass always includes SIU.
type Dedup2Request struct{}

// Dedup2Done reports the outcome.
type Dedup2Done struct {
	NewChunks  int64
	DupChunks  int64
	Containers int64
	Err        string
}

// ---- server ↔ director ----

// RegisterServer announces a backup server to the director.
type RegisterServer struct {
	Addr string
}

// RegisterOK assigns the server its number.
type RegisterOK struct {
	ServerID int
}

// PutFileIndex stores a file index with the director's metadata manager.
type PutFileIndex struct {
	JobName string
	RunID   uint64
	Entry   FileEntry
}

// GetJobFiles fetches the latest run's file entries for a job.
type GetJobFiles struct {
	JobName string
}

// JobFiles answers GetJobFiles.
type JobFiles struct {
	RunID   uint64
	Entries []FileEntry
}

// GetFilterFPs fetches the previous run's fingerprints (the job-chain
// filtering fingerprints, §5.1).
type GetFilterFPs struct {
	JobName string
}

// FilterFPs answers GetFilterFPs.
type FilterFPs struct {
	FPs []fp.FP
}

// NewRun allocates a run ID for a job execution.
type NewRun struct {
	JobName string
	Client  string
}

// NewRunOK returns the allocated run ID.
type NewRunOK struct {
	RunID uint64
}

// EndRun marks a run complete: every chunk of its dataset was received
// by the backup server. Only complete runs may serve as a restore source
// or as the job chain's filtering fingerprints — an interrupted run's
// file indexes can reference chunks that never reached the server, and
// trusting them would filter away data that was never stored.
type EndRun struct {
	JobName string
	RunID   uint64
}
