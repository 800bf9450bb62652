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
// The one-byte tag selects the payload codec. The hot data-path messages
// (FPBatch, FPVerdicts, ChunkBatch, Ack, RestoreBegin, RestoreChunkBatch,
// RestoreAck) use compact hand-rolled binary layouts (tags 1–8) with
// pooled encode/decode buffers; chunk payloads are sliced out of the
// receive buffer without copying. Every other (control-plane) message is
// carried as a self-contained gob stream under tag 0, so adding new
// control messages never requires a new binary codec: unknown structs
// simply fall back to gob. Old and new peers interoperate as long as both
// frame their messages — a tag-0 frame is decodable by any peer with the
// types registered below.
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
// ChunkBatch gets no reply at all. The server logs its chunks and stages
// them with the chunk log's group commit without waiting for the fsync;
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
//     with a lower Version (a peer predating the field sends 0) is
//     refused with a CodeUnsupportedVersion Ack before any session
//     exists, and a client refuses a BackupStartOK with a lower Version.
//   - Control messages are gob-encoded: decoders ignore fields they do
//     not know and zero-fill fields the peer did not send, so adding
//     fields to control messages is always compatible.
//   - A capability-gated behaviour may be used only after BOTH ends
//     advertised it (the negotiated intersection from BackupStartOK).
//   - CapInlineDedup gates the server's inline duplicate detection
//     against its disk index. Every session, with or without it, gets
//     verdicts in the 2-bit packed FPVerdicts frame (tag 8).
//
// # Frame evolution policy
//
// Binary frames (tags >= 1) are NOT field-extensible: decoders reject
// trailing bytes, and an unknown tag is a connection-fatal decode error.
// A new frame form takes a new tag plus either a capability bit (emitted
// only toward peers that advertised it) or a raised ProtocolVersion. An
// old form is not kept forever: it is retired by raising the minimum
// version, after which its tag stays reserved and decodes as unknown
// (tag 2, the version-1 bitmap verdict frame, went this way). A change
// to which frames are answered is a version bump too: version 3 made an
// accepted ChunkBatch one-way, so neither end talks to a version-2 peer,
// which would send or expect a ChunkBatch Ack. The same
// applies to enum ranges inside a frame: a decoder rejects verdict
// values it does not know, so new Verdict values require a capability
// bit or a version bump. Control-plane (tag-0 gob) messages evolve by
// field addition as above, never by changing the meaning of an existing
// field's zero value.
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
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"debar/internal/fp"
)

// Frame tags. Tag 0 is the gob fallback for control-plane messages; tags
// 1–8 are the binary codecs for the hot data-path messages. Tag 2 (the
// retired version-1 bitmap verdict frame) stays reserved so no other tag
// value moves (see the frame evolution policy in the package comment).
const (
	tagGob byte = iota
	tagFPBatch
	_ // reserved: retired version-1 FPVerdicts bitmap
	tagChunkBatch
	tagAck
	tagRestoreBegin
	tagRestoreChunkBatch
	tagRestoreAck
	tagFPVerdicts2
)

// ProtocolVersion is the protocol revision this build speaks, and the
// minimum it accepts. Version 1 predates the Version/Caps fields (gob
// decodes it as 0) and used the retired bitmap verdict frame; version 2
// introduced capability negotiation and the packed verdict frame;
// version 3 stopped acknowledging accepted ChunkBatch frames. Optional
// behaviours are gated by capability bit; the version only retires
// frame forms and reply obligations.
const ProtocolVersion = 3

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
	buf := (*bp)[:0]

	var tag byte
	switch m := msg.(type) {
	case FPBatch:
		tag, buf = tagFPBatch, m.encode(buf)
	case FPVerdicts:
		tag, buf = tagFPVerdicts2, m.encode(buf)
	case ChunkBatch:
		tag, buf = tagChunkBatch, m.encode(buf)
	case Ack:
		tag, buf = tagAck, m.encode(buf)
	case RestoreBegin:
		tag, buf = tagRestoreBegin, m.encode(buf)
	case RestoreChunkBatch:
		tag, buf = tagRestoreChunkBatch, m.encode(buf)
	case RestoreAck:
		tag, buf = tagRestoreAck, m.encode(buf)
	default:
		var gb bytes.Buffer
		if err := gob.NewEncoder(&gb).Encode(&msg); err != nil {
			return fmt.Errorf("proto: send: %w", err)
		}
		tag, buf = tagGob, gb.Bytes()
	}
	if tag != tagGob {
		*bp = buf // retain the grown buffer for the pool
	}

	if len(buf) > MaxFrame {
		return fmt.Errorf("proto: send: frame of %d bytes exceeds limit", len(buf))
	}
	var hdr [5]byte
	hdr[0] = tag
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(buf)))

	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("proto: send: %w", err)
	}
	if _, err := c.bw.Write(buf); err != nil {
		return fmt.Errorf("proto: send: %w", err)
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("proto: send: %w", err)
	}
	return nil
}

// Recv reads the next message. Safe to call concurrently with Send.
func (c *Conn) Recv() (any, error) {
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

	switch tag {
	case tagChunkBatch, tagRestoreChunkBatch:
		// Zero-copy path: the payload buffer's ownership passes to the
		// decoded message, whose Data slices alias it — so it is NOT
		// pooled.
		payload := make([]byte, n)
		if _, err := io.ReadFull(c.br, payload); err != nil {
			return nil, fmt.Errorf("proto: recv: %w", err)
		}
		if tag == tagChunkBatch {
			var m ChunkBatch
			if err := m.decode(payload); err != nil {
				return nil, err
			}
			return m, nil
		}
		var m RestoreChunkBatch
		if err := m.decode(payload); err != nil {
			return nil, err
		}
		return m, nil
	default:
		bp := getBuf(n)
		defer putBuf(bp)
		payload := (*bp)[:n]
		if _, err := io.ReadFull(c.br, payload); err != nil {
			return nil, fmt.Errorf("proto: recv: %w", err)
		}
		switch tag {
		case tagFPBatch:
			var m FPBatch
			err := m.decode(payload)
			return m, err
		case tagFPVerdicts2:
			var m FPVerdicts
			err := m.decode(payload)
			return m, err
		case tagAck:
			var m Ack
			err := m.decode(payload)
			return m, err
		case tagRestoreBegin:
			var m RestoreBegin
			err := m.decode(payload)
			return m, err
		case tagRestoreAck:
			var m RestoreAck
			err := m.decode(payload)
			return m, err
		case tagGob:
			var msg any
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&msg); err != nil {
				return nil, fmt.Errorf("proto: recv: %w", err)
			}
			return msg, nil
		default:
			return nil, fmt.Errorf("proto: recv: unknown frame tag %#x", tag)
		}
	}
}

// Close closes the transport.
func (c *Conn) Close() error { return c.trw.Close() }

// errShort reports a truncated binary payload.
func errShort(what string) error {
	return fmt.Errorf("proto: recv: truncated %s payload", what)
}

// ---- binary codecs (hot data-path messages) ----

func (m FPBatch) encode(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, m.SessionID)
	buf = binary.BigEndian.AppendUint64(buf, m.Seq)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.FPs)))
	for i := range m.FPs {
		buf = append(buf, m.FPs[i][:]...)
	}
	for _, s := range m.Sizes {
		buf = binary.BigEndian.AppendUint32(buf, s)
	}
	return buf
}

func (m *FPBatch) decode(p []byte) error {
	if len(p) < 20 {
		return errShort("FPBatch")
	}
	m.SessionID = binary.BigEndian.Uint64(p)
	m.Seq = binary.BigEndian.Uint64(p[8:])
	n := int(binary.BigEndian.Uint32(p[16:]))
	p = p[20:]
	if len(p) != n*(fp.Size+4) {
		return errShort("FPBatch")
	}
	m.FPs = make([]fp.FP, n)
	for i := range m.FPs {
		copy(m.FPs[i][:], p[i*fp.Size:])
	}
	p = p[n*fp.Size:]
	m.Sizes = make([]uint32, n)
	for i := range m.Sizes {
		m.Sizes[i] = binary.BigEndian.Uint32(p[i*4:])
	}
	return nil
}

// encode emits the tag-8 verdict frame: verdicts packed two bits each,
// four per byte, little-endian within the byte.
func (m FPVerdicts) encode(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, m.Seq)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Verdicts)))
	var acc byte
	for i, v := range m.Verdicts {
		acc |= byte(v) << (2 * (i & 3))
		if i&3 == 3 {
			buf = append(buf, acc)
			acc = 0
		}
	}
	if len(m.Verdicts)&3 != 0 {
		buf = append(buf, acc)
	}
	return buf
}

func (m *FPVerdicts) decode(p []byte) error {
	if len(p) < 12 {
		return errShort("FPVerdicts")
	}
	m.Seq = binary.BigEndian.Uint64(p)
	n := int(binary.BigEndian.Uint32(p[8:]))
	p = p[12:]
	if len(p) != (n+3)/4 {
		return errShort("FPVerdicts")
	}
	m.Verdicts = make([]Verdict, n)
	for i := range m.Verdicts {
		v := Verdict(p[i>>2] >> (2 * (i & 3)) & 3)
		if v >= verdictMax {
			// Per the frame evolution policy, a verdict value this build
			// does not know can only mean a peer used a capability or
			// version we never advertised — a protocol violation, not a
			// soft skip.
			return fmt.Errorf("proto: recv: unknown verdict %d in FPVerdicts", v)
		}
		m.Verdicts[i] = v
	}
	return nil
}

func (m ChunkBatch) encode(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, m.SessionID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.FPs)))
	for i := range m.FPs {
		buf = append(buf, m.FPs[i][:]...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Data[i])))
	}
	for _, d := range m.Data {
		buf = append(buf, d...)
	}
	return buf
}

func (m *ChunkBatch) decode(p []byte) error {
	if len(p) < 12 {
		return errShort("ChunkBatch")
	}
	m.SessionID = binary.BigEndian.Uint64(p)
	n := int(binary.BigEndian.Uint32(p[8:]))
	p = p[12:]
	if len(p) < n*(fp.Size+4) {
		return errShort("ChunkBatch")
	}
	m.FPs = make([]fp.FP, n)
	sizes := make([]int, n)
	for i := 0; i < n; i++ {
		off := i * (fp.Size + 4)
		copy(m.FPs[i][:], p[off:])
		sizes[i] = int(binary.BigEndian.Uint32(p[off+fp.Size:]))
	}
	p = p[n*(fp.Size+4):]
	m.Data = make([][]byte, n)
	for i, sz := range sizes {
		if len(p) < sz {
			return errShort("ChunkBatch")
		}
		m.Data[i] = p[:sz:sz] // aliases the receive buffer: zero copy
		p = p[sz:]
	}
	if len(p) != 0 {
		return errShort("ChunkBatch")
	}
	return nil
}

func (m Ack) encode(buf []byte) []byte {
	var ok byte
	if m.OK {
		ok = 1
	}
	buf = append(buf, ok, byte(m.Code))
	return append(buf, m.Err...)
}

func (m *Ack) decode(p []byte) error {
	if len(p) < 2 {
		return errShort("Ack")
	}
	m.OK = p[0] != 0
	m.Code = ErrCode(p[1])
	m.Err = string(p[2:])
	return nil
}

func appendFileEntry(buf []byte, e FileEntry) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Path)))
	buf = append(buf, e.Path...)
	buf = binary.BigEndian.AppendUint32(buf, e.Mode)
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.Size))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Chunks)))
	for i := range e.Chunks {
		buf = append(buf, e.Chunks[i][:]...)
	}
	for _, s := range e.Sizes {
		buf = binary.BigEndian.AppendUint32(buf, s)
	}
	return buf
}

func decodeFileEntry(p []byte) (FileEntry, []byte, error) {
	var e FileEntry
	if len(p) < 2 {
		return e, nil, errShort("FileEntry")
	}
	pl := int(binary.BigEndian.Uint16(p))
	p = p[2:]
	if len(p) < pl+16 {
		return e, nil, errShort("FileEntry")
	}
	e.Path = string(p[:pl])
	p = p[pl:]
	e.Mode = binary.BigEndian.Uint32(p)
	e.Size = int64(binary.BigEndian.Uint64(p[4:]))
	n := int(binary.BigEndian.Uint32(p[12:]))
	p = p[16:]
	if len(p) < n*(fp.Size+4) {
		return e, nil, errShort("FileEntry")
	}
	e.Chunks = make([]fp.FP, n)
	for i := range e.Chunks {
		copy(e.Chunks[i][:], p[i*fp.Size:])
	}
	p = p[n*fp.Size:]
	e.Sizes = make([]uint32, n)
	for i := range e.Sizes {
		e.Sizes[i] = binary.BigEndian.Uint32(p[i*4:])
	}
	return e, p[n*4:], nil
}

func (m RestoreBegin) encode(buf []byte) []byte {
	buf = appendFileEntry(buf, m.Entry)
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.BatchChunks))
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.Window))
	return binary.BigEndian.AppendUint64(buf, m.StartChunk)
}

func (m *RestoreBegin) decode(p []byte) error {
	e, rest, err := decodeFileEntry(p)
	if err != nil {
		return err
	}
	if len(rest) != 16 {
		return errShort("RestoreBegin")
	}
	m.Entry = e
	m.BatchChunks = int(binary.BigEndian.Uint32(rest))
	m.Window = int(binary.BigEndian.Uint32(rest[4:]))
	m.StartChunk = binary.BigEndian.Uint64(rest[8:])
	return nil
}

func (m RestoreChunkBatch) encode(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, m.Seq)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Data)))
	for _, d := range m.Data {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(d)))
	}
	for _, d := range m.Data {
		buf = append(buf, d...)
	}
	return buf
}

func (m *RestoreChunkBatch) decode(p []byte) error {
	if len(p) < 12 {
		return errShort("RestoreChunkBatch")
	}
	m.Seq = binary.BigEndian.Uint64(p)
	n := int(binary.BigEndian.Uint32(p[8:]))
	p = p[12:]
	if len(p) < n*4 {
		return errShort("RestoreChunkBatch")
	}
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = int(binary.BigEndian.Uint32(p[i*4:]))
	}
	p = p[n*4:]
	m.Data = make([][]byte, n)
	for i, sz := range sizes {
		if len(p) < sz {
			return errShort("RestoreChunkBatch")
		}
		m.Data[i] = p[:sz:sz] // aliases the receive buffer: zero copy
		p = p[sz:]
	}
	if len(p) != 0 {
		return errShort("RestoreChunkBatch")
	}
	return nil
}

func (m RestoreAck) encode(buf []byte) []byte {
	return binary.BigEndian.AppendUint64(buf, m.Seq)
}

func (m *RestoreAck) decode(p []byte) error {
	if len(p) != 8 {
		return errShort("RestoreAck")
	}
	m.Seq = binary.BigEndian.Uint64(p)
	return nil
}

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
// (absent — hence zero — from version-1 peers) open capability
// negotiation: Caps is the full set the client is willing to use.
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
// A pass always includes SIU. RunSIU stays on the wire because a gob
// frame needs an exported field and an older server defers SIU when it is
// false; senders set it to true and servers ignore it.
type Dedup2Request struct {
	RunSIU bool
}

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

func init() {
	for _, m := range []any{
		BackupStart{}, BackupStartOK{}, FPBatch{}, FPVerdicts{},
		ChunkBatch{}, Ack{}, FileMeta{}, BackupEnd{}, BackupDone{},
		RestoreFile{}, RestoreMeta{}, RestoreBegin{}, RestoreChunkBatch{},
		RestoreAck{}, RestoreDone{}, ListFiles{}, FileList{},
		Dedup2Request{}, Dedup2Done{},
		RegisterServer{}, RegisterOK{}, PutFileIndex{}, GetJobFiles{},
		JobFiles{}, GetFilterFPs{}, FilterFPs{}, NewRun{}, NewRunOK{},
		EndRun{},
	} {
		gob.Register(m)
	}
}
