package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"debar/internal/fp"
)

// Frame tags, one per message type. Tag 0 (the gob control frame of
// versions 1–3) and tag 2 (the version-1 bitmap verdict frame) are
// retired and stay reserved, so no other tag value moves (see the frame
// evolution policy in the package comment).
const (
	tagLegacyGob byte = iota
	tagFPBatch
	_ // reserved: retired version-1 FPVerdicts bitmap
	tagChunkBatch
	tagAck
	tagRestoreBegin
	tagRestoreChunkBatch
	tagRestoreAck
	tagFPVerdicts2
	tagBackupStart
	tagBackupStartOK
	tagFileMeta
	tagBackupEnd
	tagBackupDone
	tagRestoreFile
	tagRestoreMeta
	tagRestoreDone
	tagListFiles
	tagFileList
	tagDedup2Request
	tagDedup2Done
	tagRegisterServer
	tagRegisterOK
	tagPutFileIndex
	tagGetJobFiles
	tagJobFiles
	tagGetFilterFPs
	tagFilterFPs
	tagNewRun
	tagNewRunOK
	tagEndRun
)

// encoder is implemented by every message type: encode appends the
// payload and returns the frame's tag.
type encoder interface {
	encode(e *enc) byte
}

// decoders maps a tag to its payload decoder; nil entries are reserved.
var decoders = [...]func(*dec) any{
	tagFPBatch:           decodeAs[FPBatch],
	tagChunkBatch:        decodeAs[ChunkBatch],
	tagAck:               decodeAs[Ack],
	tagRestoreBegin:      decodeAs[RestoreBegin],
	tagRestoreChunkBatch: decodeAs[RestoreChunkBatch],
	tagRestoreAck:        decodeAs[RestoreAck],
	tagFPVerdicts2:       decodeAs[FPVerdicts],
	tagBackupStart:       decodeAs[BackupStart],
	tagBackupStartOK:     decodeAs[BackupStartOK],
	tagFileMeta:          decodeAs[FileMeta],
	tagBackupEnd:         decodeAs[BackupEnd],
	tagBackupDone:        decodeAs[BackupDone],
	tagRestoreFile:       decodeAs[RestoreFile],
	tagRestoreMeta:       decodeAs[RestoreMeta],
	tagRestoreDone:       decodeAs[RestoreDone],
	tagListFiles:         decodeAs[ListFiles],
	tagFileList:          decodeAs[FileList],
	tagDedup2Request:     decodeAs[Dedup2Request],
	tagDedup2Done:        decodeAs[Dedup2Done],
	tagRegisterServer:    decodeAs[RegisterServer],
	tagRegisterOK:        decodeAs[RegisterOK],
	tagPutFileIndex:      decodeAs[PutFileIndex],
	tagGetJobFiles:       decodeAs[GetJobFiles],
	tagJobFiles:          decodeAs[JobFiles],
	tagGetFilterFPs:      decodeAs[GetFilterFPs],
	tagFilterFPs:         decodeAs[FilterFPs],
	tagNewRun:            decodeAs[NewRun],
	tagNewRunOK:          decodeAs[NewRunOK],
	tagEndRun:            decodeAs[EndRun],
}

// Marshal encodes msg as one record: its tag byte followed by its
// payload, the frame Send writes without the length field. A record
// is how the director journals a control frame.
func Marshal(msg any) ([]byte, error) {
	tag, rec, err := encodeMsg([]byte{0}, msg)
	if err != nil {
		return nil, fmt.Errorf("proto: marshal: %w", err)
	}
	rec[0] = tag
	return rec, nil
}

// Unmarshal decodes a record made by Marshal. Like Recv, it rejects an
// unknown tag and trailing bytes; the chunk payloads of a ChunkBatch or
// RestoreChunkBatch alias rec, and every other message copies what it
// keeps.
func Unmarshal(rec []byte) (any, error) {
	if len(rec) == 0 {
		return nil, errors.New("proto: unmarshal: empty record")
	}
	msg, err := decodeMsg(rec[0], rec[1:])
	if err != nil {
		return nil, fmt.Errorf("proto: unmarshal: %w", err)
	}
	return msg, nil
}

// encodeMsg appends msg's payload to buf and returns the grown buffer
// with the message's tag.
func encodeMsg(buf []byte, msg any) (byte, []byte, error) {
	m, ok := msg.(encoder)
	if !ok {
		return 0, buf, fmt.Errorf("%T is not a protocol message", msg)
	}
	e := enc{buf: buf}
	tag := m.encode(&e)
	if e.err != nil {
		return 0, e.buf, fmt.Errorf("%T: %w", msg, e.err)
	}
	return tag, e.buf, nil
}

// decodeMsg decodes one payload of the given tag.
func decodeMsg(tag byte, payload []byte) (any, error) {
	if int(tag) >= len(decoders) || decoders[tag] == nil {
		return nil, fmt.Errorf("unknown frame tag %#x", tag)
	}
	d := dec{p: payload}
	msg := decoders[tag](&d)
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("%T payload: %w", msg, err)
	}
	return msg, nil
}

func decodeAs[T any, P interface {
	*T
	decode(*dec)
}](d *dec) any {
	var m T
	P(&m).decode(d)
	return m
}

// enc appends one frame payload, big-endian throughout. A length that
// does not fit its field is recorded in err instead of being wrapped, and
// Send then refuses the frame.
type enc struct {
	buf []byte
	err error
}

func (e *enc) u8(v byte)    { e.buf = append(e.buf, v) }
func (e *enc) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *enc) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *enc) int(v int)    { e.u64(uint64(int64(v))) }

func (e *enc) overflow(n, bytes int) {
	if e.err == nil {
		e.err = fmt.Errorf("length %d does not fit a %d-byte length field", n, bytes)
	}
}

func (e *enc) len16(n int) {
	if n > math.MaxUint16 {
		e.overflow(n, 2)
		return
	}
	e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(n))
}

func (e *enc) len32(n int) {
	if uint64(n) > math.MaxUint32 {
		e.overflow(n, 4)
		return
	}
	e.u32(uint32(n))
}

// str appends a string behind a 4-byte length.
func (e *enc) str(s string) {
	e.len32(len(s))
	e.buf = append(e.buf, s...)
}

// fps appends fingerprints as raw 20-byte arrays, without a count.
func (e *enc) fps(fps []fp.FP) {
	for i := range fps {
		e.buf = append(e.buf, fps[i][:]...)
	}
}

func (e *enc) u32s(vs []uint32) {
	for _, v := range vs {
		e.u32(v)
	}
}

var (
	errTruncated = errors.New("truncated")
	errTrailing  = errors.New("trailing bytes")
)

// dec reads one frame payload. The first failure sticks in err and every
// later read returns zero values, so a decoder reads its fields straight
// through and the caller checks once. Every count is bounded by the bytes
// left before anything is allocated for it.
type dec struct {
	p   []byte
	err error
}

// take returns the next n payload bytes, capacity-clamped so an aliasing
// slice can never grow into the bytes after it.
func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.p) {
		d.err = errTruncated
		return nil
	}
	b := d.p[:n:n]
	d.p = d.p[n:]
	return b
}

func (d *dec) u8() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *dec) u16() uint16 {
	if b := d.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (d *dec) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (d *dec) u64() uint64 {
	if b := d.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (d *dec) int() int { return int(int64(d.u64())) }

func (d *dec) str() string { return string(d.take(int(d.u32()))) }

// count reads a 4-byte element count and fails unless that many elements
// of at least size bytes each fit in the bytes left.
func (d *dec) count(size int) int {
	n := uint64(d.u32())
	if d.err == nil && n*uint64(size) > uint64(len(d.p)) {
		d.err = errTruncated
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// fps reads n raw fingerprints (nil when n is 0).
func (d *dec) fps(n int) []fp.FP {
	b := d.take(n * fp.Size)
	if n == 0 || b == nil {
		return nil
	}
	out := make([]fp.FP, n)
	for i := range out {
		copy(out[i][:], b[i*fp.Size:])
	}
	return out
}

// u32s reads n 4-byte values (nil when n is 0).
func (d *dec) u32s(n int) []uint32 {
	b := d.take(n * 4)
	if n == 0 || b == nil {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.BigEndian.Uint32(b[i*4:])
	}
	return out
}

// finish reports the first decode failure, or trailing bytes: binary
// frames are not field-extensible.
func (d *dec) finish() error {
	if d.err == nil && len(d.p) != 0 {
		d.err = errTrailing
	}
	return d.err
}

// ---- data-path messages ----

func (m FPBatch) encode(e *enc) byte {
	e.u64(m.SessionID)
	e.u64(m.Seq)
	e.len32(len(m.FPs))
	e.fps(m.FPs)
	e.u32s(m.Sizes)
	return tagFPBatch
}

func (m *FPBatch) decode(d *dec) {
	m.SessionID = d.u64()
	m.Seq = d.u64()
	n := d.count(fp.Size + 4)
	m.FPs = d.fps(n)
	m.Sizes = d.u32s(n)
}

// encode emits the tag-8 verdict frame: verdicts packed two bits each,
// four per byte, little-endian within the byte.
func (m FPVerdicts) encode(e *enc) byte {
	e.u64(m.Seq)
	e.len32(len(m.Verdicts))
	var acc byte
	for i, v := range m.Verdicts {
		acc |= byte(v) << (2 * (i & 3))
		if i&3 == 3 {
			e.u8(acc)
			acc = 0
		}
	}
	if len(m.Verdicts)&3 != 0 {
		e.u8(acc)
	}
	return tagFPVerdicts2
}

func (m *FPVerdicts) decode(d *dec) {
	m.Seq = d.u64()
	n := int(d.u32())
	packed := d.take((n + 3) / 4)
	if n == 0 || packed == nil {
		return
	}
	m.Verdicts = make([]Verdict, n)
	for i := range m.Verdicts {
		v := Verdict(packed[i>>2] >> (2 * (i & 3)) & 3)
		if v >= verdictMax {
			// Per the frame evolution policy, a verdict value this build
			// does not know can only mean a peer used a capability or
			// version we never advertised — a protocol violation, not a
			// soft skip.
			d.err = fmt.Errorf("unknown verdict %d", v)
			return
		}
		m.Verdicts[i] = v
	}
}

func (m ChunkBatch) encode(e *enc) byte {
	e.u64(m.SessionID)
	e.len32(len(m.FPs))
	for i := range m.FPs {
		e.buf = append(e.buf, m.FPs[i][:]...)
		e.len32(len(m.Data[i]))
	}
	for _, b := range m.Data {
		e.buf = append(e.buf, b...)
	}
	return tagChunkBatch
}

// decode slices each chunk out of the payload without copying: the Data
// slices alias the receive buffer, whose ownership passes to the message.
func (m *ChunkBatch) decode(d *dec) {
	m.SessionID = d.u64()
	n := d.count(fp.Size + 4)
	if n == 0 {
		return
	}
	m.FPs = make([]fp.FP, n)
	sizes := make([]int, n)
	for i := range sizes {
		copy(m.FPs[i][:], d.take(fp.Size))
		sizes[i] = int(d.u32())
	}
	m.Data = make([][]byte, n)
	for i, sz := range sizes {
		m.Data[i] = d.take(sz)
	}
}

// The Ack layout is unchanged since version 1, so a peer of any version
// decodes a refusal.
func (m Ack) encode(e *enc) byte {
	var ok byte
	if m.OK {
		ok = 1
	}
	e.u8(ok)
	e.u8(byte(m.Code))
	e.buf = append(e.buf, m.Err...)
	return tagAck
}

func (m *Ack) decode(d *dec) {
	m.OK = d.u8() != 0
	m.Code = ErrCode(d.u8())
	m.Err = string(d.take(len(d.p)))
}

// minFileEntry is the encoded size of an empty FileEntry.
const minFileEntry = 2 + 4 + 8 + 4 + 4

// appendFileEntry writes a file entry: the path behind a 2-byte length,
// mode, size, then the chunk fingerprints and the chunk sizes, each
// behind its own count so an entry round-trips even when the two lists
// differ in length.
func appendFileEntry(e *enc, fe FileEntry) {
	e.len16(len(fe.Path))
	e.buf = append(e.buf, fe.Path...)
	e.u32(fe.Mode)
	e.u64(uint64(fe.Size))
	e.len32(len(fe.Chunks))
	e.fps(fe.Chunks)
	e.len32(len(fe.Sizes))
	e.u32s(fe.Sizes)
}

func decodeFileEntry(d *dec) FileEntry {
	var fe FileEntry
	fe.Path = string(d.take(int(d.u16())))
	fe.Mode = d.u32()
	fe.Size = int64(d.u64())
	fe.Chunks = d.fps(d.count(fp.Size))
	fe.Sizes = d.u32s(d.count(4))
	return fe
}

func (m RestoreBegin) encode(e *enc) byte {
	appendFileEntry(e, m.Entry)
	e.int(m.BatchChunks)
	e.int(m.Window)
	e.u64(m.StartChunk)
	return tagRestoreBegin
}

func (m *RestoreBegin) decode(d *dec) {
	m.Entry = decodeFileEntry(d)
	m.BatchChunks = d.int()
	m.Window = d.int()
	m.StartChunk = d.u64()
}

func (m RestoreChunkBatch) encode(e *enc) byte {
	e.u64(m.Seq)
	e.len32(len(m.Data))
	for _, b := range m.Data {
		e.len32(len(b))
	}
	for _, b := range m.Data {
		e.buf = append(e.buf, b...)
	}
	return tagRestoreChunkBatch
}

// decode aliases the receive buffer like ChunkBatch.decode.
func (m *RestoreChunkBatch) decode(d *dec) {
	m.Seq = d.u64()
	n := d.count(4)
	if n == 0 {
		return
	}
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = int(d.u32())
	}
	m.Data = make([][]byte, n)
	for i, sz := range sizes {
		m.Data[i] = d.take(sz)
	}
}

func (m RestoreAck) encode(e *enc) byte { e.u64(m.Seq); return tagRestoreAck }
func (m *RestoreAck) decode(d *dec)     { m.Seq = d.u64() }

// ---- control messages ----

func (m BackupStart) encode(e *enc) byte {
	e.str(m.JobName)
	e.str(m.Client)
	e.int(m.Version)
	e.u64(uint64(m.Caps))
	return tagBackupStart
}

func (m *BackupStart) decode(d *dec) {
	m.JobName = d.str()
	m.Client = d.str()
	m.Version = d.int()
	m.Caps = Caps(d.u64())
}

func (m BackupStartOK) encode(e *enc) byte {
	e.u64(m.SessionID)
	e.int(m.Version)
	e.u64(uint64(m.Caps))
	return tagBackupStartOK
}

func (m *BackupStartOK) decode(d *dec) {
	m.SessionID = d.u64()
	m.Version = d.int()
	m.Caps = Caps(d.u64())
}

func (m FileMeta) encode(e *enc) byte {
	e.u64(m.SessionID)
	appendFileEntry(e, m.Entry)
	return tagFileMeta
}

func (m *FileMeta) decode(d *dec) {
	m.SessionID = d.u64()
	m.Entry = decodeFileEntry(d)
}

func (m BackupEnd) encode(e *enc) byte { e.u64(m.SessionID); return tagBackupEnd }
func (m *BackupEnd) decode(d *dec)     { m.SessionID = d.u64() }

func (m BackupDone) encode(e *enc) byte {
	e.u64(uint64(m.LogicalBytes))
	e.u64(uint64(m.TransferredBytes))
	e.u64(uint64(m.NewFingerprints))
	e.u64(uint64(m.InlineSkippedBytes))
	return tagBackupDone
}

func (m *BackupDone) decode(d *dec) {
	m.LogicalBytes = int64(d.u64())
	m.TransferredBytes = int64(d.u64())
	m.NewFingerprints = int64(d.u64())
	m.InlineSkippedBytes = int64(d.u64())
}

func (m RestoreFile) encode(e *enc) byte {
	e.str(m.JobName)
	e.str(m.Path)
	e.int(m.BatchChunks)
	e.int(m.Window)
	e.u64(m.StartChunk)
	return tagRestoreFile
}

func (m *RestoreFile) decode(d *dec) {
	m.JobName = d.str()
	m.Path = d.str()
	m.BatchChunks = d.int()
	m.Window = d.int()
	m.StartChunk = d.u64()
}

func (m RestoreMeta) encode(e *enc) byte {
	e.str(m.JobName)
	e.str(m.Path)
	return tagRestoreMeta
}

func (m *RestoreMeta) decode(d *dec) {
	m.JobName = d.str()
	m.Path = d.str()
}

func (m RestoreDone) encode(e *enc) byte {
	e.u64(uint64(m.Chunks))
	e.u64(uint64(m.Bytes))
	e.str(m.Err)
	return tagRestoreDone
}

func (m *RestoreDone) decode(d *dec) {
	m.Chunks = int64(d.u64())
	m.Bytes = int64(d.u64())
	m.Err = d.str()
}

func (m ListFiles) encode(e *enc) byte { e.str(m.JobName); return tagListFiles }
func (m *ListFiles) decode(d *dec)     { m.JobName = d.str() }

func (m FileList) encode(e *enc) byte {
	e.len32(len(m.Paths))
	for _, p := range m.Paths {
		e.str(p)
	}
	return tagFileList
}

func (m *FileList) decode(d *dec) {
	n := d.count(4)
	if n == 0 {
		return
	}
	m.Paths = make([]string, n)
	for i := range m.Paths {
		m.Paths[i] = d.str()
	}
}

func (Dedup2Request) encode(*enc) byte { return tagDedup2Request }
func (*Dedup2Request) decode(*dec)     {}

func (m Dedup2Done) encode(e *enc) byte {
	e.u64(uint64(m.NewChunks))
	e.u64(uint64(m.DupChunks))
	e.u64(uint64(m.Containers))
	e.str(m.Err)
	return tagDedup2Done
}

func (m *Dedup2Done) decode(d *dec) {
	m.NewChunks = int64(d.u64())
	m.DupChunks = int64(d.u64())
	m.Containers = int64(d.u64())
	m.Err = d.str()
}

func (m RegisterServer) encode(e *enc) byte { e.str(m.Addr); return tagRegisterServer }
func (m *RegisterServer) decode(d *dec)     { m.Addr = d.str() }

func (m RegisterOK) encode(e *enc) byte { e.int(m.ServerID); return tagRegisterOK }
func (m *RegisterOK) decode(d *dec)     { m.ServerID = d.int() }

func (m PutFileIndex) encode(e *enc) byte {
	e.str(m.JobName)
	e.u64(m.RunID)
	appendFileEntry(e, m.Entry)
	return tagPutFileIndex
}

func (m *PutFileIndex) decode(d *dec) {
	m.JobName = d.str()
	m.RunID = d.u64()
	m.Entry = decodeFileEntry(d)
}

func (m GetJobFiles) encode(e *enc) byte { e.str(m.JobName); return tagGetJobFiles }
func (m *GetJobFiles) decode(d *dec)     { m.JobName = d.str() }

func (m JobFiles) encode(e *enc) byte {
	e.u64(m.RunID)
	e.len32(len(m.Entries))
	for _, fe := range m.Entries {
		appendFileEntry(e, fe)
	}
	return tagJobFiles
}

func (m *JobFiles) decode(d *dec) {
	m.RunID = d.u64()
	n := d.count(minFileEntry)
	if n == 0 {
		return
	}
	m.Entries = make([]FileEntry, n)
	for i := range m.Entries {
		m.Entries[i] = decodeFileEntry(d)
	}
}

func (m GetFilterFPs) encode(e *enc) byte { e.str(m.JobName); return tagGetFilterFPs }
func (m *GetFilterFPs) decode(d *dec)     { m.JobName = d.str() }

func (m FilterFPs) encode(e *enc) byte {
	e.len32(len(m.FPs))
	e.fps(m.FPs)
	return tagFilterFPs
}

func (m *FilterFPs) decode(d *dec) { m.FPs = d.fps(d.count(fp.Size)) }

func (m NewRun) encode(e *enc) byte {
	e.str(m.JobName)
	e.str(m.Client)
	return tagNewRun
}

func (m *NewRun) decode(d *dec) {
	m.JobName = d.str()
	m.Client = d.str()
}

func (m NewRunOK) encode(e *enc) byte { e.u64(m.RunID); return tagNewRunOK }
func (m *NewRunOK) decode(d *dec)     { m.RunID = d.u64() }

func (m EndRun) encode(e *enc) byte {
	e.str(m.JobName)
	e.u64(m.RunID)
	return tagEndRun
}

func (m *EndRun) decode(d *dec) {
	m.JobName = d.str()
	m.RunID = d.u64()
}
