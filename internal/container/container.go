// Package container implements DEBAR's unit of storage (paper §3.4): the
// fixed-sized, self-described container. A container holds a metadata
// section describing every chunk (fingerprint, size, offset) followed by
// the data section with the chunk bytes. DEBAR uses 8 MB containers — at
// the 8 KB expected chunk size about 1024 chunks per container — and
// 40-bit container IDs (8 EB of addressable physical capacity).
//
// Containers are filled with the stream-informed segment layout (SISL)
// adopted from DDFS: new chunks are written in the logical order in which
// they appear in the backup stream, creating the spatial locality that
// locality-preserved caching exploits during restore.
package container

import (
	"encoding/binary"
	"errors"
	"fmt"

	"debar/internal/fp"
)

// DefaultSize is the paper's container size (§3.4).
const DefaultSize = 8 << 20

// ChunkMeta locates one chunk inside its container (§3.4: "the
// fingerprint, chunk size and storage offset of this chunk").
type ChunkMeta struct {
	FP     fp.FP
	Size   uint32
	Offset uint32
}

// metaEntrySize is the serialised size of one ChunkMeta.
const metaEntrySize = fp.Size + 4 + 4

// header layout: magic | container ID | chunk count | data length.
const (
	magic      = 0xDEBA0001
	headerSize = 4 + 8 + 4 + 4
)

// Container is one sealed container.
type Container struct {
	ID   fp.ContainerID
	Meta []ChunkMeta
	Data []byte // nil when the repository runs in accounting mode
}

// DataBytes returns the total chunk payload size described by the metadata
// (valid even in accounting mode).
func (c *Container) DataBytes() int64 {
	var n int64
	for _, m := range c.Meta {
		n += int64(m.Size)
	}
	return n
}

// Chunk extracts the payload of the chunk with fingerprint f.
func (c *Container) Chunk(f fp.FP) ([]byte, bool) {
	for _, m := range c.Meta {
		if m.FP == f {
			if c.Data == nil {
				// Accounting mode: payloads were not retained; synthesise
				// a zero chunk of the recorded size (§6.2: "a chunk padded
				// with full zero" as fingerprint payload).
				return make([]byte, m.Size), true
			}
			return c.Data[m.Offset : m.Offset+m.Size], true
		}
	}
	return nil, false
}

// Marshal serialises the container: MarshalHead followed by the data
// section. Accounting-mode containers marshal with an empty data section.
func (c *Container) Marshal() []byte {
	return append(c.appendHead(make([]byte, 0, c.headLen()+len(c.Data))), c.Data...)
}

// MarshalHead serialises the header and metadata section: Marshal's image
// up to the data section, which follows it unchanged. A writer that emits
// MarshalHead and then c.Data produces the Marshal image without copying
// the chunk bytes into it.
func (c *Container) MarshalHead() []byte {
	return c.appendHead(make([]byte, 0, c.headLen()))
}

func (c *Container) headLen() int { return headerSize + len(c.Meta)*metaEntrySize }

func (c *Container) appendHead(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, magic)
	buf = binary.BigEndian.AppendUint64(buf, uint64(c.ID))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(c.Meta)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(c.Data)))
	for _, m := range c.Meta {
		buf = append(buf, m.FP[:]...)
		buf = binary.BigEndian.AppendUint32(buf, m.Size)
		buf = binary.BigEndian.AppendUint32(buf, m.Offset)
	}
	return buf
}

// ErrCorrupt reports a malformed container image.
var ErrCorrupt = errors.New("container: corrupt image")

// Unmarshal parses a container image produced by Marshal. The returned
// container owns its data (no aliasing of buf).
func Unmarshal(buf []byte) (*Container, error) {
	c, err := UnmarshalShared(buf)
	if err != nil {
		return nil, err
	}
	if c.Data != nil {
		c.Data = append([]byte(nil), c.Data...)
	}
	return c, nil
}

// UnmarshalShared parses a container image like Unmarshal but aliases the
// data section instead of copying it: c.Data points into buf. This is the
// zero-copy read path for memory-mapped container logs — the returned
// container (and any chunk slices taken from it) remains valid only while
// the mapping it points into stays mapped. Callers that need the container
// to outlive the mapping must use Unmarshal.
func UnmarshalShared(buf []byte) (*Container, error) {
	h, err := ParseHeader(buf)
	if err != nil {
		return nil, err
	}
	if need := h.RecordLen(); int64(len(buf)) < need {
		return nil, fmt.Errorf("%w: truncated (%d < %d)", ErrCorrupt, len(buf), need)
	}
	c := &Container{ID: h.ID, Meta: DecodeMetas(buf[headerSize:], h.NumMeta)}
	if h.DataLen > 0 {
		off := headerSize + h.NumMeta*metaEntrySize
		end := off + int(h.DataLen)
		c.Data = buf[off:end:end]
	}
	return c, nil
}

// DecodeMetas parses n serialised ChunkMeta entries from buf (which must
// hold at least n*28 bytes: the metadata section of a container image).
func DecodeMetas(buf []byte, n int) []ChunkMeta {
	metas := make([]ChunkMeta, n)
	for i := range metas {
		p := buf[i*metaEntrySize:]
		copy(metas[i].FP[:], p[:fp.Size])
		metas[i].Size = binary.BigEndian.Uint32(p[fp.Size:])
		metas[i].Offset = binary.BigEndian.Uint32(p[fp.Size+4:])
	}
	return metas
}

// Header describes one container record parsed from the front of its
// serialised image: the self-describing framing a log scan walks.
type Header struct {
	ID      fp.ContainerID
	NumMeta int
	DataLen int64
}

// RecordLen returns the full serialised record length.
func (h Header) RecordLen() int64 {
	return headerSize + int64(h.NumMeta)*metaEntrySize + h.DataLen
}

// HeaderSize is the serialised container header length, exported for log
// scanners that frame records by header.
const HeaderSize = headerSize

// ParseHeader decodes a container record header, validating the magic.
func ParseHeader(buf []byte) (Header, error) {
	if len(buf) < headerSize {
		return Header{}, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(buf))
	}
	if binary.BigEndian.Uint32(buf[0:]) != magic {
		return Header{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	return Header{
		ID:      fp.ContainerID(binary.BigEndian.Uint64(buf[4:])),
		NumMeta: int(binary.BigEndian.Uint32(buf[12:])),
		DataLen: int64(binary.BigEndian.Uint32(buf[16:])),
	}, nil
}

// Writer fills one container at a time in stream order (SISL). It is the
// in-memory staging object the Chunk Store writes new chunks into (§5.3).
type Writer struct {
	size     int
	meta     []ChunkMeta
	data     []byte
	used     int // bytes of container consumed (metadata + data)
	metaOnly bool
}

// NewWriter returns a Writer for containers of size bytes. metaOnly
// writers account for payload bytes without retaining them.
func NewWriter(size int, metaOnly bool) *Writer {
	if size <= 0 {
		size = DefaultSize
	}
	return &Writer{size: size, metaOnly: metaOnly}
}

// Fits reports whether a chunk of n payload bytes fits the open container.
func (w *Writer) Fits(n int) bool {
	return w.used+metaEntrySize+n <= w.size-headerSize
}

// Add appends one chunk. It returns false (and does not add) when the
// chunk does not fit: the caller seals the container and retries. size is
// the payload length; data may be nil in metaOnly mode.
func (w *Writer) Add(f fp.FP, size uint32, data []byte) bool {
	if !w.metaOnly && len(data) != int(size) {
		panic(fmt.Sprintf("container: declared size %d != payload %d", size, len(data)))
	}
	if !w.Fits(int(size)) {
		return false
	}
	w.meta = append(w.meta, ChunkMeta{FP: f, Size: size, Offset: uint32(len(w.data))})
	if !w.metaOnly {
		if w.data == nil {
			// Size the data section once per container (Fits bounds it by
			// the container size), so filling it never regrows and recopies.
			w.data = make([]byte, 0, w.size-headerSize)
		}
		w.data = append(w.data, data...)
	}
	w.used += metaEntrySize + int(size)
	return true
}

// Len returns the number of staged chunks.
func (w *Writer) Len() int { return len(w.meta) }

// Empty reports whether nothing has been staged.
func (w *Writer) Empty() bool { return len(w.meta) == 0 }

// Seal closes the container, assigning it the given ID, and resets the
// writer for the next container.
func (w *Writer) Seal(id fp.ContainerID) *Container {
	c := &Container{ID: id, Meta: w.meta, Data: w.data}
	w.meta = nil
	w.data = nil
	w.used = 0
	return c
}
