// Package chunker implements content-defined chunking (CDC), as used by
// DEBAR to divide backup streams into variable-sized chunks (paper §3.2,
// following LBFS).
//
// Anchors come from a gear hash (FastCDC, Xia et al., USENIX ATC '16):
// each byte b updates h = h<<1 + gear[b], where gear is a fixed table of
// 256 random 64-bit values. After 64 more shifts a byte has left the
// 64-bit word, so h is a function of the trailing 64 bytes alone: a
// 64-byte sliding window with nothing to subtract. A chunk ends just past
// the first byte at or beyond Min where the top AvgBits bits of h are
// zero, else at Max. The expected chunk size is Min + 2^AvgBits; the
// DEBAR bounds are kept: 2 KB min, 2^13 expected beyond it, 64 KB max.
//
// The paper anchors with a 48-byte Rabin fingerprint whose low k bits
// match a constant. That loop is bound by latency: each byte's table
// index is the previous byte's hash, so every byte waits for a load. The
// gear table is indexed by the input byte, so the loads run ahead of a
// one-shift-one-add chain. How much CDC deduplicates depends on how the
// cuts are distributed, which the bounds and k fix, not on which rolling
// hash places them (Niesen, arXiv 1701.04451). Departures from §3.2: a
// 64-byte window instead of 48; the top k bits of the hash instead of the
// low k, because the low bits of a gear hash see only the last few bytes;
// and a zero break value, which gearSeed makes safe for constant runs.
package chunker

import (
	"errors"
	"fmt"
	"io"
)

// DEBAR's chunking parameters (paper §3.2): expected chunk size 8 KB
// beyond the minimum (k=13), bounds 2 KB and 64 KB.
const (
	DefaultAvgBits = 13
	DefaultMin     = 2 * 1024
	DefaultMax     = 64 * 1024
)

// window is the gear hash's effective window in bytes: the hash is 64
// bits wide and shifts one bit per byte.
const window = 64

// maxEmptyReads is how many consecutive (0, nil) reads fill tolerates
// before failing with io.ErrNoProgress, as bufio.Reader does.
const maxEmptyReads = 100

// gearSeed seeds the splitmix64 generator that fills the gear table.
// Changing it (or the generator, or the cut rule) moves every chunk
// boundary, so the first backup of every job afterwards re-sends and
// re-stores its data once. A run of one byte value b settles at
// h = -gear[b] (mod 2^64); for this seed no such value has a zero top
// byte, so for AvgBits >= 8 no constant run, zero-filled or otherwise,
// ever anchors: it is cut at Max.
const gearSeed = 0

var gear = func() (t [256]uint64) {
	x := uint64(gearSeed)
	for i := range t {
		x += 0x9e3779b97f4a7c15 // splitmix64
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		t[i] = z ^ z>>31
	}
	return t
}()

// roll shifts byte b into the gear hash h.
func roll(h uint64, b byte) uint64 { return h<<1 + gear[b] }

// Config parameterises the chunker. A zero field selects DEBAR's value.
type Config struct {
	AvgBits uint // k: cut where the hash's top k bits are zero
	Min     int  // lower bound on chunk size
	Max     int  // upper bound on chunk size
}

func (c Config) withDefaults() Config {
	if c.AvgBits == 0 {
		c.AvgBits = DefaultAvgBits
	}
	if c.Min == 0 {
		c.Min = DefaultMin
	}
	if c.Max == 0 {
		c.Max = DefaultMax
	}
	return c
}

// Validate applies the defaults and then checks that Min covers the hash
// window, Max >= Min, and 8 <= AvgBits <= 30. Below 8 bits constant runs
// could anchor (see gearSeed).
func (c Config) Validate() error {
	c = c.withDefaults()
	switch {
	case c.Min < window:
		return fmt.Errorf("chunker: min %d smaller than the %d-byte hash window", c.Min, window)
	case c.Max < c.Min:
		return fmt.Errorf("chunker: max %d smaller than min %d", c.Max, c.Min)
	case c.AvgBits < 8 || c.AvgBits > 30:
		return fmt.Errorf("chunker: avg bits %d outside [8, 30]", c.AvgBits)
	}
	return nil
}

// Chunk is one content-defined chunk of the input stream.
type Chunk struct {
	Offset int64  // byte offset of the chunk within the stream
	Data   []byte // chunk contents; owned by the caller after Next returns
}

// Chunker splits a stream into content-defined chunks.
type Chunker struct {
	cfg Config
	r   io.Reader
	buf []byte // read buffer
	n   int    // valid bytes in buf
	pos int    // consumption position in buf
	off int64  // stream offset of buf[pos]
	eof bool
}

// New returns a Chunker reading from r. A zero Config selects DEBAR's
// parameters (8 KB expected beyond a 2 KB min, 64 KB max).
func New(r io.Reader, cfg Config) (*Chunker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &Chunker{cfg: cfg, r: r, buf: make([]byte, max(512*1024, cfg.Max))}, nil
}

// Reset makes c chunk r from its start, keeping the read buffer, so one
// Chunker can serve a sequence of files.
func (c *Chunker) Reset(r io.Reader) {
	c.r, c.n, c.pos, c.off, c.eof = r, 0, 0, 0, false
}

// fill shifts unconsumed bytes down and reads until the buffer is full
// or the stream ends.
func (c *Chunker) fill() error {
	if c.pos > 0 {
		copy(c.buf, c.buf[c.pos:c.n])
		c.n -= c.pos
		c.pos = 0
	}
	for empty := 0; !c.eof && c.n < len(c.buf); {
		m, err := c.r.Read(c.buf[c.n:])
		c.n += m
		if err == io.EOF {
			c.eof = true
			break
		}
		if err != nil {
			return err
		}
		if m > 0 {
			empty = 0
		} else if empty++; empty == maxEmptyReads {
			return io.ErrNoProgress
		}
	}
	return nil
}

// Next returns the next chunk, or io.EOF after the final chunk has been
// delivered. The returned Data is a fresh copy.
func (c *Chunker) Next() (Chunk, error) {
	return c.AppendNext(nil)
}

// AppendNext is the buffer-reuse variant of Next: the chunk's bytes are
// appended to dst (which may be nil or a recycled buffer sliced to zero
// length) and the returned Chunk's Data is the resulting slice. Callers
// pooling chunk buffers pass buf[:0] to avoid one allocation+copy per
// chunk; the returned Data never aliases the chunker's internal buffer.
func (c *Chunker) AppendNext(dst []byte) (Chunk, error) {
	// Ensure the buffer holds at least one maximal chunk (or all that's left).
	if c.n-c.pos < c.cfg.Max && !c.eof {
		if err := c.fill(); err != nil {
			return Chunk{}, err
		}
	}
	if c.pos == c.n {
		return Chunk{}, io.EOF
	}
	cut := boundary(c.buf[c.pos:c.n], c.cfg)
	out := Chunk{Offset: c.off, Data: append(dst, c.buf[c.pos:c.pos+cut]...)}
	c.pos += cut
	c.off += int64(cut)
	return out, nil
}

// boundary returns the length of the chunk that starts data: just past the
// first byte at or beyond cfg.Min where the top AvgBits bits of the hash
// are zero, else min(len(data), cfg.Max). The hash is primed over the
// window ending at Min, so every cut depends on the 64 bytes before it
// alone; boundaries stay content-defined and survive insertions upstream.
func boundary(data []byte, cfg Config) int {
	n := min(len(data), cfg.Max)
	if n <= cfg.Min {
		return n
	}
	shift := 64 - cfg.AvgBits
	var h uint64
	for _, b := range data[cfg.Min-window : cfg.Min] {
		h = roll(h, b)
	}
	if h>>shift == 0 {
		return cfg.Min
	}
	for i, b := range data[cfg.Min:n] {
		h = roll(h, b)
		if h>>shift == 0 {
			return cfg.Min + i + 1
		}
	}
	return n
}

// Split chunks data in one call and returns the chunk boundaries as
// sub-slices of data (no copies).
func Split(data []byte, cfg Config) ([][]byte, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	var chunks [][]byte
	for len(data) > 0 {
		cut := boundary(data, cfg)
		chunks = append(chunks, data[:cut])
		data = data[cut:]
	}
	return chunks, nil
}

// ErrBadSize reports an invalid fixed chunk size.
var ErrBadSize = errors.New("chunker: fixed chunk size must be positive")

// FixedSplit divides data into fixed-sized blocks: the baseline blocking
// method whose shift-sensitivity motivates CDC (paper §3.2).
func FixedSplit(data []byte, size int) ([][]byte, error) {
	if size <= 0 {
		return nil, ErrBadSize
	}
	chunks := make([][]byte, 0, (len(data)+size-1)/size)
	for len(data) > 0 {
		n := min(len(data), size)
		chunks = append(chunks, data[:n])
		data = data[n:]
	}
	return chunks, nil
}
