package chunklog

import (
	"fmt"
	"sync"

	"debar/internal/disksim"
	"debar/internal/fp"
)

// recordHeader is a record's framing as the simulated disk is charged
// for it: its fingerprint and size.
const recordHeader = fp.Size + 4

// Mem is the paper's chunk log as the simulations model it (§5.1): an
// append-then-drain list of records in memory, charged to a simulated
// disk — one sequential write per append and one sequential read over
// the whole log per walk — so the experiments keep exact byte and time
// accounting. In accounting mode (metaOnly) it records payload sizes
// and drops the bytes, which is how the fingerprint-granularity
// experiments model terabytes without materialising them.
//
// Mem is safe for concurrent use. Select walks the records appended
// before the call without holding the log's lock, so appends proceed
// behind a walk.
type Mem struct {
	mu       sync.Mutex
	metaOnly bool          // set once
	disk     *disksim.Disk // set once; nil charges nothing
	recs     []Record      // guarded by mu
	bytes    int64         // guarded by mu; payload bytes appended since the last Reset
}

// NewMem returns an empty memory log. metaOnly drops payloads while
// keeping sizes. disk may be nil.
func NewMem(metaOnly bool, disk *disksim.Disk) *Mem {
	return &Mem{metaOnly: metaOnly, disk: disk}
}

// Append adds one <F, D(F)> group and charges a sequential write. size
// declares the payload length; data may be nil only in accounting mode.
// The log keeps a private copy of data.
func (m *Mem) Append(f fp.FP, size uint32, data []byte) error {
	r := Record{FP: f, Size: size}
	if !m.metaOnly {
		if len(data) != int(size) {
			return fmt.Errorf("chunklog: declared size %d != payload %d", size, len(data))
		}
		r.Data = append([]byte(nil), data...)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recs = append(m.recs, r)
	m.bytes += int64(size)
	if m.disk != nil {
		m.disk.SeqWrite(recordHeader + int64(size))
	}
	return nil
}

// Select walks the records appended before the call, in append order,
// and hands fn those keep accepts (every one when keep is nil). It
// charges one sequential read over every record: the paper's chunk
// storing reads the whole log, whatever it keeps.
func (m *Mem) Select(keep func(fp.FP, uint32) bool, fn func(Record) error) error {
	m.mu.Lock()
	// Appends only ever write past len(m.recs), so the capped slice is an
	// immutable snapshot without a copy.
	recs := m.recs[:len(m.recs):len(m.recs)]
	m.mu.Unlock()
	if m.disk != nil {
		var n int64
		for _, r := range recs {
			n += recordHeader + int64(r.Size)
		}
		m.disk.SeqRead(n)
	}
	for _, r := range recs {
		if keep != nil && !keep(r.FP, r.Size) {
			continue
		}
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// Bytes returns the payload bytes appended since the last Reset.
func (m *Mem) Bytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// Reset discards every record: the chunk storing pass has consumed them.
func (m *Mem) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recs, m.bytes = nil, 0
}
