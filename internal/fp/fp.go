// Package fp defines chunk fingerprints and disk-index entries.
//
// DEBAR identifies chunks by the SHA-1 hash of their contents (160 bits,
// paper §3.2) and maps each fingerprint to the 40-bit ID of the container
// holding the chunk. A disk-index entry is therefore exactly 25 bytes:
// 20 bytes of fingerprint followed by 5 bytes of container ID (paper §4.2).
//
// Every hash in the system goes through New (and FromUint64, which calls
// it): the client's hash workers, the server's anti-forgery re-hash of
// each received chunk, restore and verify. On amd64 CPUs with the SHA
// extensions (SHA, SSSE3, SSE4.1; detected once at init) New runs an
// assembly kernel, sha1_amd64.s, at about twice the standard library's
// speed; elsewhere it calls the standard library's SHA-1. Both compute
// the same hash, so no fingerprint, on disk or on the wire, depends on
// which path ran. The kernel exists only because the standard library
// of this module's Go version (1.24) has no SHA-NI path for SHA-1: delete
// it, and the two New variants with it, once the standard library at the
// module's Go version matches it on the bench's fp.sha1_MBps probe.
package fp

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
)

// Size is the length of a fingerprint in bytes (SHA-1, 160 bits).
const Size = 20

// EntrySize is the on-disk size of one index entry: a fingerprint plus a
// 40-bit container ID (paper §4.2: "an entry is 25 bytes").
const EntrySize = Size + 5

// FP is a chunk fingerprint: the SHA-1 hash of the chunk contents.
type FP [Size]byte

// Zero is the all-zero fingerprint. It never occurs as a real SHA-1 output
// in practice and is used to mark empty index slots.
var Zero FP

// FromUint64 derives a fingerprint by hashing the 8-byte big-endian encoding
// of v. This is the paper's synthetic-workload generator (§4.2, §6.2): "we
// use a 64-bit variable ... as input to the SHA-1 algorithm to generate a
// sufficiently large number of different random fingerprints".
func FromUint64(v uint64) FP {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return New(buf[:])
}

// IsZero reports whether f is the all-zero (empty slot) fingerprint.
func (f FP) IsZero() bool { return f == Zero }

// Prefix returns the first n bits of the fingerprint as an unsigned integer,
// 0 <= n <= 64. The paper uses the first n bits of a fingerprint as its disk
// index bucket number (§4.1) and the first w bits as the backup-server
// number under performance scaling (§4.1, §5.2).
func (f FP) Prefix(n uint) uint64 {
	if n == 0 {
		return 0
	}
	if n > 64 {
		panic(fmt.Sprintf("fp: prefix width %d out of range [0,64]", n))
	}
	hi := binary.BigEndian.Uint64(f[:8])
	return hi >> (64 - n)
}

// Compare lexicographically compares two fingerprints, returning -1, 0, or 1.
func (f FP) Compare(g FP) int { return bytes.Compare(f[:], g[:]) }

// Less reports whether f sorts before g in fingerprint-number order.
func (f FP) Less(g FP) bool { return bytes.Compare(f[:], g[:]) < 0 }

// String returns the hexadecimal form of the fingerprint.
func (f FP) String() string { return hex.EncodeToString(f[:]) }

// Short returns the first 4 bytes in hex, for logs.
func (f FP) Short() string { return hex.EncodeToString(f[:4]) }

// Parse decodes a 40-character hexadecimal fingerprint.
func Parse(s string) (FP, error) {
	var f FP
	b, err := hex.DecodeString(s)
	if err != nil {
		return f, fmt.Errorf("fp: parse %q: %w", s, err)
	}
	if len(b) != Size {
		return f, fmt.Errorf("fp: parse %q: got %d bytes, want %d", s, len(b), Size)
	}
	copy(f[:], b)
	return f, nil
}

// Sort sorts fps in ascending fingerprint-number order. Because the disk
// index is number-ordered (paper §4.1), sorting a fingerprint set orders it
// by target bucket, which is what makes sequential index lookup possible.
func Sort(fps []FP) {
	sort.Slice(fps, func(i, j int) bool { return fps[i].Less(fps[j]) })
}

// ContainerID identifies a container in the chunk repository. Only the low
// 40 bits are significant (paper §3.4: 8 MB containers with 40-bit IDs cover
// 8 EB of physical capacity).
type ContainerID uint64

// NilContainer marks an entry whose chunk has not yet been written to a
// container (paper §5.3: "checks whether its corresponding container ID is
// null"). It is the all-ones 40-bit value.
const NilContainer ContainerID = 1<<40 - 1

// MaxContainerID is the largest assignable container ID.
const MaxContainerID ContainerID = NilContainer - 1

// Valid reports whether the ID fits in 40 bits.
func (c ContainerID) Valid() bool { return c <= NilContainer }

func (c ContainerID) String() string {
	if c == NilContainer {
		return "nil"
	}
	return fmt.Sprintf("%d", uint64(c))
}

// Entry is one disk-index entry: a fingerprint-to-container mapping.
type Entry struct {
	FP  FP
	CID ContainerID
}

// ErrShortEntry is returned when decoding from a buffer smaller than EntrySize.
var ErrShortEntry = errors.New("fp: buffer shorter than entry size")

// Encode serialises the entry into buf, which must be at least EntrySize
// bytes. The fingerprint occupies the first 20 bytes and the container ID
// the following 5, big-endian.
func (e Entry) Encode(buf []byte) error {
	if len(buf) < EntrySize {
		return ErrShortEntry
	}
	copy(buf[:Size], e.FP[:])
	cid := uint64(e.CID)
	buf[Size] = byte(cid >> 32)
	buf[Size+1] = byte(cid >> 24)
	buf[Size+2] = byte(cid >> 16)
	buf[Size+3] = byte(cid >> 8)
	buf[Size+4] = byte(cid)
	return nil
}

// DecodeEntry reads an entry from buf, which must be at least EntrySize bytes.
func DecodeEntry(buf []byte) (Entry, error) {
	var e Entry
	if len(buf) < EntrySize {
		return e, ErrShortEntry
	}
	copy(e.FP[:], buf[:Size])
	e.CID = ContainerID(uint64(buf[Size])<<32 | uint64(buf[Size+1])<<24 |
		uint64(buf[Size+2])<<16 | uint64(buf[Size+3])<<8 | uint64(buf[Size+4]))
	return e, nil
}

// Generator produces the paper's synthetic fingerprint stream: successive
// SHA-1 hashes of an incrementing 64-bit counter (§6.2). A Generator owns a
// contiguous subspace of the counter value space so that distinct clients
// generate disjoint fingerprints, and duplicate fingerprints are produced by
// re-hashing counter values from previously used sections.
type Generator struct {
	next uint64
	end  uint64
}

// NewGenerator returns a generator over the counter subspace [start, end).
// If end is 0 the subspace is unbounded.
func NewGenerator(start, end uint64) *Generator {
	return &Generator{next: start, end: end}
}

// Next returns a fresh fingerprint, advancing the counter.
// It panics if the subspace is exhausted.
func (g *Generator) Next() FP {
	if g.end != 0 && g.next >= g.end {
		panic("fp: generator subspace exhausted")
	}
	f := FromUint64(g.next)
	g.next++
	return f
}

// Pos returns the next counter value to be consumed.
func (g *Generator) Pos() uint64 { return g.next }

// Section regenerates the fingerprints for counter values [start, start+n):
// the paper's mechanism for injecting duplicate fingerprints with locality
// ("a contiguous section of the variable value space", §6.2).
func Section(start uint64, n int) []FP {
	out := make([]FP, n)
	for i := range out {
		out[i] = FromUint64(start + uint64(i))
	}
	return out
}
