package fp

import (
	"crypto/sha1"
	"encoding/binary"
)

// blockSHANI runs the SHA-1 compression function over the whole 64-byte
// blocks of p, updating h. It needs SSSE3, SSE4.1 and the SHA extensions.
//
//go:noescape
func blockSHANI(h *[5]uint32, p []byte)

// cpuid executes CPUID with EAX=eaxArg and ECX=ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// shaniMissing names the first CPU feature blockSHANI needs that this
// CPU lacks, or is empty when New runs the kernel.
var shaniMissing = func() string {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	var ebx7 uint32
	if maxLeaf >= 7 {
		_, ebx7, _, _ = cpuid(7, 0)
	}
	switch {
	case ecx1&(1<<9) == 0:
		return "SSSE3 (CPUID.1:ECX bit 9)"
	case ecx1&(1<<19) == 0:
		return "SSE4.1 (CPUID.1:ECX bit 19)"
	case ebx7&(1<<29) == 0:
		return "SHA (CPUID.7.0:EBX bit 29)"
	}
	return ""
}()

var useSHANI = shaniMissing == ""

// New computes the fingerprint of data.
func New(data []byte) FP {
	if !useSHANI {
		return sha1.Sum(data)
	}
	h := [5]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0}
	whole := len(data) &^ 63
	blockSHANI(&h, data[:whole])
	// Padding: 0x80, zeros, then the bit length in the last 8 bytes of
	// one block, or of two when the tail leaves fewer than 9 bytes free.
	var tail [128]byte
	n := copy(tail[:], data[whole:])
	tail[n] = 0x80
	end := 64
	if n >= 56 {
		end = 128
	}
	binary.BigEndian.PutUint64(tail[end-8:end], uint64(len(data))<<3)
	blockSHANI(&h, tail[:end])
	var f FP
	for i, v := range h {
		binary.BigEndian.PutUint32(f[4*i:], v)
	}
	return f
}
