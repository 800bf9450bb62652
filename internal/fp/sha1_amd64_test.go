package fp

import (
	"crypto/sha1"
	"encoding/binary"
	"testing"
)

// implName names the SHA-1 path New runs on this CPU.
func implName() string {
	if useSHANI {
		return "SHA-NI assembly"
	}
	return "crypto/sha1 (CPU lacks " + shaniMissing + ")"
}

// TestBlockSHANI drives the kernel directly: several whole blocks in one
// call, a partial block it must ignore, and an empty input that must
// leave the state alone. The padded message equals sha1.Sum's.
func TestBlockSHANI(t *testing.T) {
	if !useSHANI {
		t.Skipf("SHA-NI kernel not used: the CPU lacks %s", shaniMissing)
	}
	init := [5]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0}
	h := init
	blockSHANI(&h, nil)
	if h != init {
		t.Fatalf("empty input changed the state: %x", h)
	}
	msg := make([]byte, 3*64+10)
	for i := range msg {
		msg[i] = byte(i)
	}
	// Pad msg[:3*64-9] by hand: 0x80 and the 64-bit bit length end the
	// third block exactly.
	n := 3*64 - 9
	padded := append([]byte(nil), msg[:n]...)
	padded = append(padded, 0x80)
	padded = binary.BigEndian.AppendUint64(padded, uint64(n)<<3)
	padded = append(padded, msg[:10]...) // a trailing partial block
	blockSHANI(&h, padded)
	var got FP
	for i, v := range h {
		binary.BigEndian.PutUint32(got[4*i:], v)
	}
	if want := FP(sha1.Sum(msg[:n])); got != want {
		t.Fatalf("blockSHANI = %v, want %v", got, want)
	}
}
