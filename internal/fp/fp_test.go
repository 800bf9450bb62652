package fp

import (
	"bytes"
	"crypto/sha1"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// TestNewMatchesSHA1 compares New with crypto/sha1 on every length up to
// 1 KiB, around each padding edge (a tail of 55/56 bytes still fits the
// length in one block; 56 needs a second), on multi-block inputs and at
// unaligned start offsets.
func TestNewMatchesSHA1(t *testing.T) {
	t.Logf("SHA-1 path: %s", implName())
	buf := make([]byte, 1<<20+16)
	for i := range buf {
		buf[i] = byte(i*7 + i>>11)
	}
	check := func(b []byte) {
		t.Helper()
		if got, want := New(b), FP(sha1.Sum(b)); got != want {
			t.Fatalf("New(%d bytes at offset %d) = %v, want %v",
				len(b), cap(buf)-cap(b), got, want)
		}
	}
	for n := 0; n <= 1024; n++ {
		check(buf[:n])
	}
	for _, edge := range []int{55, 56, 64, 119, 120, 128} {
		for n := edge - 2; n <= edge+2; n++ {
			check(buf[:n])
		}
	}
	for _, n := range []int{64 << 10, 64<<10 + 1, 1 << 20} {
		check(buf[:n])
	}
	for off := 1; off <= 15; off++ {
		for _, n := range []int{0, 1, 55, 56, 64, 200, 10 << 10} {
			check(buf[off : off+n])
		}
	}
}

// TestNewKnownAnswers pins the FIPS 180 test vectors, which a hash that is
// wrong in the same way on client and server would still fail.
func TestNewKnownAnswers(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
		{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
		{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq", "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
		{strings.Repeat("a", 1000000), "34aa973cd4c4daa4f61eeb2bdbad27316534016f"},
	}
	for _, c := range cases {
		if got := New([]byte(c.in)).String(); got != c.want {
			t.Errorf("New(%.10q... %d bytes) = %s, want %s", c.in, len(c.in), got, c.want)
		}
	}
}

func FuzzNew(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("abc"))
	f.Add(bytes.Repeat([]byte{0xff}, 119))
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, want := New(b), FP(sha1.Sum(b)); got != want {
			t.Fatalf("New(%x) = %v, want %v", b, got, want)
		}
	})
}

func TestNewAllocatesNothing(t *testing.T) {
	data := make([]byte, 10<<10+37)
	if n := testing.AllocsPerRun(100, func() { New(data) }); n != 0 {
		t.Fatalf("New allocated %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { FromUint64(42) }); n != 0 {
		t.Fatalf("FromUint64 allocated %v times per call, want 0", n)
	}
}

func TestZeroIsZero(t *testing.T) {
	if !Zero.IsZero() {
		t.Fatal("Zero.IsZero() = false")
	}
	if New([]byte("x")).IsZero() {
		t.Fatal("real fingerprint reported as zero")
	}
}

func TestPrefix(t *testing.T) {
	var f FP
	f[0] = 0xAB // 1010 1011
	f[1] = 0xCD // 1100 1101
	cases := []struct {
		n    uint
		want uint64
	}{
		{0, 0},
		{1, 1},
		{4, 0xA},
		{8, 0xAB},
		{12, 0xABC},
		{16, 0xABCD},
		{64, 0xABCD << 48},
	}
	for _, c := range cases {
		if got := f.Prefix(c.n); got != c.want {
			t.Errorf("Prefix(%d) = %#x, want %#x", c.n, got, c.want)
		}
	}
}

func TestPrefixPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Prefix(65) did not panic")
		}
	}()
	var f FP
	f.Prefix(65)
}

func TestPrefixConsistentWithCompare(t *testing.T) {
	// If f < g lexicographically then Prefix(f) <= Prefix(g) for any width.
	err := quick.Check(func(a, b uint64, width uint8) bool {
		n := uint(width%64) + 1
		f, g := FromUint64(a), FromUint64(b)
		if f.Less(g) {
			return f.Prefix(n) <= g.Prefix(n)
		}
		return g.Prefix(n) <= f.Prefix(n)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	f := New([]byte("round trip"))
	g, err := Parse(f.String())
	if err != nil {
		t.Fatal(err)
	}
	if g != f {
		t.Fatalf("Parse(String) = %v, want %v", g, f)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("zz"); err == nil {
		t.Error("Parse of non-hex succeeded")
	}
	if _, err := Parse("abcd"); err == nil {
		t.Error("Parse of short hex succeeded")
	}
}

func TestSortOrders(t *testing.T) {
	fps := make([]FP, 500)
	for i := range fps {
		fps[i] = FromUint64(uint64(i) * 7919)
	}
	Sort(fps)
	if !sort.SliceIsSorted(fps, func(i, j int) bool { return fps[i].Less(fps[j]) }) {
		t.Fatal("Sort did not order fingerprints")
	}
	// Sorting by number also sorts by any prefix width (the disk-index
	// number-ordering property, paper §4.1).
	for i := 1; i < len(fps); i++ {
		if fps[i-1].Prefix(26) > fps[i].Prefix(26) {
			t.Fatalf("prefix order violated at %d", i)
		}
	}
}

func TestEntryEncodeDecode(t *testing.T) {
	e := Entry{FP: New([]byte("entry")), CID: 0x1234567890}
	buf := make([]byte, EntrySize)
	if err := e.Encode(buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEntry(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("decode = %+v, want %+v", got, e)
	}
}

func TestEntryEncodeShortBuffer(t *testing.T) {
	var e Entry
	if err := e.Encode(make([]byte, EntrySize-1)); err != ErrShortEntry {
		t.Fatalf("err = %v, want ErrShortEntry", err)
	}
	if _, err := DecodeEntry(make([]byte, 3)); err != ErrShortEntry {
		t.Fatalf("err = %v, want ErrShortEntry", err)
	}
}

func TestEntryRoundTripQuick(t *testing.T) {
	err := quick.Check(func(seed uint64, cid uint64) bool {
		e := Entry{FP: FromUint64(seed), CID: ContainerID(cid % (1 << 40))}
		buf := make([]byte, EntrySize)
		if err := e.Encode(buf); err != nil {
			return false
		}
		got, err := DecodeEntry(buf)
		return err == nil && got == e
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestNilContainer(t *testing.T) {
	if !NilContainer.Valid() {
		t.Error("NilContainer should be a valid 40-bit value")
	}
	if NilContainer.String() != "nil" {
		t.Errorf("NilContainer.String() = %q", NilContainer.String())
	}
	if ContainerID(1 << 41).Valid() {
		t.Error("41-bit ID reported valid")
	}
	buf := make([]byte, EntrySize)
	e := Entry{CID: NilContainer}
	if err := e.Encode(buf); err != nil {
		t.Fatal(err)
	}
	got, _ := DecodeEntry(buf)
	if got.CID != NilContainer {
		t.Fatalf("NilContainer round-trip = %v", got.CID)
	}
}

func TestGeneratorDisjointSubspaces(t *testing.T) {
	g1 := NewGenerator(0, 1000)
	g2 := NewGenerator(1000, 2000)
	seen := make(map[FP]bool)
	for i := 0; i < 1000; i++ {
		seen[g1.Next()] = true
	}
	for i := 0; i < 1000; i++ {
		if seen[g2.Next()] {
			t.Fatal("generators over disjoint subspaces collided")
		}
	}
}

func TestGeneratorExhaustionPanics(t *testing.T) {
	g := NewGenerator(5, 6)
	g.Next()
	defer func() {
		if recover() == nil {
			t.Fatal("exhausted generator did not panic")
		}
	}()
	g.Next()
}

func TestSectionReproducible(t *testing.T) {
	g := NewGenerator(100, 0)
	var direct []FP
	for i := 0; i < 50; i++ {
		direct = append(direct, g.Next())
	}
	sec := Section(100, 50)
	for i := range sec {
		if sec[i] != direct[i] {
			t.Fatalf("Section[%d] != generator output", i)
		}
	}
}

func TestFromUint64Distribution(t *testing.T) {
	// The paper relies on SHA-1 randomness to distribute fingerprints
	// uniformly over buckets (§4.1). Check a coarse chi-squared-ish bound:
	// 16 buckets, 16k fingerprints, each bucket within 20% of the mean.
	const n, buckets = 1 << 14, 16
	counts := make([]int, buckets)
	for i := uint64(0); i < n; i++ {
		counts[FromUint64(i).Prefix(4)]++
	}
	mean := n / buckets
	for b, c := range counts {
		if c < mean*8/10 || c > mean*12/10 {
			t.Fatalf("bucket %d has %d fingerprints, mean %d: non-uniform", b, c, mean)
		}
	}
}

func TestCompare(t *testing.T) {
	a, b := FromUint64(1), FromUint64(2)
	if a.Compare(a) != 0 {
		t.Error("Compare(self) != 0")
	}
	if a.Compare(b) == 0 {
		t.Error("distinct fingerprints compare equal")
	}
	if a.Compare(b)+b.Compare(a) != 0 {
		t.Error("Compare not antisymmetric")
	}
	if bytes.Compare(a[:], b[:]) != a.Compare(b) {
		t.Error("Compare disagrees with bytes.Compare")
	}
}

func BenchmarkNew8K(b *testing.B) {
	data := make([]byte, 8192)
	b.SetBytes(8192)
	for i := 0; i < b.N; i++ {
		New(data)
	}
}

func BenchmarkFromUint64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		FromUint64(uint64(i))
	}
}
