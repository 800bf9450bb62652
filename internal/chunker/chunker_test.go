package chunker

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBytes(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	r.Read(b)
	return b
}

// directHash is the gear hash of w computed without rolling: byte j
// contributes gear[w[j]] shifted left once per byte after it.
func directHash(w []byte) uint64 {
	var h uint64
	for j, b := range w {
		h += gear[b] << (len(w) - 1 - j)
	}
	return h
}

func TestRollingMatchesDirectHash(t *testing.T) {
	// The rolled hash at every position past the first window must equal
	// the direct hash of the trailing 64 bytes: older bytes have shifted
	// out. This is the invariant that makes boundaries position-independent.
	data := randBytes(1, 4096)
	var h uint64
	for i, b := range data {
		h = roll(h, b)
		if i >= window-1 {
			if want := directHash(data[i+1-window : i+1]); h != want {
				t.Fatalf("rolling hash at %d = %#x, want %#x", i, h, want)
			}
		}
	}
}

func TestRollingMatchesDirectQuick(t *testing.T) {
	// boundary must cut exactly where the direct hash of the trailing
	// window first has its top AvgBits bits zero at or beyond Min.
	cfg := smallCfg()
	f := func(seed int64, n uint16) bool {
		data := randBytes(seed, int(n)%(2*cfg.Max))
		end := min(len(data), cfg.Max)
		want := end
		for p := cfg.Min; p <= end && end > cfg.Min; p++ {
			if directHash(data[p-window:p])>>(64-cfg.AvgBits) == 0 {
				want = p
				break
			}
		}
		return boundary(data, cfg) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func smallCfg() Config {
	return Config{AvgBits: 8, Min: 64, Max: 1024}
}

func TestSplitReassembles(t *testing.T) {
	data := randBytes(2, 1<<18)
	chunks, err := Split(data, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	var whole []byte
	for _, c := range chunks {
		whole = append(whole, c...)
	}
	if !bytes.Equal(whole, data) {
		t.Fatal("concatenated chunks differ from input")
	}
}

func TestSplitBounds(t *testing.T) {
	cfg := smallCfg()
	chunks, err := Split(randBytes(3, 1<<18), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range chunks {
		if len(c) > cfg.Max {
			t.Fatalf("chunk %d size %d exceeds max %d", i, len(c), cfg.Max)
		}
		if len(c) < cfg.Min && i != len(chunks)-1 {
			t.Fatalf("non-final chunk %d size %d below min %d", i, len(c), cfg.Min)
		}
	}
}

func TestSplitDeterministic(t *testing.T) {
	data := randBytes(4, 1<<16)
	a, _ := Split(data, smallCfg())
	b, _ := Split(data, smallCfg())
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("chunk %d differs between runs", i)
		}
	}
}

func TestSplitAverageSize(t *testing.T) {
	// For random data, the mean chunk size should be near 2^AvgBits + Min
	// (boundary is a geometric trial beyond the minimum). At DEBAR's
	// parameters 16 MiB gives ~1 600 chunks, so ±10 % is about five
	// standard errors.
	cfg := Config{}.withDefaults()
	data := randBytes(5, 16<<20)
	chunks, _ := Split(data, cfg)
	avg := float64(len(data)) / float64(len(chunks))
	expected := float64(int(1)<<cfg.AvgBits + cfg.Min)
	if avg < 0.9*expected || avg > 1.1*expected {
		t.Fatalf("average chunk size %.0f more than 10%% from expected %.0f", avg, expected)
	}
}

func TestShiftResistance(t *testing.T) {
	// Inserting one byte at the front must leave most chunk boundaries
	// intact — the motivation for CDC over fixed blocking (paper §3.2).
	cfg := smallCfg()
	data := randBytes(6, 1<<18)
	orig, _ := Split(data, cfg)
	shifted, _ := Split(append([]byte{0xFF}, data...), cfg)

	set := make(map[string]bool, len(orig))
	for _, c := range orig {
		set[string(c)] = true
	}
	common := 0
	for _, c := range shifted {
		if set[string(c)] {
			common++
		}
	}
	if common*2 < len(orig) {
		t.Fatalf("only %d/%d chunks survive a one-byte shift", common, len(orig))
	}

	// Fixed blocking, by contrast, loses (almost) everything.
	forig, _ := FixedSplit(data, 256)
	fshift, _ := FixedSplit(append([]byte{0xFF}, data...), 256)
	fset := make(map[string]bool, len(forig))
	for _, c := range forig {
		fset[string(c)] = true
	}
	fcommon := 0
	for _, c := range fshift {
		if fset[string(c)] {
			fcommon++
		}
	}
	if fcommon*4 > len(forig) {
		t.Fatalf("fixed blocking unexpectedly shift-resistant: %d/%d", fcommon, len(forig))
	}
}

func TestAllZerosRespectsMax(t *testing.T) {
	// An all-zero stream never anchors (see gearSeed), so every chunk is
	// forced at Max: the pathological case the bound exists for.
	cfg := smallCfg()
	chunks, _ := Split(make([]byte, 10*1024), cfg)
	for i, c := range chunks[:len(chunks)-1] {
		if len(c) != cfg.Max {
			t.Fatalf("zero-stream chunk %d size %d, want max %d", i, len(c), cfg.Max)
		}
	}
}

func TestConstantRunsCutAtMax(t *testing.T) {
	// A run of any one byte value settles at h = -gear[b], whose top byte
	// gearSeed keeps non-zero: no constant run may anchor before Max.
	for _, k := range []uint{8, 13} {
		cfg := Config{AvgBits: k, Min: 64, Max: 1024}
		for b := 0; b < 256; b++ {
			chunks, err := Split(bytes.Repeat([]byte{byte(b)}, 4*cfg.Max+1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range chunks[:len(chunks)-1] {
				if len(c) != cfg.Max {
					t.Fatalf("AvgBits %d, run of %#02x: chunk %d size %d, want max %d", k, b, i, len(c), cfg.Max)
				}
			}
		}
	}
}

// TestDefaultBoundariesPinned fixes where DEBAR's default parameters cut a
// known stream. Changing the gear table, its seed or the cut rule moves
// every boundary, so every fingerprint changes and the first backup of
// each job after the upgrade re-sends and re-stores all of its data; such
// a change must be deliberate, and then this constant is updated.
func TestDefaultBoundariesPinned(t *testing.T) {
	const want = "a413bb3debe641c2b515eb5c74add345ff5ac1049f004fd5bb9e9dfd506d99f4"
	chunks, err := Split(randBytes(10, 4<<20), Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var off uint64
	for _, c := range chunks {
		off += uint64(len(c))
		h.Write(binary.LittleEndian.AppendUint64(nil, off))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("default cut offsets hash to %s, want %s (%d chunks)", got, want, len(chunks))
	}
}

// collect chunks r through a fresh Chunker, recycling one buffer across
// AppendNext calls when recycle is set, and checks offsets as it goes.
func collect(t testing.TB, r io.Reader, cfg Config, recycle bool) [][]byte {
	t.Helper()
	c, err := New(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return drain(t, c, recycle)
}

// drain reads c to EOF, checking offsets, and returns copies of the chunks.
func drain(t testing.TB, c *Chunker, recycle bool) [][]byte {
	t.Helper()
	var out [][]byte
	var buf []byte
	var off int64
	for {
		var ch Chunk
		var err error
		if recycle {
			ch, err = c.AppendNext(buf[:0])
		} else {
			ch, err = c.Next()
		}
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if ch.Offset != off {
			t.Fatalf("chunk %d offset %d, want %d", len(out), ch.Offset, off)
		}
		off += int64(len(ch.Data))
		out = append(out, bytes.Clone(ch.Data))
		buf = ch.Data
	}
}

func equalChunks(t testing.TB, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d chunks, Split produced %d", what, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: chunk %d differs from Split", what, i)
		}
	}
}

func TestStreamingMatchesSplit(t *testing.T) {
	// The second config's chunks are larger than the default read buffer.
	for _, tc := range []struct {
		cfg  Config
		size int
	}{
		{smallCfg(), 1 << 19},
		{Config{AvgBits: 20, Min: 64, Max: 1 << 20}, 3 << 20},
	} {
		data := randBytes(7, tc.size)
		want, _ := Split(data, tc.cfg)
		equalChunks(t, "streaming", collect(t, bytes.NewReader(data), tc.cfg, false), want)
	}
}

func TestStreamingSmallReads(t *testing.T) {
	// One-byte reads through iotest-style reader must not change chunking.
	data := randBytes(8, 1<<16)
	want, _ := Split(data, smallCfg())
	equalChunks(t, "1-byte reads", collect(t, oneByteReader{bytes.NewReader(data)}, smallCfg(), false), want)
}

func TestStreamingEmptyReads(t *testing.T) {
	// A (0, nil) read means nothing happened (io.Reader), not failure.
	data := randBytes(12, 1<<14)
	want, _ := Split(data, smallCfg())
	r := &stutterReader{r: bytes.NewReader(data)}
	equalChunks(t, "empty reads", collect(t, r, smallCfg(), false), want)

	// A reader that never makes progress still fails, after a bound.
	c, _ := New(&stutterReader{r: bytes.NewReader(data), stuck: true}, smallCfg())
	if _, err := c.Next(); !errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("Next on a stuck reader = %v, want io.ErrNoProgress", err)
	}
}

type oneByteReader struct{ r io.Reader }

func (o oneByteReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

// stutterReader alternates (0, nil) with 1-byte reads, or returns only
// (0, nil) when stuck.
type stutterReader struct {
	r     io.Reader
	stuck bool
	odd   bool
}

func (s *stutterReader) Read(p []byte) (int, error) {
	s.odd = !s.odd
	if s.stuck || s.odd {
		return 0, nil
	}
	return oneByteReader{s.r}.Read(p)
}

func TestEmptyInput(t *testing.T) {
	chunks, err := Split(nil, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 0 {
		t.Fatalf("empty input produced %d chunks", len(chunks))
	}
	c, _ := New(bytes.NewReader(nil), smallCfg())
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("Next on empty stream = %v, want io.EOF", err)
	}
}

func TestTinyInput(t *testing.T) {
	data := []byte("tiny")
	chunks, err := Split(data, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 1 || !bytes.Equal(chunks[0], data) {
		t.Fatalf("tiny input chunked as %v", chunks)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{
		{Min: 8},                     // min < window
		{Min: 2048, Max: 64},         // max < min
		{Max: 1024},                  // max < default min
		{AvgBits: 7},                 // constant runs could anchor
		{AvgBits: 31},                // beyond the supported range
		{Min: 8, Max: 4, AvgBits: 8}, // several faults at once
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
		if _, err := Split(nil, bad); err == nil {
			t.Errorf("Split accepted %+v", bad)
		}
		if _, err := New(bytes.NewReader(nil), bad); err == nil {
			t.Errorf("New accepted %+v", bad)
		}
	}
	for _, good := range []Config{{}, smallCfg(), {AvgBits: 8, Min: 64, Max: 64}, {AvgBits: 30}} {
		if err := good.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", good, err)
		}
	}
}

func TestFixedSplit(t *testing.T) {
	data := randBytes(9, 1000)
	chunks, err := FixedSplit(data, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 4 {
		t.Fatalf("got %d chunks, want 4", len(chunks))
	}
	if len(chunks[3]) != 1000-3*256 {
		t.Fatalf("tail chunk size %d", len(chunks[3]))
	}
	if _, err := FixedSplit(data, 0); err != ErrBadSize {
		t.Fatalf("FixedSplit(0) err = %v, want ErrBadSize", err)
	}
}

func TestDefaultConfigDebarParameters(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Min != 2*1024 || cfg.Max != 64*1024 || cfg.AvgBits != 13 {
		t.Fatalf("defaults = %+v, want DEBAR's 2KB/64KB/8KB", cfg)
	}
}

// FuzzSplit maps its inputs onto a small valid Config and checks that
// the chunks reassemble the input, respect the bounds, and come out the
// same from Split, from Next over 1-byte reads and from AppendNext with a
// recycled buffer.
func FuzzSplit(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint16(0))
	f.Add(make([]byte, 10<<10), uint8(3), uint16(100))
	f.Add(randBytes(13, 64<<10), uint8(5), uint16(2000))
	f.Fuzz(func(t *testing.T, data []byte, avgBits uint8, minSz uint16) {
		minLen := window + int(minSz)%1024
		cfg := Config{AvgBits: 8 + uint(avgBits)%5, Min: minLen, Max: 4 * minLen}
		chunks, err := Split(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var whole []byte
		for i, c := range chunks {
			if len(c) > cfg.Max || (len(c) < cfg.Min && i != len(chunks)-1) {
				t.Fatalf("chunk %d of %d has %d bytes, bounds [%d, %d]", i, len(chunks), len(c), cfg.Min, cfg.Max)
			}
			whole = append(whole, c...)
		}
		if !bytes.Equal(whole, data) {
			t.Fatal("chunks do not reassemble the input")
		}
		equalChunks(t, "Next over 1-byte reads", collect(t, oneByteReader{bytes.NewReader(data)}, cfg, false), chunks)
		equalChunks(t, "AppendNext, recycled buffer", collect(t, bytes.NewReader(data), cfg, true), chunks)
	})
}

func BenchmarkSplit(b *testing.B) {
	data := randBytes(10, 1<<22)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Split(data, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreaming(b *testing.B) {
	data := randBytes(11, 1<<22)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, _ := New(bytes.NewReader(data), Config{})
		for {
			if _, err := c.Next(); err == io.EOF {
				break
			}
		}
	}
}

// TestAppendNextMatchesNext verifies the buffer-reuse path produces the
// identical chunk stream as the copying path, including when the caller
// recycles one buffer across calls.
func TestAppendNextMatchesNext(t *testing.T) {
	data := randBytes(9, 1<<18)
	cfg := smallCfg()

	want, err := New(bytes.NewReader(data), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(bytes.NewReader(data), cfg)
	if err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, 0, cfg.Max)
	for {
		w, werr := want.Next()
		g, gerr := got.AppendNext(buf[:0])
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("Next err %v vs AppendNext err %v", werr, gerr)
		}
		if werr != nil {
			if werr != io.EOF {
				t.Fatal(werr)
			}
			break
		}
		if w.Offset != g.Offset || !bytes.Equal(w.Data, g.Data) {
			t.Fatalf("chunk at %d differs: %d vs %d bytes", w.Offset, len(w.Data), len(g.Data))
		}
		buf = g.Data // recycle, as the client worker pool does
	}
}

// TestAppendNextGrowsDst checks a too-small dst is reallocated, not
// overrun, and that nil dst behaves like Next.
func TestAppendNextGrowsDst(t *testing.T) {
	data := randBytes(10, 1<<16)
	cfg := smallCfg()
	ch, err := New(bytes.NewReader(data), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var whole []byte
	small := make([]byte, 0, 1)
	for {
		c, err := ch.AppendNext(small[:0])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		whole = append(whole, c.Data...)
	}
	if !bytes.Equal(whole, data) {
		t.Fatal("AppendNext chunks do not reassemble input")
	}
}

// TestResetMatchesNew: one chunker Reset onto each file of a set, as the
// client's reader does, yields exactly the chunks a fresh New per file
// yields, including after a file it abandoned mid-stream, and Reset
// allocates nothing.
func TestResetMatchesNew(t *testing.T) {
	cfg := Config{}
	sizes := []int{0, 1, 3 << 10, 100 << 10, 700 << 10, 200 << 10, 64 << 10, 5}
	const abandoned = 5
	c, err := New(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range sizes {
		data := randBytes(int64(20+i), n)
		if i == abandoned {
			// Abandon the file after one chunk: the next Reset must not
			// carry its buffered bytes over.
			c.Reset(bytes.NewReader(data))
			if _, err := c.Next(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want := collect(t, bytes.NewReader(data), cfg, false)
		c.Reset(bytes.NewReader(data))
		equalChunks(t, fmt.Sprintf("file %d (%d B) after Reset", i, n), drain(t, c, true), want)
	}
	r := bytes.NewReader(nil)
	if n := testing.AllocsPerRun(100, func() { c.Reset(r) }); n != 0 {
		t.Fatalf("Reset allocated %v times, want 0", n)
	}
}
