package seglog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"debar/internal/container"
	"debar/internal/fp"
)

var testFormat = Format{Name: "test", Prefix: "t", Magic: "TEST", Version: 1}

// framePayload is the payload of frame i: 56 bytes, its number first, so
// a frame takes 64 bytes and a segment of fourFrames bytes holds four.
func framePayload(i int) []byte {
	p := bytes.Repeat([]byte{byte(i * 7), 0xA5}, 28)
	binary.BigEndian.PutUint32(p, uint32(i))
	return p
}

const fourFrames = HeaderSize + 4*(FrameHeader+56)

// openTest opens the test log in dir and returns it with the numbers of
// the frames it recovered, in order.
func openTest(dir string, segBytes int64) (*Log, []int, error) {
	var got []int
	l, err := Open(dir, testFormat, segBytes, func(_ Pos, n uint32, p []byte) bool {
		if n != 56 {
			return false
		}
		got = append(got, int(binary.BigEndian.Uint32(p)))
		return true
	})
	return l, got, err
}

// listing returns the sorted names of the files in dir.
func listing(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// copyDir copies the files of src to a new directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for _, name := range listing(t, src) {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

var errCrash = errors.New("simulated crash")

// crashModel drives a log of four-frame segments and tracks what a reopen
// must recover: every frame appended and synced (acked), the segment each
// went to, the segments retired, those a crashed retirement may have left
// live, and the directory listing the last directory sync made durable.
type crashModel struct {
	t        *testing.T
	dir      string
	l        *Log
	acked    []int
	seg      []uint32
	retired  map[uint32]bool
	retiring map[uint32]bool
	synced   []string
}

func (m *crashModel) appendSync(k int) error {
	for range k {
		i := len(m.acked)
		frame := append(make([]byte, FrameHeader), framePayload(i)...)
		p, err := m.l.Append(frame, nil)
		if err != nil {
			return err
		}
		if err := m.l.Sync(); err != nil {
			return err
		}
		m.acked, m.seg = append(m.acked, i), append(m.seg, p.Seg)
	}
	return nil
}

// retire retires the live segments before the last one, and the last one
// too when all is true.
func (m *crashModel) retire(all bool) error {
	last := m.l.Last()
	if all {
		last++
	}
	for id := range last {
		if !m.retired[id] {
			m.retiring[id] = true
		}
	}
	if err := m.l.RetireBefore(last); err != nil {
		return err
	}
	for id := range m.retiring {
		m.retired[id] = true
	}
	clear(m.retiring)
	return nil
}

// scenario passes every step of rotation and recycling: new segments,
// a retirement of every segment, spares reused, a new segment once they
// run out, and a retirement of the sealed segments only.
func (m *crashModel) scenario() error {
	steps := []func() error{
		func() error { return m.appendSync(10) },
		func() error { return m.retire(true) },
		func() error { return m.appendSync(10) },
		func() error { return m.appendSync(3) },
		func() error { return m.retire(false) },
		func() error { return m.appendSync(5) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// check verifies the frames a reopened log recovered: in append order,
// every acked frame of a segment not retired, and besides those only
// frames of segments a crashed retirement may have left live.
func (m *crashModel) check(t *testing.T, got []int) {
	t.Helper()
	held := make(map[int]bool)
	for k, i := range got {
		switch {
		case i >= len(m.acked):
			t.Fatalf("recovered frame %d, never acked", i)
		case k > 0 && i <= got[k-1]:
			t.Fatalf("recovered frame %d out of order", i)
		case m.retired[m.seg[i]]:
			t.Fatalf("recovered frame %d of retired segment %d", i, m.seg[i])
		}
		held[i] = true
	}
	for i := range m.acked {
		if !m.retired[m.seg[i]] && !m.retiring[m.seg[i]] && !held[i] {
			t.Fatalf("acked frame %d of live segment %d lost", i, m.seg[i])
		}
	}
}

// variants returns how a crash at step can leave dir: as it is, and each
// way the step's unsynced writes can be lost — the names created or
// renamed since the last directory sync, or the header of a reused spare.
func (m *crashModel) variants(step string) map[string]func(t *testing.T, snap string) {
	asIs := func(*testing.T, string) {}
	switch step {
	case "sealed":
		return map[string]func(*testing.T, string){"persisted": asIs}
	case "header":
		// The spare being reused: lost, its header names another number
		// again.
		name := m.l.name(m.l.free[0].seq)
		return map[string]func(*testing.T, string){"persisted": asIs, "lost": func(t *testing.T, snap string) {
			f, err := os.OpenFile(filepath.Join(snap, name), os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, err = f.WriteAt(make([]byte, 8), 8)
			if err = errors.Join(err, f.Close()); err != nil {
				t.Fatal(err)
			}
		}}
	}
	now := listing(m.t, m.dir)
	var gone, came []string
	for _, n := range m.synced {
		if !slices.Contains(now, n) {
			gone = append(gone, n)
		}
	}
	for _, n := range now {
		if !slices.Contains(m.synced, n) {
			came = append(came, n)
		}
	}
	return map[string]func(*testing.T, string){"persisted": asIs, "lost": func(t *testing.T, snap string) {
		for i, n := range came {
			var err error
			if i < len(gone) {
				err = os.Rename(filepath.Join(snap, n), filepath.Join(snap, gone[i]))
			} else {
				err = os.Remove(filepath.Join(snap, n)) // created, never renamed
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}}
}

// TestCrashPoints crashes a log of small segments at every step of
// rotation and recycling — after sealing a segment, after creating a new
// file, after each rename that retires a segment, after rewriting a reused
// spare's header, and at each directory sync — with each write the step
// has not synced yet on disk or lost. Every crash state reopens without
// losing an acked frame or recovering a retired or stale one, and the
// reopened log keeps appending and recovering.
func TestCrashPoints(t *testing.T) {
	newModel := func() *crashModel {
		m := &crashModel{t: t, dir: t.TempDir(), retired: map[uint32]bool{}, retiring: map[uint32]bool{}}
		var err error
		if m.l, _, err = openTest(m.dir, fourFrames); err != nil {
			t.Fatal(err)
		}
		m.synced = listing(t, m.dir)
		return m
	}
	// A dry run names every point the scenario passes.
	var points []string
	dry := newModel()
	dry.l.SetFaults(Faults{
		Step: func(step string) error { points = append(points, step); return nil },
		Dir:  func() error { points = append(points, "dirsync"); return nil },
	})
	if err := dry.scenario(); err != nil {
		t.Fatal(err)
	}
	if err := dry.l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sealed", "created", "renamed", "header", "dirsync"} {
		if !slices.Contains(points, want) {
			t.Fatalf("scenario never reaches %q (%v)", want, points)
		}
	}

	for k, point := range points {
		m := newModel()
		seen := 0
		var snap string
		var variants map[string]func(*testing.T, string)
		crash := func(step string) error {
			if seen++; seen-1 != k {
				if step == "dirsync" {
					m.synced = listing(t, m.dir)
				}
				return nil
			}
			snap, variants = copyDir(t, m.dir), m.variants(step)
			return errCrash
		}
		m.l.SetFaults(Faults{Step: crash, Dir: func() error { return crash("dirsync") }})
		if err := m.scenario(); !errors.Is(err, errCrash) {
			t.Fatalf("point %d (%s): scenario returned %v, want the crash", k, point, err)
		}
		m.l.SetFaults(Faults{})
		if err := m.l.Close(); err != nil {
			t.Fatal(err)
		}
		for name, mutate := range variants {
			t.Run(fmt.Sprintf("%02d-%s-%s", k, point, name), func(t *testing.T) {
				dir := copyDir(t, snap)
				mutate(t, dir)
				l, got, err := openTest(dir, fourFrames)
				if err != nil {
					t.Fatalf("reopen after the crash: %v", err)
				}
				m.check(t, got)
				frame := append(make([]byte, FrameHeader), framePayload(len(m.acked))...)
				if _, err := l.Append(frame, nil); err != nil {
					t.Fatal(err)
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				l2, again, err := openTest(dir, fourFrames)
				if err != nil {
					t.Fatal(err)
				}
				defer l2.Close()
				if want := append(slices.Clone(got), len(m.acked)); !slices.Equal(again, want) {
					t.Fatalf("second reopen recovered %v, want %v", again, want)
				}
			})
		}
	}
}

// FuzzSegment opens a log whose one segment is arbitrary bytes, header
// included, first as its last segment and then as a sealed one, in front
// of an empty last segment; the odd kinds read the segment as the
// container log does, by container headers. Neither open panics. A
// recovered last segment is truncated to its valid prefix, and reopening
// recovers the same frames. As a sealed segment, the bytes open, with the
// same frames, when they recovered whole as the last one; and, unless
// read by container headers alone (sealed frames unchecksummed), only
// then.
func FuzzSegment(f *testing.F) {
	seg := func(frames ...[]byte) []byte {
		b := binary.BigEndian.AppendUint32([]byte(testFormat.Magic), testFormat.Version)
		b = binary.BigEndian.AppendUint64(b, 1)
		for _, p := range frames {
			frame := binary.BigEndian.AppendUint32(make([]byte, 4), uint32(len(p)))
			frame = append(frame, p...)
			binary.BigEndian.PutUint32(frame, crc32.Update(1, castagnoli, frame[4:]))
			b = append(b, frame...)
		}
		return b
	}
	valid := seg(framePayload(0), framePayload(1), []byte{}, framePayload(3))
	f.Add(byte(0), valid)
	f.Add(byte(0), valid[:len(valid)-7])
	f.Add(byte(0), valid[:HeaderSize])
	f.Add(byte(0), valid[:9])
	f.Add(byte(0), []byte{})
	stale := slices.Clone(valid)
	stale[15]++ // the header names another sequence number: a spare
	f.Add(byte(0), stale)
	w := container.NewWriter(1<<10, false)
	for i := range 3 {
		data := bytes.Repeat([]byte{byte(i)}, 16)
		w.Add(fp.New(data), 16, data)
	}
	img := w.Seal(7).Marshal()
	f.Add(byte(1), seg(img, img[:len(img)-1]))
	f.Add(byte(1), seg(img))

	f.Fuzz(func(t *testing.T, kind byte, b []byte) {
		format := testFormat
		visit := func(n uint32, p []byte) bool { return len(p) == int(n) }
		if kind%2 == 1 {
			format.Peek = container.HeaderSize
			visit = func(n uint32, p []byte) bool {
				h, err := container.ParseHeader(p)
				return err == nil && h.RecordLen() == int64(n)
			}
		}
		type frame struct {
			Pos
			n uint32
		}
		open := func(dir string) ([]frame, error) {
			var got []frame
			l, err := Open(dir, format, 1<<20, func(p Pos, n uint32, payload []byte) bool {
				ok := visit(n, payload)
				if ok {
					got = append(got, frame{p, n})
				}
				return ok
			})
			if err == nil {
				err = l.Close()
			}
			return got, err
		}
		name := fmt.Sprintf("t-%016d.log", 1)
		header := binary.BigEndian.AppendUint32([]byte(testFormat.Magic), testFormat.Version)
		live := bytes.HasPrefix(b, binary.BigEndian.AppendUint64(slices.Clone(header), 1))

		last := t.TempDir()
		if err := os.WriteFile(filepath.Join(last, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := open(last)
		whole := false
		if err == nil && live {
			after, err := os.ReadFile(filepath.Join(last, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(b, after) || len(after) < HeaderSize {
				t.Fatalf("recovery rewrote the segment: %d bytes -> %d", len(b), len(after))
			}
			whole = len(after) == len(b)
			again, err := open(last)
			if err != nil {
				t.Fatalf("second open of a recovered log: %v", err)
			}
			if !slices.Equal(again, got) {
				t.Fatalf("second open recovered %v, the first %v", again, got)
			}
		}

		sealed := t.TempDir()
		if err := os.WriteFile(filepath.Join(sealed, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sealed, fmt.Sprintf("t-%016d.log", 2)), binary.BigEndian.AppendUint64(header, 2), 0o644); err != nil {
			t.Fatal(err)
		}
		got2, err := open(sealed)
		switch {
		case whole && err != nil:
			t.Fatalf("a whole segment refused as a sealed one: %v", err)
		case !whole && err == nil && format.Peek == 0:
			t.Fatalf("a damaged sealed segment opened, recovering %v", got2)
		case whole && !slices.Equal(got2, got):
			t.Fatalf("sealed segment recovered %v, the last one %v", got2, got)
		}
	})
}

// appendFrames appends and syncs the frames numbered lo to hi-1.
func appendFrames(t *testing.T, l *Log, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if _, err := l.Append(append(make([]byte, FrameHeader), framePayload(i)...), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestSpareNeverRevivesFrames: a retired segment is a spare — its rename
// keeps the header naming its old number — though it still holds frames
// checksummed under that number. Opening over it recovers none of them,
// and reusing it under a new number keeps them invalid: after the spare
// takes one new frame, a reopen recovers that frame alone. A live
// segment whose header names another number over frames valid under its
// own is no spare: its open is refused, and the file left as it is.
func TestSpareNeverRevivesFrames(t *testing.T) {
	dir := t.TempDir()
	l, _, err := openTest(dir, fourFrames)
	if err != nil {
		t.Fatal(err)
	}
	appendFrames(t, l, 0, 3)

	damaged := copyDir(t, dir)
	path := filepath.Join(damaged, l.name(1))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[15] ^= 0xFF // the header names another number
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if l, _, err := openTest(damaged, fourFrames); !errors.As(err, &ce) {
		if err == nil {
			l.Close()
		}
		t.Fatalf("open over a live segment naming another number = %v, want *CorruptError", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, b) || !slices.Equal(listing(t, damaged), []string{l.name(1)}) {
		t.Fatalf("refused open changed the log (err %v)", err)
	}

	// Retire the segment and crash before the spare is reused.
	var retired string
	l.SetFaults(Faults{Step: func(step string) error {
		if step != "renamed" {
			return nil
		}
		retired = copyDir(t, dir)
		return errCrash
	}})
	if err := l.RetireBefore(l.Last() + 1); !errors.Is(err, errCrash) {
		t.Fatalf("RetireBefore = %v, want the crash", err)
	}
	l.SetFaults(Faults{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if names := listing(t, retired); !slices.Equal(names, []string{l.name(2)}) {
		t.Fatalf("retirement left %v, want the spare %s", names, l.name(2))
	}
	l, got, err := openTest(retired, fourFrames)
	if err != nil || len(got) != 0 {
		t.Fatalf("open over a spare = %v, %v; want no frames", got, err)
	}
	appendFrames(t, l, 10, 11)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, got, err = openTest(retired, fourFrames)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !slices.Equal(got, []int{10}) {
		t.Fatalf("reopen recovered %v, want only the frame appended to the reused spare", got)
	}
}

// TestRecycledSegmentSealsExact: a reused spare still holds its earlier
// life's frames past the new ones. Sealing it truncates them, so the
// sealed segment parses exactly to its end and the log reopens.
func TestRecycledSegmentSealsExact(t *testing.T) {
	dir := t.TempDir()
	l, _, err := openTest(dir, fourFrames)
	if err != nil {
		t.Fatal(err)
	}
	appendFrames(t, l, 0, 5) // a full segment and one frame in the next
	if err := l.RetireBefore(l.Last() + 1); err != nil {
		t.Fatal(err)
	}
	appendFrames(t, l, 5, 7) // into the reused first segment, over half its old frames
	big := append(make([]byte, FrameHeader+56), make([]byte, 200)...)
	binary.BigEndian.PutUint32(big[FrameHeader:], 7)
	if _, err := l.Append(big, nil); err != nil { // does not fit: seals the reused segment
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []int
	l, err = Open(dir, testFormat, fourFrames, func(_ Pos, _ uint32, p []byte) bool {
		got = append(got, int(binary.BigEndian.Uint32(p)))
		return true
	})
	if err != nil {
		t.Fatalf("reopen after sealing a reused spare: %v", err)
	}
	defer l.Close()
	if !slices.Equal(got, []int{5, 6, 7}) {
		t.Fatalf("reopen recovered %v, want [5 6 7]", got)
	}
}
