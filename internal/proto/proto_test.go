package proto

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"

	"debar/internal/fp"
)

// pipeConn adapts an in-memory duplex pipe to io.ReadWriteCloser.
type pipeConn struct {
	r *io.PipeReader
	w *io.PipeWriter
}

func (p pipeConn) Read(b []byte) (int, error)  { return p.r.Read(b) }
func (p pipeConn) Write(b []byte) (int, error) { return p.w.Write(b) }
func (p pipeConn) Close() error                { p.r.Close(); return p.w.Close() }

func pipePair() (*Conn, *Conn) {
	ar, bw := io.Pipe()
	br, aw := io.Pipe()
	return NewConn(pipeConn{ar, aw}), NewConn(pipeConn{br, bw})
}

func TestRoundTripAllMessages(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()

	entry := FileEntry{
		Path:   "dir/file.bin",
		Mode:   0o644,
		Size:   12345,
		Chunks: []fp.FP{fp.FromUint64(1), fp.FromUint64(2)},
		Sizes:  []uint32{8000, 4345},
	}
	msgs := []any{
		BackupStart{JobName: "j", Client: "c"},
		BackupStart{JobName: "j", Client: "c", Version: ProtocolVersion, Caps: CapInlineDedup},
		BackupStartOK{SessionID: 7},
		BackupStartOK{SessionID: 7, Version: ProtocolVersion, Caps: CapInlineDedup},
		FPBatch{SessionID: 7, FPs: []fp.FP{fp.FromUint64(9)}, Sizes: []uint32{100}},
		FPVerdicts{Verdicts: []Verdict{VerdictSend, VerdictSkipDuplicate}},
		ChunkBatch{SessionID: 7, FPs: []fp.FP{fp.FromUint64(9)}, Data: [][]byte{[]byte("xyz")}},
		Ack{OK: true},
		Ack{OK: false, Err: "boom"},
		FileMeta{SessionID: 7, Entry: entry},
		BackupEnd{SessionID: 7},
		BackupDone{LogicalBytes: 1, TransferredBytes: 2, NewFingerprints: 3, InlineSkippedBytes: 4},
		RestoreFile{JobName: "j", Path: "p", BatchChunks: 128, Window: 2},
		RestoreMeta{JobName: "j", Path: "p"},
		RestoreBegin{Entry: entry, BatchChunks: 256, Window: 4},
		RestoreChunkBatch{Seq: 3, Data: [][]byte{[]byte("xyz"), []byte("q")}},
		RestoreAck{Seq: 3},
		RestoreDone{Chunks: 2, Bytes: 4},
		RestoreDone{Err: "boom"},
		ListFiles{JobName: "j"},
		FileList{Paths: []string{"a", "b"}},
		Dedup2Request{RunSIU: true},
		Dedup2Done{NewChunks: 5, DupChunks: 6, Containers: 7},
		RegisterServer{Addr: ":1"},
		RegisterOK{ServerID: 3},
		PutFileIndex{JobName: "j", RunID: 2, Entry: entry},
		GetJobFiles{JobName: "j"},
		JobFiles{RunID: 2, Entries: []FileEntry{entry}},
		GetFilterFPs{JobName: "j"},
		FilterFPs{FPs: []fp.FP{fp.FromUint64(1)}},
		NewRun{JobName: "j", Client: "c"},
		NewRunOK{RunID: 9},
	}

	done := make(chan error, 1)
	go func() {
		for range msgs {
			got, err := b.Recv()
			if err != nil {
				done <- err
				return
			}
			if err := b.Send(got); err != nil { // echo back
				done <- err
				return
			}
		}
		done <- nil
	}()

	for _, m := range msgs {
		if err := a.Send(m); err != nil {
			t.Fatal(err)
		}
		echo, err := a.Recv()
		if err != nil {
			t.Fatal(err)
		}
		switch want := m.(type) {
		case ChunkBatch:
			got := echo.(ChunkBatch)
			if got.SessionID != want.SessionID || !bytes.Equal(got.Data[0], want.Data[0]) {
				t.Fatalf("ChunkBatch round trip: %+v", got)
			}
		case FileMeta:
			got := echo.(FileMeta)
			if got.Entry.Path != want.Entry.Path || len(got.Entry.Chunks) != 2 {
				t.Fatalf("FileMeta round trip: %+v", got)
			}
		default:
			// Comparable structs compare directly.
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestBinaryCodecRoundTrip exercises the hand-rolled binary codecs
// (tags 1–5) edge cases the generic echo test doesn't reach.
func TestBinaryCodecRoundTrip(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()

	var fps []fp.FP
	var sizes []uint32
	var data [][]byte
	for i := 0; i < 300; i++ { // >256: multi-byte verdict packing, big batch
		fps = append(fps, fp.FromUint64(uint64(i)))
		sizes = append(sizes, uint32(i*7))
		data = append(data, bytes.Repeat([]byte{byte(i)}, i%97))
	}
	verdicts := make([]Verdict, 300)
	for i := range verdicts {
		if i%3 == 0 {
			verdicts[i] = VerdictSend
		} else {
			verdicts[i] = VerdictSkipDuplicate
		}
	}

	msgs := []any{
		FPBatch{SessionID: 5, Seq: 42, FPs: fps, Sizes: sizes},
		FPBatch{SessionID: 5, Seq: 43},          // empty batch
		FPVerdicts{Seq: 42, Verdicts: verdicts}, // >256: multi-byte 2-bit packing
		FPVerdicts{Seq: 43, Verdicts: []Verdict{}},
		ChunkBatch{SessionID: 5, FPs: fps, Data: data},
		ChunkBatch{SessionID: 5},
		Ack{OK: true},
		Ack{OK: false, Err: "some failure"},
		RestoreBegin{
			Entry: FileEntry{Path: "a/b", Mode: 0o600, Size: 9,
				Chunks: fps[:2], Sizes: sizes[:2]},
			BatchChunks: 256, Window: 4,
		},
		RestoreBegin{}, // all-zero entry
		RestoreChunkBatch{Seq: 7, Data: data},
		RestoreChunkBatch{Seq: 8},
		RestoreAck{Seq: 7},
		RestoreAck{},
	}

	go func() {
		for range msgs {
			m, err := b.Recv()
			if err != nil {
				t.Error(err)
				return
			}
			if err := b.Send(m); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for _, want := range msgs {
		if err := a.Send(want); err != nil {
			t.Fatal(err)
		}
		got, err := a.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalize(got), normalize(want)) {
			t.Fatalf("round trip of %T:\n got %+v\nwant %+v", want, got, want)
		}
	}
}

// normalize maps nil and empty slices onto each other: the binary codecs
// decode an empty list as an empty (non-nil) slice.
func normalize(m any) any {
	switch v := m.(type) {
	case FPBatch:
		if len(v.FPs) == 0 {
			v.FPs, v.Sizes = nil, nil
		}
		return v
	case FPVerdicts:
		if len(v.Verdicts) == 0 {
			v.Verdicts = nil
		}
		return v
	case ChunkBatch:
		if len(v.FPs) == 0 {
			v.FPs, v.Data = nil, nil
		}
		for i, d := range v.Data {
			if len(d) == 0 {
				v.Data[i] = nil
			}
		}
		return v
	case RestoreBegin:
		v.Entry = normEntry(v.Entry)
		return v
	case RestoreChunkBatch:
		if len(v.Data) == 0 {
			v.Data = nil
		}
		for i, d := range v.Data {
			if len(d) == 0 {
				v.Data[i] = nil
			}
		}
		return v
	default:
		return m
	}
}

func normEntry(e FileEntry) FileEntry {
	if len(e.Chunks) == 0 {
		e.Chunks, e.Sizes = nil, nil
	}
	return e
}

// TestTruncatedFrames feeds every prefix of valid frames to a decoder and
// expects a clean error, never a panic.
func TestTruncatedFrames(t *testing.T) {
	msgs := []any{
		FPBatch{SessionID: 1, Seq: 2, FPs: []fp.FP{fp.FromUint64(1)}, Sizes: []uint32{10}},
		FPVerdicts{Seq: 2, Verdicts: []Verdict{VerdictSend, VerdictSkipDuplicate, VerdictSend}},
		ChunkBatch{SessionID: 1, FPs: []fp.FP{fp.FromUint64(1)}, Data: [][]byte{[]byte("abc")}},
		Ack{OK: true, Err: "x"},
		RestoreBegin{Entry: FileEntry{Path: "p", Chunks: []fp.FP{fp.FromUint64(2)}, Sizes: []uint32{3}}, BatchChunks: 1, Window: 1},
		RestoreChunkBatch{Seq: 1, Data: [][]byte{[]byte("abc"), []byte("d")}},
		RestoreAck{Seq: 9},
	}
	for _, m := range msgs {
		var wire bytes.Buffer
		src := NewConn(nopCloser{&wire})
		if err := src.Send(m); err != nil {
			t.Fatal(err)
		}
		full := wire.Bytes()
		for cut := 0; cut < len(full); cut++ {
			r := bytes.NewReader(full[:cut])
			c := NewConn(nopCloser{struct {
				io.Reader
				io.Writer
			}{r, io.Discard}})
			if _, err := c.Recv(); err == nil {
				t.Fatalf("%T truncated at %d of %d bytes decoded without error", m, cut, len(full))
			}
		}
	}
}

// TestCorruptLengthRejected checks the frame-size guard.
func TestCorruptLengthRejected(t *testing.T) {
	frame := []byte{0x01, 0xFF, 0xFF, 0xFF, 0xFF} // 4 GB FPBatch
	c := NewConn(nopCloser{struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(frame), io.Discard}})
	if _, err := c.Recv(); err == nil {
		t.Fatal("4 GB frame accepted")
	}
}

// TestRetiredVerdictTagRejected checks that the reserved tag of the
// retired version-1 bitmap verdict frame decodes as an unknown tag.
func TestRetiredVerdictTagRejected(t *testing.T) {
	frame := []byte{2, 0, 0, 0, 13, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1}
	c := NewConn(nopCloser{struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(frame), io.Discard}})
	if _, err := c.Recv(); err == nil || !strings.Contains(err.Error(), "unknown frame tag") {
		t.Fatalf("tag-2 frame: err = %v, want unknown frame tag", err)
	}
}

type nopCloser struct{ io.ReadWriter }

func (nopCloser) Close() error { return nil }

// TestConcurrentSendRecv drives one conn from decoupled send and receive
// goroutines, as the pipelined client does.
func TestConcurrentSendRecv(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()

	const n = 200
	go func() { // echo peer
		for i := 0; i < n; i++ {
			m, err := b.Recv()
			if err != nil {
				t.Error(err)
				return
			}
			if err := b.Send(m); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			m, err := a.Recv()
			if err != nil {
				t.Error(err)
				return
			}
			if got := m.(FPBatch).Seq; got != uint64(i) {
				t.Errorf("reply %d has seq %d", i, got)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		if err := a.Send(FPBatch{SessionID: 1, Seq: uint64(i), FPs: []fp.FP{fp.FromUint64(uint64(i))}, Sizes: []uint32{1}}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		conn := NewConn(c)
		defer conn.Close()
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		conn.Send(msg)
	}()
	conn, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	want := FPBatch{SessionID: 1, FPs: []fp.FP{fp.FromUint64(42)}, Sizes: []uint32{8192}}
	if err := conn.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	batch, ok := got.(FPBatch)
	if !ok || batch.FPs[0] != want.FPs[0] {
		t.Fatalf("TCP round trip = %+v", got)
	}
}
