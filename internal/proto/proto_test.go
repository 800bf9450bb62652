package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
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

// allMessages returns one zero value and one populated value of every
// message type: every field set, negative integers where the type allows
// them, and a FileEntry whose Sizes list is shorter than its Chunks.
func allMessages() []any {
	entry := FileEntry{
		Path:   "dir/file.bin",
		Mode:   0o644,
		Size:   12345,
		Chunks: []fp.FP{fp.FromUint64(1), fp.FromUint64(2)},
		Sizes:  []uint32{8000, 4345},
	}
	ragged := FileEntry{Path: "x", Chunks: []fp.FP{fp.FromUint64(5)}}
	return []any{
		BackupStart{}, BackupStart{JobName: "j", Client: "c", Version: ProtocolVersion, Caps: CapInlineDedup},
		BackupStartOK{}, BackupStartOK{SessionID: 7, Version: -3, Caps: ^Caps(0)},
		FPBatch{}, FPBatch{SessionID: 7, Seq: 8, FPs: []fp.FP{fp.FromUint64(9)}, Sizes: []uint32{100}},
		FPVerdicts{}, FPVerdicts{Seq: 4, Verdicts: []Verdict{VerdictSend, VerdictSkipDuplicate, VerdictSend}},
		ChunkBatch{}, ChunkBatch{SessionID: 7, FPs: []fp.FP{fp.FromUint64(9)}, Data: [][]byte{[]byte("xyz")}},
		Ack{}, Ack{OK: true}, Ack{Code: CodeReadOnly, Err: "boom"},
		FileMeta{}, FileMeta{SessionID: 7, Entry: entry},
		BackupEnd{}, BackupEnd{SessionID: 7},
		BackupDone{}, BackupDone{LogicalBytes: 1, TransferredBytes: 2, NewFingerprints: 3, InlineSkippedBytes: -4},
		RestoreFile{}, RestoreFile{JobName: "j", Path: "p", BatchChunks: 128, Window: -2, StartChunk: 5},
		RestoreMeta{}, RestoreMeta{JobName: "j", Path: "p"},
		RestoreBegin{}, RestoreBegin{Entry: entry, BatchChunks: 256, Window: 4, StartChunk: 1},
		RestoreChunkBatch{}, RestoreChunkBatch{Seq: 3, Data: [][]byte{[]byte("xyz"), []byte("q")}},
		RestoreAck{}, RestoreAck{Seq: 3},
		RestoreDone{}, RestoreDone{Chunks: 2, Bytes: 4, Err: "boom"},
		ListFiles{}, ListFiles{JobName: "j"},
		FileList{}, FileList{Paths: []string{"a", "", "b"}},
		Dedup2Request{},
		Dedup2Done{}, Dedup2Done{NewChunks: 5, DupChunks: 6, Containers: 7, Err: "boom"},
		RegisterServer{}, RegisterServer{Addr: ":1"},
		RegisterOK{}, RegisterOK{ServerID: 3},
		PutFileIndex{}, PutFileIndex{JobName: "j", RunID: 2, Entry: ragged},
		GetJobFiles{}, GetJobFiles{JobName: "j"},
		JobFiles{}, JobFiles{RunID: 2, Entries: []FileEntry{entry, {}, ragged}},
		GetFilterFPs{}, GetFilterFPs{JobName: "j"},
		FilterFPs{}, FilterFPs{FPs: []fp.FP{fp.FromUint64(1), fp.FromUint64(2)}},
		NewRun{}, NewRun{JobName: "j", Client: "c"},
		NewRunOK{}, NewRunOK{RunID: 9},
		EndRun{}, EndRun{JobName: "j", RunID: 2},
	}
}

// TestRoundTripAllMessages sends every message type through an echo peer,
// as a zero value and populated, and requires it back unchanged. It also
// checks that the list covers every frame tag.
func TestRoundTripAllMessages(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()

	msgs := allMessages()
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

	for _, want := range msgs {
		if err := a.Send(want); err != nil {
			t.Fatalf("send %T: %v", want, err)
		}
		got, err := a.Recv()
		if err != nil {
			t.Fatalf("recv %T: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip of %T:\n got %+v\nwant %+v", want, got, want)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	covered := map[byte]bool{}
	for _, m := range msgs {
		covered[m.(encoder).encode(&enc{})] = true
	}
	for tag, d := range decoders {
		if d != nil && !covered[byte(tag)] {
			t.Errorf("tag %d has a decoder but no message in allMessages", tag)
		}
	}
}

// TestMarshalIsFrameWithoutLength pins that a record is exactly the
// frame Send writes minus its length field, and that Unmarshal returns
// every message unchanged. It also pins Unmarshal's refusals: an empty
// record, an unknown or retired tag, trailing bytes.
func TestMarshalIsFrameWithoutLength(t *testing.T) {
	for _, m := range allMessages() {
		rec, err := Marshal(m)
		if err != nil {
			t.Fatalf("Marshal(%T): %v", m, err)
		}
		var wire bytes.Buffer
		if err := NewConn(nopCloser{&wire}).Send(m); err != nil {
			t.Fatal(err)
		}
		frame := wire.Bytes()
		if want := append([]byte{frame[0]}, frame[5:]...); !bytes.Equal(rec, want) {
			t.Fatalf("Marshal(%T) = %x, want the frame without its length %x", m, rec, want)
		}
		got, err := Unmarshal(rec)
		if err != nil || !reflect.DeepEqual(got, m) {
			t.Fatalf("Unmarshal(Marshal(%T)) = %+v, %v", m, got, err)
		}
	}
	if _, err := Marshal(struct{ X int }{1}); err == nil {
		t.Fatal("Marshal of a non-protocol value succeeded")
	}
	rec, _ := Marshal(EndRun{JobName: "j", RunID: 1})
	for _, bad := range [][]byte{nil, {tagLegacyGob}, {2}, {tagEndRun + 1}, append(rec, 0)} {
		if m, err := Unmarshal(bad); err == nil {
			t.Fatalf("Unmarshal(%x) = %+v, want an error", bad, m)
		}
	}
}

// TestSendRefusesWrappedLength pins that an encoder never wraps a length
// field. A FileEntry path of 64 KiB or more does not fit its 2-byte
// length; written with the length wrapped, the frame would decode as a
// different entry. Send must refuse such a frame and write nothing.
func TestSendRefusesWrappedLength(t *testing.T) {
	long := FileEntry{Path: strings.Repeat("p", 70000), Chunks: []fp.FP{fp.FromUint64(1)}, Sizes: []uint32{1}}
	for _, m := range []any{
		FileMeta{SessionID: 1, Entry: long},
		RestoreBegin{Entry: long, BatchChunks: 1, Window: 1},
		PutFileIndex{JobName: "j", RunID: 1, Entry: long},
		JobFiles{RunID: 1, Entries: []FileEntry{long}},
	} {
		var wire bytes.Buffer
		err := NewConn(nopCloser{&wire}).Send(m)
		if err == nil || !strings.Contains(err.Error(), "does not fit") {
			t.Errorf("Send(%T with a 70000-byte path) = %v, want a length-field error", m, err)
		}
		if wire.Len() != 0 {
			t.Errorf("Send(%T) wrote %d bytes for a refused frame", m, wire.Len())
		}
	}
	// The largest path that fits still round-trips.
	edge := FileMeta{SessionID: 1, Entry: FileEntry{Path: strings.Repeat("p", 65535)}}
	var wire bytes.Buffer
	c := NewConn(nopCloser{&wire})
	if err := c.Send(edge); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil || !reflect.DeepEqual(got, edge) {
		t.Fatalf("65535-byte path: err %v, equal %v", err, reflect.DeepEqual(got, edge))
	}
}

// TestLegacyGobFrame: a tag-0 frame, the gob control frame of a peer at
// protocol version 3 or older, is skipped undecoded and reported as
// ErrLegacyFrame; the frame after it still decodes.
func TestLegacyGobFrame(t *testing.T) {
	var wire bytes.Buffer
	wire.Write([]byte{0, 0, 0, 0, 6, 0x2a, 0xff, 0x81, 0x03, 0x01, 0x01}) // gob-looking garbage
	c := NewConn(nopCloser{&wire})
	if err := c.Send(RestoreAck{Seq: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recv(); !errors.Is(err, ErrLegacyFrame) {
		t.Fatalf("tag-0 frame: err = %v, want ErrLegacyFrame", err)
	}
	if m, err := c.Recv(); err != nil || m != (RestoreAck{Seq: 5}) {
		t.Fatalf("frame after the legacy frame = %+v, %v", m, err)
	}
	if ack := LegacyRefusal(); ack.OK || ack.Code != CodeUnsupportedVersion || !strings.Contains(ack.Err, "need 4") {
		t.Fatalf("LegacyRefusal() = %+v", ack)
	}
}

// TestSendRejectsNonMessage: only protocol message types have a frame.
func TestSendRejectsNonMessage(t *testing.T) {
	if err := NewConn(nopCloser{&bytes.Buffer{}}).Send(struct{ X int }{1}); err == nil {
		t.Fatal("Send of a non-protocol value succeeded")
	}
}

// TestBinaryCodecRoundTrip exercises data-path codec edge cases the
// generic echo test doesn't reach: 300-entry batches, empty batches and
// empty chunks.
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
// expects a clean error, never a panic: first the raw prefix (the stream
// ends mid-frame), then the payload prefix behind a header that claims
// exactly its length (the codec itself must notice the missing bytes).
func TestTruncatedFrames(t *testing.T) {
	recv := func(frame []byte) error {
		c := NewConn(nopCloser{struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(frame), io.Discard}})
		_, err := c.Recv()
		return err
	}
	for _, m := range allMessages() {
		var wire bytes.Buffer
		if err := NewConn(nopCloser{&wire}).Send(m); err != nil {
			t.Fatal(err)
		}
		full := wire.Bytes()
		for cut := 0; cut < len(full); cut++ {
			if recv(full[:cut]) == nil {
				t.Fatalf("%T truncated at %d of %d bytes decoded without error", m, cut, len(full))
			}
		}
		if _, isAck := m.(Ack); isAck {
			continue // Ack's message is the rest of the frame: any prefix is an Ack
		}
		for cut := 5; cut < len(full); cut++ {
			frame := append([]byte(nil), full[:cut]...)
			binary.BigEndian.PutUint32(frame[1:], uint32(cut-5))
			if recv(frame) == nil {
				t.Fatalf("%T payload cut to %d of %d bytes decoded without error", m, cut-5, len(full)-5)
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
