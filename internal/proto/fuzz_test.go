package proto

import (
	"bytes"
	"io"
	"testing"
)

// FuzzRecv feeds arbitrary bytes to the frame decoder: every binary codec
// and the gob fallback must fail cleanly (or succeed) on any input, never
// panic or over-read. Seeds cover each tag with both empty and structured
// payloads.
func FuzzRecv(f *testing.F) {
	// One well-formed frame per message kind, as produced by Send.
	seeds := []any{
		FPBatch{SessionID: 1, Seq: 2, FPs: nil, Sizes: nil},
		FPVerdicts{Seq: 3, Verdicts: []Verdict{VerdictSend, VerdictSkipDuplicate, VerdictSend}},
		ChunkBatch{SessionID: 4, Data: [][]byte{[]byte("abc")}},
		Ack{OK: true, Err: "x"},
		RestoreBegin{Entry: FileEntry{Path: "a/b", Size: 3, Sizes: []uint32{3}}, BatchChunks: 8, Window: 2},
		RestoreChunkBatch{Seq: 5, Data: [][]byte{[]byte("abc"), []byte("")}},
		RestoreAck{Seq: 6},
		RestoreDone{Chunks: 1, Bytes: 3},
	}
	for _, m := range seeds {
		var wire bytes.Buffer
		conn := NewConn(nopCloser{&wire})
		if err := conn.Send(m); err != nil {
			f.Fatal(err)
		}
		f.Add(wire.Bytes())
	}
	// Raw tag bytes with garbage payloads (one past the last known tag to
	// cover the unknown-tag error path).
	for tag := byte(0); tag <= tagFPVerdicts2+1; tag++ {
		f.Add([]byte{tag, 0, 0, 0, 4, 1, 2, 3, 4})
	}
	// A well-formed frame of the retired version-1 bitmap verdict form:
	// tag 2 is reserved and decodes as unknown.
	f.Add([]byte{2, 0, 0, 0, 13, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 3, 5})

	f.Fuzz(func(t *testing.T, raw []byte) {
		c := NewConn(nopCloser{struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(raw), io.Discard}})
		for {
			if _, err := c.Recv(); err != nil {
				return // clean error: truncated, corrupt, or EOF
			}
		}
	})
}
