package proto

import (
	"bytes"
	"io"
	"testing"
)

// FuzzRecv feeds arbitrary bytes to the frame decoder: every codec must
// fail cleanly (or succeed) on any input, never panic or over-read. Seeds
// cover well-formed frames of every tag, plus each raw tag with a
// garbage payload.
func FuzzRecv(f *testing.F) {
	// Every value of allMessages — the zero value and a populated one of
	// each message type — as produced by Send.
	for _, m := range allMessages() {
		var wire bytes.Buffer
		if err := NewConn(nopCloser{&wire}).Send(m); err != nil {
			f.Fatal(err)
		}
		f.Add(wire.Bytes())
	}
	// Raw tag bytes with garbage payloads, through one past the last known
	// tag to cover the unknown-tag error path. Tag 0 is the retired gob
	// frame and tag 2 the retired bitmap verdict frame.
	for tag := byte(0); tag <= tagEndRun+1; tag++ {
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
