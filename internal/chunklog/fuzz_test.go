package chunklog

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"debar/internal/fp"
)

// FuzzWALSegment opens a WAL whose last segment holds one well-framed
// frame around an arbitrary payload: it fuzzes the WAL's decoding of a
// payload into fingerprint and data. (Arbitrary segment bytes, framing
// and header included, are internal/seglog's FuzzSegment.) The open never
// fails. A payload shorter than a fingerprint is a torn tail and replays
// nothing; any other replays as one record, whose fingerprint and data
// Pending, Iterate and ReadChunk return byte for byte.
func FuzzWALSegment(f *testing.F) {
	fpr, data := fixedRecord(0)
	other := fp.FromUint64(1)
	f.Add(append(fpr[:], data...))
	f.Add(fpr[:])
	f.Add(fpr[:fp.Size-1])
	f.Add([]byte{})
	f.Add(append(fpr[:], make([]byte, 1000)...))
	f.Add(append(other[:], data...)) // data of another fingerprint: the server's check, not the log's

	f.Fuzz(func(t *testing.T, payload []byte) {
		dir := t.TempDir()
		frame := binary.BigEndian.AppendUint32(make([]byte, 4), uint32(len(payload)))
		frame = append(frame, payload...)
		binary.BigEndian.PutUint32(frame, crc32.Update(1, castagnoli, frame[4:]))
		if err := os.WriteFile(filepath.Join(dir, segName(1)), append(segHeader(1), frame...), 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenWAL(dir)
		if err != nil {
			t.Fatalf("open of a well-framed WAL: %v", err)
		}
		defer l.Close()
		got := l.Pending()
		if len(payload) < fp.Size {
			if len(got) != 0 {
				t.Fatalf("a %d-byte payload replayed %d records", len(payload), len(got))
			}
			return
		}
		var want fp.FP
		copy(want[:], payload)
		if len(got) != 1 || got[0] != want {
			t.Fatalf("replayed %v, want the one record %s", got, want.Short())
		}
		walked := 0
		if err := l.Iterate(func(r Record) error {
			walked++
			if r.FP != want || !bytes.Equal(r.Data, payload[fp.Size:]) {
				t.Fatalf("walk returned %s with %d bytes, want %s with %d", r.FP.Short(), len(r.Data), want.Short(), len(payload)-fp.Size)
			}
			return nil
		}); err != nil || walked != 1 {
			t.Fatalf("walk of the recovered WAL: %d records, %v", walked, err)
		}
		if b, ok, err := l.ReadChunk(want); err != nil || !ok || !bytes.Equal(b, payload[fp.Size:]) {
			t.Fatalf("ReadChunk = %d bytes, %v, %v", len(b), ok, err)
		}
	})
}
