package director

import (
	"bytes"
	"path/filepath"
	"testing"

	"debar/internal/fp"
	"debar/internal/metastore"
	"debar/internal/proto"
)

// FuzzJournalRecord pushes arbitrary record bytes through replay: a
// director over a journal that ends in the record either applies it or
// refuses the journal, and never panics. Before the record is appended,
// the journal the live path wrote (with the record's file entry when the
// record decodes as a PutFileIndex) must replay to the same LatestFiles
// and FilterFPs that the live director served.
func FuzzJournalRecord(f *testing.F) {
	entry := proto.FileEntry{Path: "/f", Size: 8, Chunks: []fp.FP{fp.FromUint64(1)}, Sizes: []uint32{8}}
	for _, m := range []any{
		proto.NewRunOK{RunID: 2},
		proto.NewRunOK{RunID: 1}, // out of order
		proto.PutFileIndex{JobName: "j", RunID: 1, Entry: entry},
		proto.PutFileIndex{JobName: "j", RunID: 7, Entry: entry}, // unknown run
		proto.PutFileIndex{JobName: "j", RunID: 1, Entry: proto.FileEntry{Path: "/g", Chunks: []fp.FP{fp.FromUint64(2)}}},
		proto.EndRun{JobName: "j", RunID: 1},
		proto.EndRun{JobName: "j", RunID: 9},
		proto.NewRun{JobName: "j", Client: "c"}, // not a journal record
	} {
		rec, err := proto.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
	}
	f.Add([]byte{})
	f.Add([]byte{0x3b, 0x7f, 0x03, 0x01, 0x01}) // the start of a gob event

	f.Fuzz(func(t *testing.T, rec []byte) {
		path := filepath.Join(t.TempDir(), "meta.journal")
		ms, d := openDirector(t, path)
		id := d.NewRun("j", "c")
		if err := d.PutFileIndex("j", id, entry); err != nil {
			t.Fatal(err)
		}
		if m, err := proto.Unmarshal(rec); err == nil {
			if pf, ok := m.(proto.PutFileIndex); ok {
				if err := d.PutFileIndex("j", id, pf.Entry); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := d.EndRun("j", id); err != nil {
			t.Fatal(err)
		}
		want := served(t, d)
		ms.Close()

		ms, d = openDirector(t, path)
		if got := served(t, d); !bytes.Equal(got, want) {
			t.Fatalf("replayed director serves %x, the live one served %x", got, want)
		}
		if err := ms.Append("j", rec); err != nil {
			t.Fatal(err)
		}
		ms.Close()

		ms, err := metastore.Open(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer ms.Close()
		NewDurable(ms) // applies the record or fails; either is fine
	})
}

// openDirector opens the journal at path and replays it into a director.
func openDirector(t *testing.T, path string) (*metastore.Store, *Director) {
	t.Helper()
	ms, err := metastore.Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurable(ms)
	if err != nil {
		ms.Close()
		t.Fatal(err)
	}
	return ms, d
}

// served encodes what a director serves for job "j", its latest complete
// run's files and its filtering fingerprints, as the frames that carry
// them, so two directors compare byte for byte.
func served(t *testing.T, d *Director) []byte {
	t.Helper()
	id, files, _ := d.LatestFiles("j")
	a, err := proto.Marshal(proto.JobFiles{RunID: id, Entries: files})
	if err != nil {
		t.Fatal(err)
	}
	b, err := proto.Marshal(proto.FilterFPs{FPs: d.FilterFPs("j")})
	if err != nil {
		t.Fatal(err)
	}
	return append(a, b...)
}

// TestReplayRefusesUnfitRecords: a record replay cannot apply fails the
// replay instead of being skipped.
func TestReplayRefusesUnfitRecords(t *testing.T) {
	entry := proto.FileEntry{Path: "/f", Chunks: []fp.FP{fp.FromUint64(1)}, Sizes: []uint32{8}}
	for _, m := range []any{
		proto.PutFileIndex{JobName: "j", RunID: 7, Entry: entry}, // unknown run
		proto.EndRun{JobName: "j", RunID: 7},                     // unknown run
		proto.NewRunOK{RunID: 1},                                 // ID already used
		proto.NewRun{JobName: "j", Client: "c"},                  // not a journal record
	} {
		path := filepath.Join(t.TempDir(), "meta.journal")
		ms, d := openDirector(t, path)
		d.NewRun("j", "c")
		rec, err := proto.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := ms.Append("j", rec); err != nil {
			t.Fatal(err)
		}
		ms.Close()
		if ms, err = metastore.Open(path, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := NewDurable(ms); err == nil {
			t.Errorf("journal ending in %T %+v replayed without error", m, m)
		}
		ms.Close()
	}
}
