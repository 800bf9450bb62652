package director

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"debar/internal/fp"
	"debar/internal/metastore"
	"debar/internal/proto"
)

func TestDurableDirectorReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.journal")
	ms, err := metastore.Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurable(ms)
	if err != nil {
		t.Fatal(err)
	}
	run1 := d.NewRun("nightly", "host-a")
	var chunks []fp.FP
	for i := 0; i < 3; i++ {
		chunks = append(chunks, fp.FromUint64(uint64(i+1)))
	}
	entry := proto.FileEntry{Path: "/etc/passwd", Mode: 0o644, Size: 1234, Chunks: chunks, Sizes: []uint32{400, 400, 434}}
	if err := d.PutFileIndex("nightly", run1, entry); err != nil {
		t.Fatal(err)
	}
	if err := d.EndRun("nightly", run1); err != nil {
		t.Fatal(err)
	}
	run2 := d.NewRun("weekly", "host-b")
	if run2 != run1+1 {
		t.Fatalf("run IDs not sequential: %d then %d", run1, run2)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh metastore over the same journal feeds a fresh
	// director, which must see the same runs and file indexes.
	ms2, err := metastore.Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ms2.Close()
	d2, err := NewDurable(ms2)
	if err != nil {
		t.Fatal(err)
	}
	runID, files, err := d2.LatestFiles("nightly")
	if err != nil {
		t.Fatal(err)
	}
	if runID != run1 || len(files) != 1 {
		t.Fatalf("LatestFiles after replay: run %d, %d files", runID, len(files))
	}
	got := files[0]
	if got.Path != entry.Path || got.Size != entry.Size || len(got.Chunks) != len(entry.Chunks) {
		t.Fatalf("file entry mismatch after replay: %+v", got)
	}
	for i := range got.Chunks {
		if got.Chunks[i] != entry.Chunks[i] || got.Sizes[i] != entry.Sizes[i] {
			t.Fatalf("chunk %d mismatch after replay", i)
		}
	}
	// Filtering fingerprints for the job chain survive too (§5.1).
	if fps := d2.FilterFPs("nightly"); len(fps) != len(chunks) {
		t.Fatalf("FilterFPs after replay: %d, want %d", len(fps), len(chunks))
	}
	// New runs continue after the persisted maximum.
	if run3 := d2.NewRun("nightly", "host-a"); run3 != run2+1 {
		t.Fatalf("post-replay run ID %d, want %d", run3, run2+1)
	}
}

func TestDurableDirectorManyRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.journal")
	ms, err := metastore.Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurable(ms)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 10
	for i := 0; i < runs; i++ {
		id := d.NewRun("chain", "host")
		e := proto.FileEntry{Path: fmt.Sprintf("/f%d", i), Chunks: []fp.FP{fp.FromUint64(uint64(i))}, Sizes: []uint32{8}}
		if err := d.PutFileIndex("chain", id, e); err != nil {
			t.Fatal(err)
		}
		if err := d.EndRun("chain", id); err != nil {
			t.Fatal(err)
		}
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}

	ms2, err := metastore.Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ms2.Close()
	d2, err := NewDurable(ms2)
	if err != nil {
		t.Fatal(err)
	}
	// The latest run's files win the job chain.
	runID, files, err := d2.LatestFiles("chain")
	if err != nil {
		t.Fatal(err)
	}
	if runID != runs || len(files) != 1 || files[0].Path != fmt.Sprintf("/f%d", runs-1) {
		t.Fatalf("latest run after replay: id=%d files=%+v", runID, files)
	}
}

// TestRunNotJournaledIsNotOpened: a run exists only once its opening is
// journaled. With the append failing, NewRun opens nothing, so nothing
// can be acknowledged against the run and then lost on restart: what the
// director served before the restart, it serves after it.
func TestRunNotJournaledIsNotOpened(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.journal")
	ms, err := metastore.Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurable(ms)
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected disk full")
	ms.SetAppendFailFunc(func() error { return injected })
	id := d.NewRun("nightly", "host-a")
	ms.SetAppendFailFunc(nil)

	entry := proto.FileEntry{Path: "/etc/hosts", Size: 8, Chunks: []fp.FP{fp.FromUint64(1)}, Sizes: []uint32{8}}
	acked := d.PutFileIndex("nightly", id, entry) == nil && d.EndRun("nightly", id) == nil
	_, _, errBefore := d.LatestFiles("nightly")
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	ms2, err := metastore.Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ms2.Close()
	d2, err := NewDurable(ms2)
	if err != nil {
		t.Fatal(err)
	}
	_, _, errAfter := d2.LatestFiles("nightly")
	if acked && errAfter != nil {
		t.Fatalf("run %d was acknowledged complete and then lost on restart: %v", id, errAfter)
	}
	if id != 0 || acked || errBefore == nil {
		t.Fatalf("NewRun with a failing journal append = run %d (acked %v), want no run", id, acked)
	}
}

// TestGobJournalRefused opens a journal written by the gob-era director
// (format version 1: one run, one file index, its completion). The
// director refuses it with a typed error naming both versions and leaves
// the file byte-identical.
func TestGobJournalRefused(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "v1-gob.journal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "meta.journal")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	ms, err := metastore.Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewDurable(ms)
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Found != 1 || ve.Want != 2 {
		t.Fatalf("NewDurable over a gob-era journal = %v, want a *VersionError{Found: 1, Want: 2}", err)
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, golden) {
		t.Fatalf("refused journal changed (%d → %d bytes, err %v)", len(golden), len(got), err)
	}
}

// TestJournalStamp: a new journal starts with the version stamp, and a
// stamp naming another version is refused with that version.
func TestJournalStamp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.journal")
	ms, err := metastore.Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDurable(ms); err != nil {
		t.Fatal(err)
	}
	var first string
	var rec []byte
	if err := ms.Replay(func(job string, r []byte) error {
		if first == "" {
			first, rec = job, append([]byte(nil), r...)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if first != stampJob || !bytes.Equal(rec, []byte{0, 0, 0, 2}) {
		t.Fatalf("first record of a new journal = %q %x, want the version-2 stamp", first, rec)
	}
	ms.Close()

	path = filepath.Join(t.TempDir(), "meta.journal")
	if ms, err = metastore.Open(path, 0); err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	if err := ms.Append(stampJob, []byte{0, 0, 0, 3}); err != nil {
		t.Fatal(err)
	}
	_, err = NewDurable(ms)
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Found != 3 || ve.Want != 2 {
		t.Fatalf("NewDurable over a version-3 stamp = %v, want a *VersionError{Found: 3, Want: 2}", err)
	}
}

// TestFailedNewRunIDNotReused: an append can fail in its batched fsync
// after the record reached the journal. NewRun then opens no run, but
// the ID it journaled is never handed out again, so the journal still
// replays and the next run keeps its files.
func TestFailedNewRunIDNotReused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.journal")
	ms, err := metastore.Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurable(ms)
	if err != nil {
		t.Fatal(err)
	}
	first := d.NewRun("big", "host")
	big := proto.FileEntry{Path: "/big", Chunks: make([]fp.FP, 12000), Sizes: make([]uint32, 12000)}
	ms.SetSyncFailFunc(func() error { return errors.New("injected media failure") })
	if err := d.PutFileIndex("big", first, big); err == nil {
		t.Fatal("a journal past its sync threshold synced with the sync failing")
	}
	if id := d.NewRun("nightly", "host"); id != 0 {
		t.Fatalf("NewRun whose append failed in its fsync = run %d, want none", id)
	}
	ms.SetSyncFailFunc(nil)
	id := d.NewRun("nightly", "host")
	if id == 0 || id == first+1 {
		t.Fatalf("NewRun after a failed one = run %d, want a fresh ID past %d", id, first+1)
	}
	entry := proto.FileEntry{Path: "/etc/hosts", Chunks: []fp.FP{fp.FromUint64(1)}, Sizes: []uint32{8}}
	if err := d.PutFileIndex("nightly", id, entry); err != nil {
		t.Fatal(err)
	}
	if err := d.EndRun("nightly", id); err != nil {
		t.Fatal(err)
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	ms2, err := metastore.Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ms2.Close()
	d2, err := NewDurable(ms2)
	if err != nil {
		t.Fatal(err)
	}
	if got, files, err := d2.LatestFiles("nightly"); err != nil || got != id || len(files) != 1 {
		t.Fatalf("after reopen LatestFiles = run %d, %d files, err %v; want run %d", got, len(files), err, id)
	}
}
