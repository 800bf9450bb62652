package director

import (
	"errors"
	"net"
	"path/filepath"
	"testing"

	"debar/internal/fp"
	"debar/internal/metastore"
	"debar/internal/proto"
)

// newTestDirector boots a director over a fresh journal in a test temp
// directory; the journal closes when the test ends.
func newTestDirector(t *testing.T) *Director {
	t.Helper()
	ms, err := metastore.Open(filepath.Join(t.TempDir(), "meta.journal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	d, err := NewDurable(ms)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAssignServerBalances(t *testing.T) {
	d := newTestDirector(t)
	if _, err := d.AssignServer(); err == nil {
		t.Fatal("assignment without servers succeeded")
	}
	d.RegisterServer("s0")
	d.RegisterServer("s1")
	counts := map[string]int{}
	for i := 0; i < 10; i++ {
		addr, err := d.AssignServer()
		if err != nil {
			t.Fatal(err)
		}
		counts[addr]++
	}
	if counts["s0"] != 5 || counts["s1"] != 5 {
		t.Fatalf("unbalanced assignment: %v", counts)
	}
}

func TestRunsAndFileIndices(t *testing.T) {
	d := newTestDirector(t)
	run1 := d.NewRun("job", "client")
	entry := proto.FileEntry{Path: "f1", Chunks: []fp.FP{fp.FromUint64(1), fp.FromUint64(2)}}
	if err := d.PutFileIndex("job", run1, entry); err != nil {
		t.Fatal(err)
	}
	if err := d.PutFileIndex("job", 999, entry); err == nil {
		t.Fatal("unknown run accepted")
	}
	// Until the run is marked complete it is not a restore source.
	if _, _, err := d.LatestFiles("job"); err == nil {
		t.Fatal("incomplete run served as restore source")
	}
	if err := d.EndRun("job", 999); err == nil {
		t.Fatal("EndRun accepted unknown run")
	}
	if err := d.EndRun("job", run1); err != nil {
		t.Fatal(err)
	}
	id, files, err := d.LatestFiles("job")
	if err != nil || id != run1 || len(files) != 1 {
		t.Fatalf("LatestFiles = %d files run %d err %v", len(files), id, err)
	}
	if _, _, err := d.LatestFiles("ghost"); err == nil {
		t.Fatal("unknown job accepted")
	}
}

func TestFilterFPsComeFromPreviousRun(t *testing.T) {
	d := newTestDirector(t)
	if fps := d.FilterFPs("job"); fps != nil {
		t.Fatal("filter fps for unknown job")
	}
	run1 := d.NewRun("job", "c")
	_ = d.PutFileIndex("job", run1, proto.FileEntry{
		Path: "f", Chunks: []fp.FP{fp.FromUint64(1), fp.FromUint64(2)},
	})
	// An incomplete run contributes nothing.
	if fps := d.FilterFPs("job"); fps != nil {
		t.Fatal("filter fps from incomplete run")
	}
	_ = d.EndRun("job", run1)
	// A new (empty) run does not hide the previous completed one.
	_ = d.NewRun("job", "c")
	fps := d.FilterFPs("job")
	if len(fps) != 2 {
		t.Fatalf("filter fps = %d, want 2", len(fps))
	}
}

func TestJobChainAccumulatesRuns(t *testing.T) {
	d := newTestDirector(t)
	r1 := d.NewRun("chain", "c")
	_ = d.PutFileIndex("chain", r1, proto.FileEntry{Path: "v1", Chunks: []fp.FP{fp.FromUint64(1)}})
	_ = d.EndRun("chain", r1)
	r2 := d.NewRun("chain", "c")
	_ = d.PutFileIndex("chain", r2, proto.FileEntry{Path: "v2", Chunks: []fp.FP{fp.FromUint64(2)}})
	_ = d.EndRun("chain", r2)
	id, files, err := d.LatestFiles("chain")
	if err != nil || id != r2 {
		t.Fatalf("latest run = %d err %v", id, err)
	}
	if files[0].Path != "v2" {
		t.Fatalf("latest files = %+v", files)
	}
	// Filtering fingerprints follow the newest completed run.
	fps := d.FilterFPs("chain")
	if len(fps) != 1 || fps[0] != fp.FromUint64(2) {
		t.Fatalf("filter fps = %v", fps)
	}
}

func TestServeHandlesMetadataProtocol(t *testing.T) {
	d := newTestDirector(t)
	addr, err := d.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	conn, err := proto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if err := conn.Send(proto.RegisterServer{Addr: "srv:1"}); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ok, is := msg.(proto.RegisterOK); !is || ok.ServerID != 0 {
		t.Fatalf("RegisterOK = %+v", msg)
	}

	if err := conn.Send(proto.NewRun{JobName: "j", Client: "c"}); err != nil {
		t.Fatal(err)
	}
	msg, _ = conn.Recv()
	run := msg.(proto.NewRunOK)

	entry := proto.FileEntry{Path: "x", Chunks: []fp.FP{fp.FromUint64(5)}}
	_ = conn.Send(proto.PutFileIndex{JobName: "j", RunID: run.RunID, Entry: entry})
	msg, _ = conn.Recv()
	if ack := msg.(proto.Ack); !ack.OK {
		t.Fatalf("PutFileIndex refused: %s", ack.Err)
	}

	_ = conn.Send(proto.EndRun{JobName: "j", RunID: run.RunID})
	msg, _ = conn.Recv()
	if ack := msg.(proto.Ack); !ack.OK {
		t.Fatalf("EndRun refused: %s", ack.Err)
	}

	_ = conn.Send(proto.GetJobFiles{JobName: "j"})
	msg, _ = conn.Recv()
	files := msg.(proto.JobFiles)
	if len(files.Entries) != 1 || files.Entries[0].Path != "x" {
		t.Fatalf("JobFiles = %+v", files)
	}

	_ = conn.Send(proto.GetFilterFPs{JobName: "j"})
	msg, _ = conn.Recv()
	ff := msg.(proto.FilterFPs)
	if len(ff.FPs) != 1 || ff.FPs[0] != fp.FromUint64(5) {
		t.Fatalf("FilterFPs = %+v", ff)
	}

	// Unknown messages get a graceful error Ack.
	_ = conn.Send(proto.BackupStart{JobName: "j"})
	msg, _ = conn.Recv()
	if ack, is := msg.(proto.Ack); !is || ack.OK {
		t.Fatalf("unexpected-message reply = %+v", msg)
	}
}

// TestLegacyGobPeerRefused: a backup server at protocol version 3 or
// older opens with a tag-0 gob frame. The director answers it with a
// typed unsupported-version Ack the old server can decode, then hangs up.
func TestLegacyGobPeerRefused(t *testing.T) {
	d := newTestDirector(t)
	addr, err := d.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := proto.NewConn(raw)
	defer conn.Close()
	// The payload is never decoded, so any bytes stand in for the gob
	// stream of a version-3 RegisterServer.
	if _, err := raw.Write([]byte{0, 0, 0, 0, 4, 0x2a, 0xff, 0x81, 0x03}); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack, is := msg.(proto.Ack); !is || ack.OK || ack.Code != proto.CodeUnsupportedVersion {
		t.Fatalf("reply to a tag-0 frame = %T %+v, want an unsupported-version refusal", msg, msg)
	}
	if _, err := conn.Recv(); err == nil {
		t.Fatal("director kept the legacy peer's connection open")
	}
	if n := len(d.Servers()); n != 0 {
		t.Fatalf("legacy peer registered: %d servers", n)
	}
}

// TestEndRunDurableBeforeComplete pins that a run becomes a restore
// source only once its completion is fsynced: with the journal's sync
// failing, EndRun errors and the run serves neither restores nor
// filtering fingerprints; once the sync works again a retried EndRun
// succeeds and the run survives a reopen.
func TestEndRunDurableBeforeComplete(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.journal")
	ms, err := metastore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurable(ms)
	if err != nil {
		t.Fatal(err)
	}
	run := d.NewRun("job", "c")
	entry := proto.FileEntry{Path: "f", Chunks: []fp.FP{fp.FromUint64(1)}, Sizes: []uint32{8}}
	if err := d.PutFileIndex("job", run, entry); err != nil {
		t.Fatal(err)
	}

	injected := errors.New("injected media failure")
	ms.SetSyncFailFunc(func() error { return injected })
	if err := d.EndRun("job", run); !errors.Is(err, injected) {
		t.Fatalf("EndRun with a failing journal sync = %v, want %v", err, injected)
	}
	if _, _, err := d.LatestFiles("job"); err == nil {
		t.Fatal("run whose completion was never synced served as restore source")
	}
	if fps := d.FilterFPs("job"); fps != nil {
		t.Fatalf("run whose completion was never synced gave %d filter fps", len(fps))
	}

	ms.SetSyncFailFunc(nil)
	if err := d.EndRun("job", run); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}

	ms2, err := metastore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ms2.Close()
	d2, err := NewDurable(ms2)
	if err != nil {
		t.Fatal(err)
	}
	id, files, err := d2.LatestFiles("job")
	if err != nil || id != run || len(files) != 1 || files[0].Path != "f" {
		t.Fatalf("after reopen LatestFiles = run %d, %d files, err %v", id, len(files), err)
	}
	if fps := d2.FilterFPs("job"); len(fps) != 1 {
		t.Fatalf("after reopen FilterFPs = %d, want 1", len(fps))
	}
}
