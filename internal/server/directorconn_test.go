package server_test

import (
	"errors"
	"net"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"debar/internal/director"
	"debar/internal/faultproxy"
	"debar/internal/metastore"
	"debar/internal/proto"
	"debar/internal/server"
)

// startDirector boots a director over the journal at path on addr and
// returns it with its bound address; the caller closes both.
func startDirector(t *testing.T, path, addr string) (*director.Director, *metastore.Store, string) {
	t.Helper()
	ms, err := metastore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := director.NewDurable(ms)
	if err != nil {
		ms.Close()
		t.Fatal(err)
	}
	bound, err := d.Serve(addr)
	if err != nil {
		ms.Close()
		t.Fatal(err)
	}
	return d, ms, bound
}

// startServerAt boots a backup server whose director is at dirAddr.
func startServerAt(t *testing.T, dirAddr string) string {
	t.Helper()
	srv, err := server.New(server.Config{
		DirectorAddr:  dirAddr,
		ContainerSize: 64 << 10,
		IndexBits:     12,
		DataDir:       t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srvAddr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srvAddr
}

// TestOneDirectorConnPerHandler counts the director connections a server
// opens, through a proxy in front of the director: registration opens
// one, and a backup of several files, a restore and a verify each open
// exactly one more, however many director calls their handler makes
// (NewRun, GetFilterFPs, a PutFileIndex per file and EndRun; ListFiles
// and GetJobFiles).
func TestOneDirectorConnPerHandler(t *testing.T) {
	d, ms, dirAddr := startDirector(t, filepath.Join(t.TempDir(), "meta.journal"), "127.0.0.1:0")
	t.Cleanup(func() { ms.Close() })
	t.Cleanup(func() { d.Close() })
	px, err := faultproxy.New(dirAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { px.Close() })
	srvAddr := startServerAt(t, px.Addr())
	if n := px.Accepted(); n != 1 {
		t.Fatalf("director connections after registration = %d, want 1", n)
	}

	src := t.TempDir()
	files := writeTree(t, src, 31)
	c := testClient(srvAddr)
	stats, err := c.Backup("one-conn", src)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Files != len(files) {
		t.Fatalf("backed up %d files, want %d", stats.Files, len(files))
	}
	if n := px.Accepted(); n != 2 {
		t.Fatalf("director connections after a %d-file backup = %d, want 2", len(files), n)
	}

	runDedup2Direct(t, srvAddr) // server-local: no director call
	restoreAndCompare(t, srvAddr, "one-conn", files)
	if n := px.Accepted(); n != 3 {
		t.Fatalf("director connections after the restore = %d, want 3", n)
	}
	res, err := c.Verify("one-conn", src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != len(files) {
		t.Fatalf("verify of an unchanged tree = %+v", res)
	}
	if n := px.Accepted(); n != 4 {
		t.Fatalf("director connections after the verify = %d, want 4", n)
	}
}

// TestDirectorRestartRedials restarts the director on the same address
// and journal while the server stays up. A client connection whose
// handler already holds a director connection finds it dead; its next
// call redials instead of failing. The next backup completes over a
// fresh dial and restores byte-identically, and so does the run backed
// up before the restart.
func TestDirectorRestartRedials(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "meta.journal")
	d, ms, dirAddr := startDirector(t, journal, "127.0.0.1:0")
	srvAddr := startServerAt(t, dirAddr)

	before := t.TempDir()
	beforeFiles := writeTree(t, before, 41)
	c := testClient(srvAddr)
	if _, err := c.Backup("before-restart", before); err != nil {
		t.Fatal(err)
	}

	// A client connection whose handler holds a director connection.
	held, err := proto.Dial(srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	listFiles := func(job string) []string {
		t.Helper()
		if err := held.Send(proto.ListFiles{JobName: job}); err != nil {
			t.Fatal(err)
		}
		msg, err := held.Recv()
		if err != nil {
			t.Fatal(err)
		}
		fl, ok := msg.(proto.FileList)
		if !ok {
			t.Fatalf("ListFiles(%s) reply = %T %+v", job, msg, msg)
		}
		sort.Strings(fl.Paths)
		return fl.Paths
	}
	if got := listFiles("before-restart"); len(got) != len(beforeFiles) {
		t.Fatalf("ListFiles before the restart = %v", got)
	}

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	d, ms, _ = startDirector(t, journal, dirAddr)
	t.Cleanup(func() { ms.Close() })
	t.Cleanup(func() { d.Close() })

	after := t.TempDir()
	afterFiles := writeTree(t, after, 42)
	if _, err := c.Backup("after-restart", after); err != nil {
		t.Fatalf("backup after the director restarted: %v", err)
	}
	if got := listFiles("after-restart"); len(got) != len(afterFiles) {
		t.Fatalf("ListFiles on the held connection after the restart = %v", got)
	}

	runDedup2Direct(t, srvAddr) // the restarted director has no server list
	restoreAndCompare(t, srvAddr, "after-restart", afterFiles)
	restoreAndCompare(t, srvAddr, "before-restart", beforeFiles)
}

// TestBackupRefusedWhenRunNotJournaled: a director that cannot journal a
// new run opens none and refuses the NewRun. The server passes the
// refusal on, so the backup fails up front with the director's typed
// error, and the job has no run for a restore to find.
func TestBackupRefusedWhenRunNotJournaled(t *testing.T) {
	d, ms, dirAddr := startDirector(t, filepath.Join(t.TempDir(), "meta.journal"), "127.0.0.1:0")
	t.Cleanup(func() { ms.Close() })
	t.Cleanup(func() { d.Close() })
	srvAddr := startServerAt(t, dirAddr)
	ms.SetAppendFailFunc(func() error { return errors.New("injected disk full") })

	src := t.TempDir()
	writeTree(t, src, 43)
	_, err := testClient(srvAddr).Backup("unjournaled", src)
	var re *proto.RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "could not open a run") {
		t.Fatalf("backup whose run could not be journaled: err = %v, want the director's refusal", err)
	}
	if _, _, err := d.LatestFiles("unjournaled"); err == nil {
		t.Fatal("refused backup left a restorable run")
	}
}

// TestLegacyGobPeerRefused: a peer at protocol version 3 or older opens
// with a tag-0 gob frame. The server answers it with a typed
// unsupported-version Ack the old peer can decode, then hangs up.
func TestLegacyGobPeerRefused(t *testing.T) {
	_, srv, srvAddr := startServer(t, nil)
	raw, err := net.Dial("tcp", srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	conn := proto.NewConn(raw)
	defer conn.Close()
	// The payload is never decoded, so any bytes stand in for the gob
	// stream of a version-3 BackupStart.
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
		t.Fatal("server kept the legacy peer's connection open")
	}
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("SessionCount = %d after a legacy peer, want 0", n)
	}
}
